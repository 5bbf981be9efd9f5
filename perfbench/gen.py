"""Input generator for the graph workloads, run in its own process.

    python3 perfbench/gen.py --n 3000 --rho 1.0 --seed 7 --count 3 --out DIR [--edge-list]

Writes, for graph i of `count`:

* ``g{i}.npz``: the latent points ``x`` (n x 3), the decreasing eigenvalues
  of A/n in ``spectrum``, the edge count ``edges``, and in ``exact_err`` the
  Gram error of the exact estimate: the projector onto the eigenvectors of
  the best 3-window, from ``numpy.linalg.eigh``;
* ``g{i}_adj.npy``: the adjacency as uint8 (dense workload), or
  ``g{i}.edges``: the edge list in the format ``heic.io`` reads.

Only numpy is used, never ``heic``: the inputs, and the figures the
output checks compare against, stay the same whatever the library under
test does.  The model is the threshold(0) link on S^2: nodes i < j with
latent inner product <= 0 connect with probability rho.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

import checks

D = 3


def sample_graph(n: int, rho: float, seed: int, index: int):
    """Latent points and the upper-triangle edge mask of graph `index`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    x = rng.standard_normal((n, D))
    x /= np.linalg.norm(x, axis=1)[:, None]
    link = (x @ x.T) <= 0.0
    coins = rng.random((n, n)) < rho
    upper = np.triu(link & coins, k=1)
    return x, upper


def write_edge_list(path: Path, upper: np.ndarray) -> int:
    """Write the ``n=<count>`` header and one ``i j`` line per edge; return bytes."""
    rows, cols = np.nonzero(upper)
    text = f"n={upper.shape[0]}\n" + "".join(
        f"{i} {j}\n" for i, j in zip(rows.tolist(), cols.tolist())
    )
    path.write_text(text)
    return len(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--rho", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--edge-list", action="store_true", help="write edge lists, not arrays")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        x, upper = sample_graph(args.n, args.rho, args.seed, i)
        if args.edge_list:
            write_edge_list(args.out / f"g{i}.edges", upper)
        adj = (upper | upper.T).astype(np.uint8)
        del upper
        if not args.edge_list:
            np.save(args.out / f"g{i}_adj.npy", adj)
        values, vectors = np.linalg.eigh(adj / float(args.n))
        spectrum, vectors = values[::-1], vectors[:, ::-1]
        start, _, _ = checks.cluster(spectrum, D)
        exact_err = checks.projector_gram_error(vectors[:, start : start + D], x)
        np.savez(
            args.out / f"g{i}.npz", x=x, spectrum=spectrum, edges=int(adj.sum()) // 2,
            exact_err=exact_err,
        )


if __name__ == "__main__":
    main()
