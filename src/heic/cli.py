"""Command-line interface.

Subcommands:

* ``sample``            -- simulate a graph, write an edge list (and
                           optionally the probability and Gram matrices),
* ``spectrum``          -- analytic eigenvalues of a link, CSV per level,
* ``eig``               -- eigenvalues of a dense CSV matrix,
* ``estimate``          -- Gram estimate and diagnostics from an edge list,
* ``dimension``         -- candidate-dimension scores from an edge list,
* ``mse-study``         -- Gram-error study from a JSON config,
* ``dim-study``         -- dimension-recovery study from a JSON config,
* ``convergence-study`` -- spectrum matching-distance study from a config.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure (also
a study whose every replicate failed; its CSV of NaN rows is still written).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .dimension import DEFAULT_D_MAX, estimate_dimension
from .errors import NumericError, ValidationError
from .estimator import heic
from .experiments import (
    ExperimentConfig,
    run_dimension_study,
    run_mse_study,
    run_spectrum_convergence,
    write_convergence_csv,
    write_dimension_csv,
    write_mse_csv,
)
from .harmonics import DEFAULT_K_MAX, analytic_spectrum
from .links import link_from_spec
from .model import GraphModel, gram_population, probability_matrix, sample_adjacency, sample_uniform_sphere
from .spectral import symmetric_eigvals


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_sample(args) -> int:
    link = link_from_spec(args.link)
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    ss = np.random.SeedSequence(args.seed)
    latent_seed, adjacency_seed = (int(s) for s in ss.generate_state(2, np.uint64))
    sample = sample_uniform_sphere(args.n, args.d, latent_seed)
    theta = probability_matrix(sample, GraphModel(link=link, sparsity=args.rho, n=args.n))
    adjacency = sample_adjacency(theta, adjacency_seed)
    io.write_edge_list(args.out, adjacency)
    if args.theta_out:
        io.write_matrix_csv(args.theta_out, theta)
    if args.gram_out:
        io.write_matrix_csv(args.gram_out, gram_population(sample))
    return 0


def _cmd_spectrum(args) -> int:
    spectrum = analytic_spectrum(link_from_spec(args.link), args.d, args.kmax)
    lines = ["k,eigenvalue,multiplicity,quad_err"]
    for lv in spectrum.levels:
        lines.append(
            f"{lv.k},{io.format_float(lv.eigenvalue)},{lv.multiplicity},"
            f"{io.format_float(lv.quad_err)}"
        )
    _write_lines(args.out, lines)
    return 0


def _cmd_eig(args) -> int:
    spec = symmetric_eigvals(io.read_matrix_csv(args.input))
    lines = ["index,eigenvalue"]
    lines.extend(f"{i},{io.format_float(v)}" for i, v in enumerate(spec.values))
    _write_lines(args.out, lines)
    return 0


def _cmd_estimate(args) -> int:
    adjacency = io.read_edge_list(args.input)
    estimate, diag = heic(adjacency, args.dim)
    io.write_matrix_csv(args.out_gram, estimate.matrix)
    if args.out_diag:
        lines = [
            "gap,diameter,cluster_start,top_eigenvalue,edge_density",
            f"{io.format_float(diag.gap)},{io.format_float(diag.diameter)},"
            f"{diag.cluster_start},{io.format_float(diag.top_eigenvalue)},"
            f"{io.format_float(diag.edge_density)}",
        ]
        _write_lines(args.out_diag, lines)
    if diag.degenerate:
        print("warning: zero separation score, estimate is degenerate", file=sys.stderr)
    return 0


def _cmd_dimension(args) -> int:
    scan = estimate_dimension(io.read_edge_list(args.input), d_max=args.dmax)
    lines = ["candidate_d,score"]
    lines.extend(
        f"{d},{io.format_float(s)}" for d, s in zip(scan.candidates, scan.scores)
    )
    _write_lines(args.out, lines)
    print(f"chosen dimension: {scan.chosen}")
    return 0


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if cfg.out is None:
        raise ValidationError("config must set an output path ('out')")
    return cfg


def _cmd_mse_study(args) -> int:
    cfg = _load_config(args)
    records = run_mse_study(cfg)
    write_mse_csv(records, cfg.out, timing=args.timing)
    print(f"wrote {len(records)} records to {cfg.out}")
    return _study_exit([rec.error for rec in records])


def _cmd_dim_study(args) -> int:
    cfg = _load_config(args)
    result = run_dimension_study(cfg)
    write_dimension_csv(result, cfg.out)
    print(f"recovery rate: {result.recovery_rate:.3f} (true d={result.true_d})")
    if result.true_d_outside_candidates:
        print("warning: true_d_outside_candidates", file=sys.stderr)
    return _study_exit(result.errors)


def _cmd_convergence_study(args) -> int:
    cfg = _load_config(args)
    records = run_spectrum_convergence(cfg, matrix=args.matrix)
    write_convergence_csv(records, cfg.out)
    print(f"wrote {len(records)} records to {cfg.out}")
    return _study_exit([rec.error for rec in records])


def _study_exit(errors) -> int:
    """Exit 2, naming the failure classes, when no replicate of a study survived."""
    if not all(errors):
        return 0
    classes = ", ".join(sorted({error.split(":", 1)[0] for error in errors}))
    print(f"numeric failure: all {len(errors)} replicates failed ({classes})", file=sys.stderr)
    return 2


def _write_lines(path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        from pathlib import Path

        Path(path).write_text(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="heic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[], help="simulate a graph and write an edge list")
    p.add_argument("--link", required=True, help="threshold:TAU or affine:A,B")
    p.add_argument("--d", type=int, required=True, help="ambient dimension of the sphere")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--rho", type=float, default=1.0, help="edge-density scale in (0, 1]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--theta-out", help="optional dense CSV of the probability matrix")
    p.add_argument("--gram-out", help="optional dense CSV of the population Gram matrix")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("spectrum", help="analytic spectrum of a link function")
    p.add_argument("--link", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kmax", type=int, default=DEFAULT_K_MAX)
    p.add_argument("--out", default="-", help="CSV path or - for stdout")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("eig", help="sorted eigenvalues of a dense CSV matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_eig)

    p = sub.add_parser("estimate", help="Gram estimate from an edge list")
    p.add_argument("--input", required=True, help="edge-list path")
    p.add_argument("--dim", type=int, required=True, help="latent dimension d")
    p.add_argument("--out-gram", required=True, help="dense CSV output path")
    p.add_argument("--out-diag", help="optional diagnostics CSV path")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("dimension", help="candidate-dimension scores from an edge list")
    p.add_argument("--input", required=True)
    p.add_argument("--dmax", type=int, default=DEFAULT_D_MAX)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_dimension)

    for name, handler in (
        ("mse-study", _cmd_mse_study),
        ("dim-study", _cmd_dim_study),
        ("convergence-study", _cmd_convergence_study),
    ):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} from a JSON config")
        p.add_argument("--config", required=True, help="JSON experiment config path")
        if name == "mse-study":
            p.add_argument(
                "--timing",
                action="store_true",
                help="record wall-clock seconds (breaks byte-reproducible output)",
            )
        if name == "convergence-study":
            p.add_argument(
                "--matrix",
                choices=("observed", "noiseless"),
                default="observed",
                help="compare the sampled adjacency or the probability matrix",
            )
        p.set_defaults(handler=handler)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
