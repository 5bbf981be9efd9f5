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

Every output path (a study config's ``out`` too) must name a file in an
existing directory; ``-`` is standard output, and at most one output of a
command may be ``-``.  Both are checked before any input is read or any
work is done.  Standard output carries only data: a status line goes to
standard error when the command's CSV goes to standard output.

Exit codes: 0 success, 1 validation/usage error or too little memory for
the graph, 2 numeric failure (also a study whose every replicate failed;
its CSV of NaN rows is still written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io
from .errors import NumericError, ValidationError, require_integer
from .estimator import DEFAULT_D_MAX, estimate_dimension, heic
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
from .model import GraphModel, gram_population, probability_matrix, sample_model_adjacency, sample_uniform_sphere
from .spectral import symmetric_eig


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_sample(args) -> int:
    link = link_from_spec(args.link)
    ss = np.random.SeedSequence(require_integer(args.seed, "--seed", 0))
    latent_seed, adjacency_seed = (int(s) for s in ss.generate_state(2, np.uint64))
    sample = sample_uniform_sphere(args.n, args.d, latent_seed)
    model = GraphModel(link=link, sparsity=args.rho, n=args.n)
    io.write_edge_list(args.out, sample_model_adjacency(sample, model, adjacency_seed))
    if args.theta_out:
        io.write_matrix_csv(args.theta_out, probability_matrix(sample, model))
    if args.gram_out:
        io.write_matrix_csv(args.gram_out, gram_population(sample))
    return 0


def _cmd_spectrum(args) -> int:
    spectrum = analytic_spectrum(link_from_spec(args.link), args.d, args.kmax)
    rows = [(lv.k, lv.eigenvalue, lv.multiplicity, lv.quad_err) for lv in spectrum.levels]
    io.write_table(args.out, "k,eigenvalue,multiplicity,quad_err", rows)
    return 0


def _cmd_eig(args) -> int:
    values = symmetric_eig(io.read_matrix_csv(args.input)).values
    io.write_table(args.out, "index,eigenvalue", enumerate(values))
    return 0


def _cmd_estimate(args) -> int:
    adjacency = io.read_edge_list(args.input)
    estimate, diag = heic(adjacency, args.dim)
    io.write_matrix_csv(args.out_gram, estimate.matrix)
    if args.out_diag:
        names = [field.name for field in fields(diag) if field.name != "event_e"]
        io.write_table(args.out_diag, ",".join(names), [[getattr(diag, name) for name in names]])
    if diag.degenerate:
        print("warning: separation score within rounding of zero, estimate is degenerate", file=sys.stderr)
    return 0


def _cmd_dimension(args) -> int:
    scan = estimate_dimension(io.read_edge_list(args.input), d_max=args.dmax)
    io.write_table(args.out, "candidate_d,score", zip(scan.candidates, scan.scores))
    _status(f"chosen dimension: {scan.chosen}", args.out)
    return 0


def _status(line: str, out) -> None:
    """Print a status line after writing out: to stderr when out is "-", so stdout holds only the CSV."""
    print(line, file=sys.stderr if str(out) == "-" else sys.stdout)


def _require_output(path, name: str) -> None:
    """Reject an output path that is a directory or lies in no existing directory; "-" is stdout."""
    if path is None or str(path) == "-":
        return
    path = Path(path)
    if path.is_dir():
        raise ValidationError(f"{name}: {path} is a directory")
    if not path.parent.is_dir():
        raise ValidationError(f"{name}: directory {path.parent} does not exist")


# Every output flag of every command, as argparse names its attribute.
_OUTPUT_FLAGS = ("out", "out_gram", "out_diag", "theta_out", "gram_out")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if cfg.out is None:
        raise ValidationError("config must set an output path ('out')")
    _require_output(cfg.out, "config 'out'")
    return cfg


def _cmd_mse_study(args) -> int:
    cfg = _load_config(args)
    records = run_mse_study(cfg)
    write_mse_csv(records, cfg.out, timing=args.timing)
    _status(f"wrote {len(records)} records to {cfg.out}", cfg.out)
    return _study_exit([rec.error for rec in records])


def _cmd_dim_study(args) -> int:
    cfg = _load_config(args)
    result = run_dimension_study(cfg)
    write_dimension_csv(result, cfg.out)
    _status(f"recovery rate: {result.recovery_rate:.3f} (true d={result.true_d})", cfg.out)
    if cfg.d > cfg.d_max:
        print("warning: true_d_outside_candidates", file=sys.stderr)
    return _study_exit(result.errors)


def _cmd_convergence_study(args) -> int:
    cfg = _load_config(args)
    records = run_spectrum_convergence(cfg, matrix=args.matrix)
    write_convergence_csv(records, cfg.out)
    _status(f"wrote {len(records)} records to {cfg.out}", cfg.out)
    return _study_exit([rec.error for rec in records])


def _study_exit(errors) -> int:
    """Exit 2, naming the failure classes, when no replicate of a study survived."""
    if not all(errors):
        return 0
    classes = ", ".join(sorted({error.split(":", 1)[0] for error in errors}))
    print(f"numeric failure: all {len(errors)} replicates failed ({classes})", file=sys.stderr)
    return 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="heic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[], help="simulate a graph and write an edge list")
    p.add_argument("--link", required=True, help="threshold:TAU or affine:A,B")
    p.add_argument("--d", type=int, required=True, help="ambient dimension of the sphere")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--rho", type=float, default=1.0, help="edge-density scale in (0, 1]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="edge-list output path, or - for stdout")
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
    p.add_argument("--out-gram", required=True, help="dense CSV output path, or - for stdout")
    p.add_argument("--out-diag", help="optional diagnostics CSV path, or - for stdout")
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
        outputs = {"--" + flag.replace("_", "-"): getattr(args, flag, None) for flag in _OUTPUT_FLAGS}
        for name, path in outputs.items():
            _require_output(path, name)
        dashes = [name for name, path in outputs.items() if str(path) == "-"]
        if len(dashes) > 1:
            raise ValidationError(f"{', '.join(dashes)}: only one output can be - (stdout)")
        return args.handler(args)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
