"""Seeded, replicable simulation studies with CSV output.

Three studies mirror the synthetic-data evaluation of the estimator:

* MSE study      -- Gram-estimate error versus graph size,
* dimension study -- candidate-dimension scores and the recovery rate,
* convergence study -- matching distance between the observed spectrum and
  the analytic one versus graph size.

Replicates own their entire state: the RNG streams for the latent points
and for the adjacency coin flips are derived by hashing
(base seed, n, replicate), so results are independent of run order.
One runner executes every study in sorted (n, replicate) order, which
makes the CSV output byte-identical across runs on one machine at one BLAS
thread count.  A replicate that raises
becomes a NaN row whose error names the exception, but for MemoryError,
which stops the study.  A config whose grid holds an n too large for the
memory limit of the process (model.require_memory: physical memory,
RLIMIT_AS or the cgroup's limit) is refused before any replicate runs.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ValidationError, require_integer, require_real
from .estimator import DEFAULT_D_MAX, estimate_dimension, heic
from .harmonics import DEFAULT_K_MAX, analytic_spectrum
from .links import LinkFunction, link_from_spec
from .model import GraphModel, probability_matrix, require_memory, sample_model_adjacency, sample_uniform_sphere
from .spectral import delta_2, reduce
from .io import write_table

log = logging.getLogger(__name__)

MSE_CSV_HEADER = "n,replicate,mse,gap,diameter,seconds"
DIMENSION_CSV_HEADER = "replicate,candidate_d,score"
CONVERGENCE_CSV_HEADER = "n,replicate,delta2"


@dataclass(frozen=True)
class RhoRule:
    """Edge-density scale: a constant, or c * log(n) / n capped at 1."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("constant", "log"):
            raise ValidationError(f"unknown rho rule {self.kind!r}")
        object.__setattr__(self, "value", require_real(self.value, "rho rule constant"))
        if not self.value > 0:  # also rejects NaN
            raise ValidationError("rho rule constant must be positive")
        if self.kind == "constant" and self.value > 1.0:
            raise ValidationError("constant rho must lie in (0, 1]")

    def rho_for(self, n: int) -> float:
        if self.kind == "constant":
            return self.value
        return min(1.0, self.value * math.log(n) / n)


def rho_rule_from_spec(spec) -> RhoRule:
    """A RhoRule as it is; a number is a constant rule; a dict gives the constant "c" and the "kind"."""
    if isinstance(spec, RhoRule):
        return spec
    kind, c = "constant", spec
    if isinstance(spec, dict):
        if "c" not in spec:
            raise ValidationError(f"rho rule {spec!r} is missing 'c'")
        unknown = sorted(set(spec) - {"kind", "c"})
        if unknown:
            raise ValidationError(f"rho rule has unknown keys {unknown}")
        kind, c = str(spec.get("kind", "constant")), spec["c"]
    return RhoRule(kind=kind, value=c)


@dataclass(frozen=True)
class ExperimentConfig:
    """One study: link, dimension, n grid, replicates, base seed, rho rule, output.

    Built in Python or by from_dict from the same values, checked alike: link is a LinkFunction or a
    link_from_spec spec; rho a RhoRule, or a number or dict for rho_rule_from_spec; n_grid a list or a
    tuple of integers, kept as a tuple; out None, a str or a Path, kept as a Path ("" is None).
    """

    link: LinkFunction
    d: int
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    rho: RhoRule = RhoRule(kind="constant", value=1.0)
    out: Optional[Path] = None
    d_max: int = DEFAULT_D_MAX
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        object.__setattr__(self, "link", link_from_spec(self.link))
        object.__setattr__(self, "rho", rho_rule_from_spec(self.rho))
        if not isinstance(self.n_grid, (list, tuple)):
            raise ValidationError(
                f"experiment config key 'n_grid' must be a list of integers, got {self.n_grid!r}"
            )
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        if self.out is not None and not isinstance(self.out, (str, Path)):
            raise ValidationError(f"experiment config key 'out' must be a path, got {self.out!r}")
        object.__setattr__(self, "out", Path(self.out) if self.out else None)
        d = require_integer(self.d, "d (latent dimension of the sphere S^(d-1))", 2)
        require_integer(self.d_max, "d_max", 1)
        require_integer(self.k_max, "k_max", 1)
        if not self.n_grid:
            raise ValidationError("n grid must not be empty")
        for n in self.n_grid:
            require_memory(require_integer(n, "n_grid", d + 2), "experiment config n_grid")
        repeated = sorted({n for n in self.n_grid if self.n_grid.count(n) > 1})
        if repeated:
            raise ValidationError(f"n grid repeats {repeated}")
        require_integer(self.replicates, "replicates", 1)
        require_integer(self.seed, "seed", 0)

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Build a config from JSON values; an absent key takes its field default."""
        if not isinstance(raw, dict):
            raise ValidationError(f"experiment config must be a JSON object, got {raw!r}")
        unknown = sorted(set(raw) - {field.name for field in fields(cls)})
        if unknown:
            raise ValidationError(f"experiment config has unknown keys {unknown}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ValidationError(f"experiment config is missing keys {missing}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw)


def replicate_seeds(base_seed: int, n: int, replicate: int) -> tuple[int, int]:
    """Derive the (latent, adjacency) RNG seeds for one replicate.

    Hashing the triple through a seed sequence keeps streams independent of
    scheduling order and of each other.
    """
    arguments = (("base_seed", base_seed), ("n", n), ("replicate", replicate))
    ss = np.random.SeedSequence(entropy=tuple(require_integer(value, name, 0) for name, value in arguments))
    latent, adjacency = ss.generate_state(2, np.uint64)
    return int(latent), int(adjacency)


def _run_replicates(cfg: ExperimentConfig, compute, failed) -> list:
    """compute(n, replicate) for every job of the study, in sorted (n, replicate) order.

    A replicate that raises is logged and replaced by
    failed(n, replicate, error), where error is "<exception class>: <message>".
    MemoryError stops the study instead: the machine is too small for it, and
    the CLI exits 1 on it.
    """

    def run(n: int, replicate: int):
        try:
            return compute(n, replicate)
        except MemoryError:
            raise
        except Exception as exc:  # noqa: BLE001 - studies must survive bad replicates
            log.warning("replicate (n=%d, r=%d) failed", n, replicate, exc_info=True)
            return failed(n, replicate, f"{type(exc).__name__}: {exc}")

    jobs = sorted((n, r) for n in cfg.n_grid for r in range(cfg.replicates))
    return [run(n, r) for n, r in jobs]


@dataclass(frozen=True)
class MseRecord:
    n: int
    replicate: int
    mse: float
    gap: float
    diameter: float
    seconds: float
    error: Optional[str] = None


def _simulate_graph(cfg: ExperimentConfig, n: int, replicate: int, observed: bool = True):
    """Latent sample, then the sampled uint8 adjacency, or Theta itself when not observed."""
    latent_seed, adjacency_seed = replicate_seeds(cfg.seed, n, replicate)
    rho = cfg.rho.rho_for(n)
    sample = sample_uniform_sphere(n, cfg.d, latent_seed)
    model = GraphModel(link=cfg.link, sparsity=rho, n=n)
    if observed:
        return sample, sample_model_adjacency(sample, model, adjacency_seed), rho
    return sample, probability_matrix(sample, model), rho


def run_mse_study(cfg: ExperimentConfig) -> list[MseRecord]:
    """Gram-estimate error per (n, replicate), sorted deterministically."""

    def replicate(n: int, r: int) -> MseRecord:
        start = time.perf_counter()
        sample, adjacency, _ = _simulate_graph(cfg, n, r)
        estimate, diag = heic(adjacency, cfg.d)
        # The mean squared entrywise error of n (1/d) V V^T against the
        # latent inner products X X^T, which is ||V V^T/d - X X^T/n||_F^2,
        # from d x d products alone: the trace identity
        # tr((V^T V)^2)/d^2 - 2 ||V^T X||_F^2/(d n) + ||X^T X||_F^2/n^2
        # builds no n x n array.
        v, x, d = estimate.vectors, sample.points, cfg.d
        vv, vx, xx = v.T @ v, v.T @ x, x.T @ x
        mse = float(np.sum(vv * vv) / d**2 - 2.0 * np.sum(vx * vx) / (d * n) + np.sum(xx * xx) / n**2)
        return MseRecord(n, r, mse, diag.gap, diag.diameter, time.perf_counter() - start)

    nan = math.nan
    return _run_replicates(
        cfg, replicate, lambda n, r, error: MseRecord(n, r, nan, nan, nan, nan, error)
    )


def write_mse_csv(records, path, timing: bool = False) -> None:
    """Write the study CSV.

    Wall-clock timings are volatile, so by default the seconds column is
    written as 0 to keep re-runs byte-identical; pass timing=True to record
    the measured values instead.
    """
    rows = [
        (rec.n, rec.replicate, rec.mse, rec.gap, rec.diameter, rec.seconds if timing else 0)
        for rec in records
    ]
    write_table(path, MSE_CSV_HEADER, rows)


@dataclass(frozen=True)
class DimensionScoreRecord:
    replicate: int
    candidate_d: int
    score: float


@dataclass(frozen=True)
class DimensionStudyResult:
    records: list[DimensionScoreRecord]
    chosen: list[Optional[int]]
    recovery_rate: float
    true_d: int
    errors: list[Optional[str]]


def run_dimension_study(cfg: ExperimentConfig) -> DimensionStudyResult:
    """Score candidates 1 .. d_max per replicate at the single grid size."""
    if len(cfg.n_grid) != 1:
        raise ValidationError("dimension study wants exactly one n in the grid")
    if cfg.n_grid[0] < cfg.d_max + 2:
        raise ValidationError(f"dimension study needs n >= d_max + 2 = {cfg.d_max + 2}")

    def replicate(n: int, r: int):
        scan = estimate_dimension(_simulate_graph(cfg, n, r)[1], d_max=cfg.d_max)
        return scan.scores, scan.chosen, None

    results = _run_replicates(
        cfg, replicate, lambda n, r, error: (np.full(cfg.d_max, math.nan), None, error)
    )
    records = [
        DimensionScoreRecord(replicate=r, candidate_d=d, score=float(s))
        for r, (scores, _, _) in enumerate(results)
        for d, s in enumerate(scores, start=1)
    ]
    chosen = [c for _, c, _ in results]
    return DimensionStudyResult(
        records=records,
        chosen=chosen,
        recovery_rate=chosen.count(cfg.d) / len(chosen),
        true_d=cfg.d,
        errors=[error for _, _, error in results],
    )


def write_dimension_csv(result: DimensionStudyResult, path) -> None:
    """Per-replicate score rows plus a trailing summary row with the recovery rate."""
    rows = [(rec.replicate, rec.candidate_d, rec.score) for rec in result.records]
    rows.append(("summary", result.true_d, result.recovery_rate))
    write_table(path, DIMENSION_CSV_HEADER, rows)


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    replicate: int
    delta2: float
    error: Optional[str] = None


def run_spectrum_convergence(
    cfg: ExperimentConfig, matrix: str = "observed"
) -> list[ConvergenceRecord]:
    """Matching distance between simulated and analytic spectra per replicate.

    matrix="observed" rescales the sampled adjacency (the default surface);
    matrix="noiseless" uses the probability matrix instead, the quantity
    whose convergence the spectral theory actually controls.  For threshold
    links at rho=1 the two coincide (the adjacency equals the probability
    matrix); for smooth links the observed spectrum carries a Bernoulli
    noise floor of about sqrt(mean Theta(1-Theta)) that does not vanish
    with n.

    A replicate holds one n x n float64 array (8 n^2 bytes: A/(n rho), or
    Theta divided in place) beside the n^2-byte uint8 adjacency of the
    observed mode, and frees it before matching the spectra.  A grid whose n
    would need more memory than the process's limit (about 13 n^2 bytes,
    model.require_memory) is refused when the config is built.
    """
    if matrix not in ("observed", "noiseless"):
        raise ValidationError(f"matrix must be 'observed' or 'noiseless', got {matrix!r}")
    reference = analytic_spectrum(cfg.link, cfg.d, cfg.k_max).flattened()

    def replicate(n: int, r: int) -> ConvergenceRecord:
        observed = matrix == "observed"
        _, m, rho = _simulate_graph(cfg, n, r, observed)
        # Theta is divided where it lies; the uint8 adjacency needs a float64 copy.
        m = np.divide(m, n * rho, out=None if observed else m)
        values = reduce(m).values
        # reduce's result, which holds the n x n buffer as its reflectors, is
        # already dropped; deleting m frees the buffer before delta_2 builds
        # its three (n + R)-entry buffers, so the two peaks do not add up.
        del m
        return ConvergenceRecord(n, r, delta_2(values, reference))

    return _run_replicates(
        cfg, replicate, lambda n, r, error: ConvergenceRecord(n, r, math.nan, error)
    )


def write_convergence_csv(records, path) -> None:
    rows = [(rec.n, rec.replicate, rec.delta2) for rec in records]
    write_table(path, CONVERGENCE_CSV_HEADER, rows)
