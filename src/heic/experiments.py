"""Seeded, replicable simulation studies with CSV output.

Three studies mirror the synthetic-data evaluation of the estimator:

* MSE study      -- Gram-estimate error versus graph size,
* dimension study -- candidate-dimension scores and the recovery rate,
* convergence study -- matching distance between the observed spectrum and
  the analytic one versus graph size.

Replicates own their entire state: the RNG streams for the latent points
and for the adjacency coin flips are derived by hashing
(base seed, n, replicate), so results are independent of scheduling.
Records are sorted by (n, replicate) before writing, which makes the CSV
output byte-identical across runs and worker counts.  Failures of a single
replicate are recorded as NaN rows instead of aborting the study.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ValidationError
from .estimator import heic
from .harmonics import DEFAULT_K_MAX, analytic_spectrum
from .links import LinkFunction, link_from_spec
from .model import (
    GraphModel,
    gram_population,
    probability_matrix,
    sample_adjacency,
    sample_uniform_sphere,
)
from .spectral import delta_2
from .io import format_float

log = logging.getLogger(__name__)

WORKERS_ENV = "HEIC_WORKERS"

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
        if self.value <= 0:
            raise ValidationError("rho rule constant must be positive")
        if self.kind == "constant" and self.value > 1.0:
            raise ValidationError("constant rho must lie in (0, 1]")

    def rho_for(self, n: int) -> float:
        if self.kind == "constant":
            return self.value
        return min(1.0, self.value * math.log(n) / n)


def rho_rule_from_spec(spec) -> RhoRule:
    if isinstance(spec, RhoRule):
        return spec
    if isinstance(spec, (int, float)):
        return RhoRule(kind="constant", value=float(spec))
    if isinstance(spec, dict):
        kind = str(spec.get("kind", "constant"))
        value = float(spec.get("c", spec.get("value", 0.0)))
        return RhoRule(kind=kind, value=value)
    raise ValidationError(f"cannot interpret rho rule {spec!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One study: link, dimension, rho rule, n grid, replicates, base seed, output."""

    link: LinkFunction
    d: int
    rho: RhoRule
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    out: Optional[Path] = None
    workers: Optional[int] = None
    d_max: int = 15
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("latent dimension must be >= 1")
        if not self.n_grid:
            raise ValidationError("n grid must not be empty")
        if any(n < self.d + 2 for n in self.n_grid):
            raise ValidationError("every n must be at least d + 2")
        if self.replicates < 1:
            raise ValidationError("replicate count must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            link = link_from_spec(raw["link"])
            return cls(
                link=link,
                d=int(raw["d"]),
                rho=rho_rule_from_spec(raw.get("rho", 1.0)),
                n_grid=tuple(int(n) for n in raw["n_grid"]),
                replicates=int(raw["replicates"]),
                seed=int(raw["seed"]),
                out=Path(raw["out"]) if raw.get("out") else None,
                workers=int(raw["workers"]) if raw.get("workers") else None,
                d_max=int(raw.get("d_max", 15)),
                k_max=int(raw.get("k_max", DEFAULT_K_MAX)),
            )
        except KeyError as exc:
            raise ValidationError(f"experiment config is missing key {exc}") from exc

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
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(n), int(replicate)))
    latent, adjacency = ss.generate_state(2, np.uint64)
    return int(latent), int(adjacency)


def worker_count(cfg: ExperimentConfig) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        return max(1, value)
    return max(1, cfg.workers or 1)


def _run_jobs(fn, jobs, workers: int) -> list:
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


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
    """Latent sample, then the sampled adjacency, or Theta itself when not observed."""
    latent_seed, adjacency_seed = replicate_seeds(cfg.seed, n, replicate)
    rho = cfg.rho.rho_for(n)
    sample = sample_uniform_sphere(n, cfg.d, latent_seed)
    theta = probability_matrix(sample, GraphModel(link=cfg.link, sparsity=rho, n=n))
    matrix = sample_adjacency(theta, adjacency_seed) if observed else theta
    return sample, matrix, rho


def _mse_replicate(cfg: ExperimentConfig, n: int, replicate: int) -> MseRecord:
    start = time.perf_counter()
    try:
        sample, adjacency, _ = _simulate_graph(cfg, n, replicate)
        estimate, diag = heic(adjacency, cfg.d)
        # Mean squared entrywise error on the O(1) scale: entries of n*G
        # estimate the latent inner products.
        diff = n * estimate.matrix - n * gram_population(sample)
        mse = float((diff * diff).sum()) / (n * n)
        return MseRecord(
            n=n,
            replicate=replicate,
            mse=mse,
            gap=diag.gap,
            diameter=diag.diameter,
            seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 - studies must survive bad replicates
        log.warning("replicate (n=%d, r=%d) failed: %s", n, replicate, exc)
        return MseRecord(
            n=n,
            replicate=replicate,
            mse=math.nan,
            gap=math.nan,
            diameter=math.nan,
            seconds=time.perf_counter() - start,
            error=str(exc),
        )


def run_mse_study(cfg: ExperimentConfig) -> list[MseRecord]:
    """Gram-estimate error per (n, replicate), sorted deterministically."""
    jobs = [(n, r) for n in cfg.n_grid for r in range(cfg.replicates)]
    records = _run_jobs(lambda job: _mse_replicate(cfg, *job), jobs, worker_count(cfg))
    return sorted(records, key=lambda rec: (rec.n, rec.replicate))


def write_mse_csv(records, path, timing: bool = False) -> None:
    """Write the study CSV.

    Wall-clock timings are volatile, so by default the seconds column is
    written as 0 to keep re-runs byte-identical; pass timing=True to record
    the measured values instead.
    """
    lines = [MSE_CSV_HEADER]
    for rec in records:
        seconds = format_float(rec.seconds) if timing else "0"
        lines.append(
            f"{rec.n},{rec.replicate},{format_float(rec.mse)},{format_float(rec.gap)},"
            f"{format_float(rec.diameter)},{seconds}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class DimensionScoreRecord:
    replicate: int
    candidate_d: int
    score: float


@dataclass(frozen=True)
class DimensionStudyResult:
    records: list[DimensionScoreRecord]
    chosen: list[int]
    recovery_rate: float
    true_d: int
    true_d_outside_candidates: bool


def _dimension_replicate(cfg: ExperimentConfig, n: int, replicate: int):
    from .dimension import estimate_dimension

    try:
        _, adjacency, _ = _simulate_graph(cfg, n, replicate)
        scan = estimate_dimension(adjacency, d_max=cfg.d_max)
        records = [
            DimensionScoreRecord(replicate=replicate, candidate_d=d, score=float(s))
            for d, s in zip(scan.candidates, scan.scores)
        ]
        return records, scan.chosen
    except Exception as exc:  # noqa: BLE001
        log.warning("dimension replicate %d failed: %s", replicate, exc)
        records = [
            DimensionScoreRecord(replicate=replicate, candidate_d=d, score=math.nan)
            for d in range(1, cfg.d_max + 1)
        ]
        return records, None


def run_dimension_study(cfg: ExperimentConfig) -> DimensionStudyResult:
    """Score candidates 1 .. d_max per replicate at the single grid size."""
    if len(cfg.n_grid) != 1:
        raise ValidationError("dimension study wants exactly one n in the grid")
    n = cfg.n_grid[0]
    jobs = list(range(cfg.replicates))
    results = _run_jobs(lambda r: _dimension_replicate(cfg, n, r), jobs, worker_count(cfg))
    results.sort(key=lambda pair: pair[0][0].replicate)
    records = [rec for pair in results for rec in pair[0]]
    chosen = [pair[1] for pair in results]
    hits = sum(1 for c in chosen if c == cfg.d)
    return DimensionStudyResult(
        records=records,
        chosen=chosen,
        recovery_rate=hits / len(chosen),
        true_d=cfg.d,
        true_d_outside_candidates=cfg.d > cfg.d_max,
    )


def write_dimension_csv(result: DimensionStudyResult, path) -> None:
    """Per-replicate score rows plus a trailing summary row with the recovery rate."""
    lines = [DIMENSION_CSV_HEADER]
    for rec in result.records:
        lines.append(f"{rec.replicate},{rec.candidate_d},{format_float(rec.score)}")
    lines.append(f"summary,{result.true_d},{format_float(result.recovery_rate)}")
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    replicate: int
    delta2: float
    error: Optional[str] = None


def _convergence_replicate(cfg, n, replicate, reference, matrix) -> ConvergenceRecord:
    try:
        _, m, rho = _simulate_graph(cfg, n, replicate, observed=matrix == "observed")
        spectrum = np.linalg.eigvalsh(m / (n * rho))
        return ConvergenceRecord(n=n, replicate=replicate, delta2=delta_2(spectrum, reference))
    except Exception as exc:  # noqa: BLE001
        log.warning("convergence replicate (n=%d, r=%d) failed: %s", n, replicate, exc)
        return ConvergenceRecord(n=n, replicate=replicate, delta2=math.nan, error=str(exc))


def run_spectrum_convergence(
    cfg: ExperimentConfig, k_max: Optional[int] = None, matrix: str = "observed"
) -> list[ConvergenceRecord]:
    """Matching distance between simulated and analytic spectra per replicate.

    matrix="observed" rescales the sampled adjacency (the default surface);
    matrix="noiseless" uses the probability matrix instead, the quantity
    whose convergence the spectral theory actually controls.  For threshold
    links at rho=1 the two coincide (the adjacency equals the probability
    matrix); for smooth links the observed spectrum carries a Bernoulli
    noise floor of about sqrt(mean Theta(1-Theta)) that does not vanish
    with n.
    """
    if matrix not in ("observed", "noiseless"):
        raise ValidationError(f"matrix must be 'observed' or 'noiseless', got {matrix!r}")
    reference = analytic_spectrum(cfg.link, cfg.d, k_max or cfg.k_max).flattened()
    jobs = [(n, r) for n in cfg.n_grid for r in range(cfg.replicates)]
    records = _run_jobs(
        lambda job: _convergence_replicate(cfg, job[0], job[1], reference, matrix),
        jobs,
        worker_count(cfg),
    )
    return sorted(records, key=lambda rec: (rec.n, rec.replicate))


def write_convergence_csv(records, path) -> None:
    lines = [CONVERGENCE_CSV_HEADER]
    for rec in records:
        lines.append(f"{rec.n},{rec.replicate},{format_float(rec.delta2)}")
    Path(path).write_text("\n".join(lines) + "\n")
