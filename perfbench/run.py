#!/usr/bin/env python3
"""heic benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload dense-n3000 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds ``src/heic``; nothing needs to
be built or installed.  Workloads: ``dense-n3000``, ``sparse-n3000-cli`` and
``studies-small`` (see perfbench/README.md for why each exists).  With
``--trace 0`` the last line of standard output is a JSON object with every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries every
per-layer metric instead, and the spans are written to
``.bench_build/perfbench/traces/``.  The line before it describes the
environment.  Exit status: 0 when every output check passed, 1 when one
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import environment
import gen
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

D = 3
D_MAX = 15
SETUP_PROBES = 7
ANALYTIC_REPEATS = 5

# Graph workloads: threshold(0) on S^2, n = 3000, a pool of graphs that the
# timed loop walks through at least once.  A traced run needs fewer.
GRAPH_N = 3000
GRAPH_POOL = 3
TRACED_POOL = 2
GRAPH_LINK = "threshold:0"
GRAPH_K_MAX = 25


@dataclass(frozen=True)
class GraphWorkload:
    rho: float
    cli: bool  # each command re-reads the graph from an edge list
    gram_gate: float  # above every Gram error seen: about 0.04 dense, 0.50 sparse
    event_e: bool  # whether the cluster-quality event E must hold


GRAPH_WORKLOADS = {
    "dense-n3000": GraphWorkload(1.0, cli=False, gram_gate=0.1, event_e=True),
    # rho = 8 ln n / n.  The observed gap (~0.002) is below rho * gap1 / 2
    # (~0.0023), so event E is false by construction here, not by a fault.
    "sparse-n3000-cli": GraphWorkload(
        8 * math.log(GRAPH_N) / GRAPH_N, cli=True, gram_gate=0.6, event_e=False
    ),
}

# studies-small: one round runs the three studies once with these settings.
STUDY_N_GRID = [200, 500, 1000]
STUDY_REPLICATES = {"mse": 2, "dim": 4, "conv": 2}
STUDY_LINK = "affine:0.5,0.5"
STUDY_K_MAX = 300
STUDY_GRAM_GATE = 0.35
# Rounds whose outputs are checked in full and give the quality metrics;
# 16 delta2 values at n=1000 have a median that varies by about 2% across seeds.
QUALITY_ROUNDS = 8


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(link: str, k_max: int) -> float:
    """Median over fresh interpreters of import + link + analytic spectrum."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, str(HERE / "probe_setup.py"), link, str(k_max)]
    values = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=120)
        if i:  # the first probe also compiles bytecode; it is not counted
            values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


class Run:
    """What a workload measured and found."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def check(self, what: str, problems: list[str], count: int = 1) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(f"{what}: {p}" for p in problems)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


# ---------------------------------------------------------------- graph workloads


def make_graphs(n: int, rho: float, seed: int, count: int, cli: bool, work: Path) -> None:
    """Generate the inputs in a separate process, so their buffers never count here."""
    cmd = [
        sys.executable, str(HERE / "gen.py"), "--n", str(n), "--rho", repr(rho),
        "--seed", str(seed), "--count", str(count), "--out", str(work),
    ]
    subprocess.run(cmd + (["--edge-list"] if cli else []), check=True, timeout=900)


def graph_source(cli: bool, work: Path, g: int):
    """What a command is given: the adjacency in memory, or a reader of the edge list."""
    from heic import io

    if cli:
        path = work / f"g{g}.edges"
        return lambda: io.read_edge_list(path)
    adj = np.load(work / f"g{g}_adj.npy").astype(float)
    return lambda: adj


def check_graph(run: Run, wl: GraphWorkload, g: int, data, scan, diag, estimate, analytic) -> None:
    spectrum = data["spectrum"]
    err = checks.gram_error(estimate.matrix, data["x"])
    run.check(f"graph {g}", checks.graph_problems(
        spectrum=spectrum, scan=scan, diag=diag, gram_err=err, gram_gate=wl.gram_gate,
        d=D, d_max=D_MAX, start=GRAPH_N - D, event_e=wl.event_e,
    ))
    run.add("estimator.gram_err", err)
    run.add("gram_err_ratio", err / float(data["exact_err"]))
    run.add("dim_recovery", float(scan.chosen == D))
    run.add("delta2", checks.matching_distance(spectrum / wl.rho, analytic.flattened()))
    run.add("model.edges", int(data["edges"]))


def check_analytic(run: Run, analytic) -> None:
    """The library's threshold(0) levels against their closed form (quadrature tol 1e-10)."""
    error = float(np.abs(analytic.eigenvalues() - checks.threshold_spectrum(analytic.k_max)).max())
    run.check("analytic spectrum", [f"levels off by {error:.3g}"] if error > 1e-8 else [])


def graph_workload(wl: GraphWorkload, seed: int, seconds: float, work: Path, tr) -> Run:
    pool = TRACED_POOL if tr else GRAPH_POOL
    make_graphs(GRAPH_N, wl.rho, seed, pool, wl.cli, work)
    import heic

    run = Run()
    link = heic.link_from_spec(GRAPH_LINK)
    analytic = heic.analytic_spectrum(link, D, GRAPH_K_MAX)
    check_analytic(run, analytic)
    gap = heic.gap1_analytic(analytic)
    start = time.perf_counter()
    i = 0
    # A traced graph costs about twice an untraced one, so one pass is not required.
    while i < (1 if tr else pool) or time.perf_counter() - start < seconds:
        g = i % pool
        if tr:
            tr.graph = g
        source = graph_source(wl.cli, work, g)
        try:
            if tr:
                scan, diag, estimate = traced_graph(
                    tr, run, heic, source, wl.cli, wl.rho, gap, analytic.flattened(), first=i == 0
                )
            else:
                t0 = time.perf_counter()
                scan = heic.estimate_dimension(source(), d_max=D_MAX)
                t1 = time.perf_counter()
                estimate, diag = heic.heic(source(), D, rho=wl.rho, analytic_gap=gap)
                t2 = time.perf_counter()
                run.add("dimension_s", t1 - t0)
                run.add("estimate_s", t2 - t1)
        except Exception as exc:  # noqa: BLE001 - a failing graph is counted, not fatal
            run.check(f"graph {g}", [f"{type(exc).__name__}: {exc}"])
            i += 1
            continue
        if i < pool:
            check_graph(run, wl, g, np.load(work / f"g{g}.npz"), scan, diag, estimate, analytic)
        del estimate, source
        i += 1
    if not tr:
        run.values["peak_rss_mb"] = peak_rss_mb()
        busy = sum(run.samples["dimension_s"]) + sum(run.samples["estimate_s"])
        run.values["replicates_per_s"] = len(run.samples["estimate_s"]) / busy
        return run

    # Layers the timed commands do not reach, at this workload's size.
    tr.graph = None
    spec = {"link": GRAPH_LINK, "d": D, "rho": wl.rho, "n_grid": [GRAPH_N], "seed": seed}
    sample_graph(tr, heic, spec, GRAPH_N)
    if wl.cli:
        run.values["io.edge_list_bytes"] = (work / "g0.edges").stat().st_size
    else:
        edge_list_round_trip(tr, run, work / "g0_adj.npy", work / "roundtrip.edges")
    results = studies_round(tr, run, heic, {
        "mse": {**spec, "replicates": 1},
        "dim": {**spec, "replicates": 1, "d_max": D_MAX},
        "conv": {**spec, "replicates": 1, "k_max": GRAPH_K_MAX},
    }, work)
    check_studies(run, heic, results, full=False)
    analytic_repeats(tr, heic, link, GRAPH_K_MAX)
    return run


# ---------------------------------------------------------------- traced stages


def traced_graph(tr: Tracer, run: Run, heic, source, cli: bool, rho: float, gap: float, reference, first: bool):
    """Both commands under spans, then the same work replayed stage by stage."""
    from heic.model import require_symmetric

    if first:
        run.values["mem.pre_analysis_rss_mb"] = rss_mb()
    with tr.span("command.dimension"):
        scan = heic.estimate_dimension(source(), d_max=D_MAX)
    with tr.span("command.estimate"):
        estimate, diag = heic.heic(source(), D, rho=rho, analytic_gap=gap)
    if first:
        n = estimate.matrix.shape[0]
        run.values["mem.peak_rss_mb"] = peak_rss_mb()
        run.values["mem.nxn_live_peak"] = (
            (run.values["mem.peak_rss_mb"] - run.values["mem.pre_analysis_rss_mb"]) * 2**20 / (8.0 * n * n)
        )
        t0 = time.perf_counter()
        heic.heic(source(), D, rho=rho, analytic_gap=gap)
        run.values["trace.overhead_s"] = tr.durations("command.estimate")[-1] - (time.perf_counter() - t0)

    replayed = []

    def stage(name, fn, *args):
        with tr.span(name):
            out = fn(*args)
        replayed.append(tr.durations(name)[-1])
        run.add(f"mem.rss_after_{name.split('.')[-1]}_mb", rss_mb())
        return out

    with tr.span("replay.heic"):
        if cli:
            with tr.span("io.read_edge_list"):
                adj = source()
        else:
            adj = source()
        adj = stage("model.require_symmetric", require_symmetric, adj, "adjacency")
        m = stage("spectral.normalize_adjacency", heic.normalize_adjacency, adj)
        spec = stage("spectral.symmetric_eig", heic.symmetric_eig, m)
        del m
        cluster = stage("estimator.find_cluster", heic.find_cluster, spec, D)
        stage("estimator.gram_estimate", heic.gram_estimate, spec, cluster)
        stage("estimator.event_e_check", heic.event_e_check, spec, cluster, gap, rho)
        stage("model.edge_density", heic.edge_density, adj)
    del adj
    with tr.span("dimension.scan_spectrum"):
        heic.scan_spectrum(spec, range(1, D_MAX + 1))
    with tr.span("spectral.delta_2"):
        heic.delta_2(spec.values / rho, reference)

    last = {name: tr.durations(name)[-1] for name in (
        "command.dimension", "command.estimate", "dimension.scan_spectrum",
        "spectral.normalize_adjacency", "spectral.symmetric_eig",
    )}
    read = tr.durations("io.read_edge_list")[-1] if cli else 0.0
    run.add("trace.estimate_s", last["command.estimate"])
    run.add("estimator.heic_unattributed_s", last["command.estimate"] - read - sum(replayed))
    run.add("dimension.unattributed_s", last["command.dimension"] - read - last["spectral.normalize_adjacency"]
            - last["spectral.symmetric_eig"] - last["dimension.scan_spectrum"])
    _, best, runner = checks.cluster(spec.values, D)
    run.add("estimator.gap", best)
    run.add("estimator.runner_up_gap", runner)
    return scan, diag, estimate


def sample_graph(tr: Tracer, heic, spec: dict, n: int) -> None:
    """The library's own sampler, stage by stage, for replicate 0 of `spec` at size n."""
    cfg = heic.ExperimentConfig.from_dict({**spec, "replicates": 1})
    latent_seed, adjacency_seed = heic.replicate_seeds(cfg.seed, n, 0)
    model = heic.GraphModel(link=cfg.link, sparsity=cfg.rho.rho_for(n), n=n)
    with tr.span("model.sample_uniform_sphere"):
        sample = heic.sample_uniform_sphere(n, D, latent_seed)
    with tr.span("model.inner_products"):
        t = heic.inner_products(sample)
    with tr.span("links.eval"):
        cfg.link(t)
    del t
    with tr.span("model.probability_matrix"):
        theta = heic.probability_matrix(sample, model)
    with tr.span("model.sample_adjacency"):
        heic.sample_adjacency(theta, adjacency_seed)


def edge_list_round_trip(tr: Tracer, run: Run, adjacency_npy: Path, path: Path) -> None:
    from heic import io

    upper = np.triu(np.load(adjacency_npy), k=1).astype(bool)
    run.values["io.edge_list_bytes"] = gen.write_edge_list(path, upper)
    del upper
    with tr.span("io.read_edge_list"):
        io.read_edge_list(path)
    path.unlink()


def analytic_repeats(tr: Tracer, heic, link, k_max: int) -> None:
    for _ in range(ANALYTIC_REPEATS):
        with tr.span("harmonics.analytic_spectrum"):
            heic.analytic_spectrum(link, D, k_max)


# ---------------------------------------------------------------- studies


def studies_round(timer, run: Run, heic, configs: dict, out: Path) -> dict:
    """The three study commands, each config -> run -> CSV, as the CLI does them.

    `timer` is a Tracer, or None to time each command with the clock alone.
    The CSVs go to `out`, which must be a fresh directory per round.
    """
    from heic import experiments as ex

    span = timer.span if timer else lambda _: contextlib.nullcontext()
    commands = {
        "mse": (ex.run_mse_study, ex.write_mse_csv),
        "dim": (ex.run_dimension_study, ex.write_dimension_csv),
        "conv": (lambda cfg: ex.run_spectrum_convergence(cfg, matrix="noiseless"), ex.write_convergence_csv),
    }
    results = {}
    for name, (study, write) in commands.items():
        raw = {**configs[name], "out": str(out / f"{name}.csv")}
        t0 = time.perf_counter()
        with span(f"experiments.{name}_study"):
            cfg = heic.ExperimentConfig.from_dict(raw)
            result = study(cfg)
        with span("experiments.csv_write"):
            write(result, cfg.out)
        run.add(f"{name}_command_s", time.perf_counter() - t0)
        results[name] = (cfg, result)
    replicates = sum(len(c.n_grid) * c.replicates for c, _ in results.values())
    run.add("replicates", replicates)
    return results


def regenerate(heic, cfg, n: int, replicate: int):
    """The graph and latent points a study replicate used, through the public sampler."""
    latent_seed, adjacency_seed = heic.replicate_seeds(cfg.seed, n, replicate)
    sample = heic.sample_uniform_sphere(n, cfg.d, latent_seed)
    theta = heic.probability_matrix(sample, heic.GraphModel(cfg.link, cfg.rho.rho_for(n), n))
    return sample.points, heic.sample_adjacency(theta, adjacency_seed)


def check_studies(run: Run, heic, results: dict, full: bool) -> None:
    """Row counts and NaN rows always; with `full`, every estimate against its graph's eigenvalues."""
    from heic import experiments as ex

    (mse_cfg, mse), (dim_cfg, dim), (conv_cfg, conv) = results["mse"], results["dim"], results["conv"]
    n_max = max(mse_cfg.n_grid)
    for rec in mse:
        problems = checks.csv_problems(mse_cfg.out, ex.MSE_CSV_HEADER, len(mse)) if rec is mse[0] else []
        if rec.error or not math.isfinite(rec.mse):
            problems.append(f"failed: {rec.error}")
        elif full:
            x, adj = regenerate(heic, mse_cfg, rec.n, rec.replicate)
            values, vectors = np.linalg.eigh(adj / rec.n)
            spectrum, vectors = values[::-1], vectors[:, ::-1]
            start, gap, _ = checks.cluster(spectrum, D)
            if start != rec.n - D or abs(gap - rec.gap) > checks.SCORE_TOL:
                problems.append(f"cluster start {start}, gap {rec.gap!r} vs {gap!r} at n={rec.n}")
            err = math.sqrt(rec.mse) / checks.gram_norm(x)
            if not err < STUDY_GRAM_GATE:
                problems.append(f"gram error {err:.4g} not under {STUDY_GRAM_GATE}")
            if rec.n == n_max:
                run.add("estimator.gram_err", err)
                run.add("gram_err_ratio", err / checks.projector_gram_error(vectors[:, start : start + D], x))
        run.check(f"mse n={rec.n} r={rec.replicate}", problems)

    n_dim = dim_cfg.n_grid[0]
    for r, chosen in enumerate(dim.chosen):
        problems = checks.csv_problems(dim_cfg.out, ex.DIMENSION_CSV_HEADER, len(dim.records) + 1) if r == 0 else []
        if chosen != D:
            problems.append(f"chosen dimension {chosen}, expected {D}")
        if full:
            _, adj = regenerate(heic, dim_cfg, n_dim, r)
            values = np.linalg.eigvalsh(adj / n_dim)
            start, _, _ = checks.cluster(values, D)
            scores = np.array([rec.score for rec in dim.records if rec.replicate == r])
            if start != 1 or np.max(np.abs(scores - checks.scan_scores(values, dim_cfg.d_max))) > checks.SCORE_TOL:
                problems.append(f"affine cluster start {start} or scores differ from the eigenvalue scan")
            run.add("dim_recovery", float(chosen == D))
        run.check(f"dim r={r}", problems)

    for rec in conv:
        problems = checks.csv_problems(conv_cfg.out, ex.CONVERGENCE_CSV_HEADER, len(conv)) if rec is conv[0] else []
        if rec.error or not math.isfinite(rec.delta2):
            problems.append(f"failed: {rec.error}")
        elif full and rec.n == max(conv_cfg.n_grid):
            run.add("delta2", rec.delta2)
        run.check(f"conv n={rec.n} r={rec.replicate}", problems)


def study_configs(seed: int, r: int) -> dict:
    round_seed = int(np.random.SeedSequence((seed, r)).generate_state(1)[0])
    common = {"d": D, "rho": 1.0, "seed": round_seed}
    return {
        "mse": {**common, "link": GRAPH_LINK, "n_grid": STUDY_N_GRID, "replicates": STUDY_REPLICATES["mse"]},
        "dim": {**common, "link": STUDY_LINK, "n_grid": [500], "replicates": STUDY_REPLICATES["dim"],
                "d_max": D_MAX},
        "conv": {**common, "link": STUDY_LINK, "n_grid": STUDY_N_GRID, "replicates": STUDY_REPLICATES["conv"],
                 "k_max": STUDY_K_MAX},
    }


def studies_workload(seed: int, seconds: float, work: Path, tr) -> Run:
    run = Run()
    if tr:
        # One threshold(0) graph at the largest study size goes through the
        # stage replay first, so its memory figures see no earlier peak.
        n = max(STUDY_N_GRID)
        make_graphs(n, 1.0, seed, 1, False, work)
        import heic

        analytic = heic.analytic_spectrum(heic.link_from_spec(GRAPH_LINK), D, GRAPH_K_MAX)
        traced_graph(tr, run, heic, graph_source(False, work, 0), False, 1.0,
                     heic.gap1_analytic(analytic), analytic.flattened(), first=True)
        run.values["model.edges"] = int(np.load(work / "g0.npz")["edges"])
        sample_graph(tr, heic, study_configs(seed, 0)["mse"], n)
        edge_list_round_trip(tr, run, work / "g0_adj.npy", work / "roundtrip.edges")
        analytic_repeats(tr, heic, heic.link_from_spec(STUDY_LINK), STUDY_K_MAX)
    import heic

    start = time.perf_counter()
    rounds = []
    while len(rounds) < (1 if tr else QUALITY_ROUNDS) or time.perf_counter() - start < seconds:
        r = len(rounds)
        if tr:
            tr.graph = r
        configs = study_configs(seed, r)
        (work / f"round{r}").mkdir()
        try:
            rounds.append(studies_round(tr, run, heic, configs, work / f"round{r}"))
        except Exception as exc:  # noqa: BLE001 - a failing round is counted, not fatal
            count = sum(len(c["n_grid"]) * c["replicates"] for c in configs.values())
            run.check(f"round {r}", [f"{type(exc).__name__}: {exc}"], count)
            rounds.append(None)
    if not tr:
        run.values["peak_rss_mb"] = peak_rss_mb()
        busy = sum(sum(run.samples[f"{k}_command_s"]) for k in STUDY_REPLICATES)
        run.values["replicates_per_s"] = sum(run.samples["replicates"]) / busy
    # Checked after the peak RSS is read: the full checks solve eigenproblems too.
    for r, results in enumerate(rounds):
        if results:
            check_studies(run, heic, results, full=r < QUALITY_ROUNDS)
    return run


# ---------------------------------------------------------------- metrics


def end_to_end(run: Run, setup_s: float, graphs: bool) -> dict:
    return {
        "setup_s": setup_s,
        "estimate_s": run.median("estimate_s" if graphs else "mse_command_s"),
        "dimension_s": run.median("dimension_s" if graphs else "dim_command_s"),
        "replicates_per_s": run.values["replicates_per_s"],
        "peak_rss_mb": run.values["peak_rss_mb"],
        "gram_err_ratio": run.median("gram_err_ratio"),
        "dim_recovery": statistics.fmean(run.samples["dim_recovery"]),
        "delta2": run.median("delta2"),
    }


def per_layer(run: Run, tr: Tracer) -> dict:
    """Means of self times and samples over the run's graphs or rounds.

    Means keep per-graph identities: the replayed stages plus the residual
    equal the traced command for the reported values too.
    """
    out = dict(run.values)
    for name, values in run.samples.items():
        if name.startswith(("mem.", "estimator.", "dimension.", "trace.", "model.")):
            out[name] = statistics.fmean(values)
    layers = ("model", "links", "spectral", "estimator", "dimension", "harmonics", "io", "experiments")
    for name, values in tr.self_times().items():
        if name.split(".")[0] in layers:
            out.setdefault(f"{name}_s", statistics.fmean(values))
    writes: dict = {}
    for name, begin, end, _, graph in tr.spans:
        if name == "experiments.csv_write":
            writes[graph] = writes.get(graph, 0.0) + end - begin
    out["experiments.csv_write_s"] = statistics.fmean(writes.values())
    out["experiments.replicates"] = sum(run.samples["replicates"])
    out["experiments.failed_replicates"] = run.failed
    out["trace.spans"] = len(tr.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GRAPH_WORKLOADS, "studies-small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heic" / "__init__.py").is_file():
        print(f"perfbench: no heic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    heic_workers = os.environ.pop("HEIC_WORKERS", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = environment.describe(ROOT, SRC, heic_workers)
    graphs = args.workload in GRAPH_WORKLOADS
    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(*((GRAPH_LINK, GRAPH_K_MAX) if graphs else (STUDY_LINK, STUDY_K_MAX)))
    tr = Tracer() if args.trace else None
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if graphs:
            run = graph_workload(GRAPH_WORKLOADS[args.workload], args.seed, args.seconds, work, tr)
        else:
            run = studies_workload(args.seed, args.seconds, work, tr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = per_layer(run, tr) if tr else end_to_end(run, setup_s, graphs)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    if tr:
        tr.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", {"env": env, "metrics": values})
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
