"""heic() and estimate_dimension on one graph reduce it once (estimator._last_reduction).

Each test starts with the memory empty.  Here, unlike in every other test
module, the memory is read (this module overrides conftest's
last_reduction).  A warm call, one that finds the graph remembered, must
give a cold call's bits; only the stages it runs differ.
"""

import math

import numpy as np
import pytest
from scipy.linalg import lapack

import heic
from heic import estimator, spectral
from heic.errors import EigenSolverError


def _graph(n, seed=1, rho=1.0):
    latent_seed, adjacency_seed = heic.replicate_seeds(seed, n, 0)
    sample = heic.sample_uniform_sphere(n, 3, latent_seed)
    theta = heic.probability_matrix(sample, heic.GraphModel(link=heic.threshold(0.0), sparsity=rho, n=n))
    return heic.sample_adjacency(theta, adjacency_seed)


def _force(mp, route):
    """heic() skips the certified route; "two-stage" also takes the two stages at every n."""
    mp.setattr(estimator, "CERTIFIED_MIN_DENSITY", math.inf)
    mp.setattr(spectral, "TWO_STAGE_MIN_N", 1 if route == "two-stage" else spectral.TWO_STAGE_MIN_N)


@pytest.fixture(autouse=True)
def last_reduction(monkeypatch):
    """The memory starts empty, and the commands read it."""
    monkeypatch.setattr(estimator, "_last_reduction", None)


def _cold(fn, *args):
    estimator._last_reduction = None
    return fn(*args)


def _same_estimate(a, b):
    (estimate_a, diag_a), (estimate_b, diag_b) = a, b
    assert np.array_equal(estimate_a.vectors, estimate_b.vectors)
    assert estimate_a.vectors.tobytes() == estimate_b.vectors.tobytes()
    assert diag_a == diag_b
    assert estimate_a.cluster == estimate_b.cluster
    assert estimate_a.cluster.values.tobytes() == estimate_b.cluster.values.tobytes()


def _same_scan(a, b):
    assert np.array_equal(a.scores, b.scores)
    assert a.scores.tobytes() == b.scores.tobytes()
    assert (a.candidates, a.chosen, a.margin) == (b.candidates, b.chosen, b.margin)


COLD_STAGES = {"tridiagonal": ["dsytrd", "dsterf"], "two-stage": ["sy2sb", "sb2st", "dsterf"]}
FIRST_STAGE = {"tridiagonal": ["dsytrd"], "two-stage": ["sy2sb"]}


@pytest.fixture
def stages(monkeypatch):
    """Run one call; return its result and the reduction stages it ran, in order:
    "dsytrd"; "sy2sb" and "sb2st", the two stages of spectral._dsytrd_2stage;
    "dsterf", each call of spectral._tridiagonal_values."""
    ran = []
    real_dsytrd, real_values, real_two_stage = lapack.dsytrd, spectral._tridiagonal_values, spectral._dsytrd_2stage

    def dsytrd(*args, **kwargs):
        ran.append("dsytrd")
        return real_dsytrd(*args, **kwargs)

    def values(*args):
        ran.append("dsterf")
        return real_values(*args)

    def two_stage(arr, second_stage=True):
        ran.extend(["sy2sb", "sb2st"] if second_stage else ["sy2sb"])
        return real_two_stage(arr, second_stage=second_stage)

    monkeypatch.setattr(lapack, "dsytrd", dsytrd)
    monkeypatch.setattr(spectral, "_tridiagonal_values", values)
    monkeypatch.setattr(spectral, "_dsytrd_2stage", two_stage)

    def run(fn, *args):
        ran.clear()
        return fn(*args), list(ran)

    return run


# Both reduction routes, forced, and a sparse graph that takes the
# reduction unforced (its edge density is below CERTIFIED_MIN_DENSITY).
CASES = [
    pytest.param(300, 1.0, "tridiagonal", id="tridiagonal-n300"),
    pytest.param(60, 1.0, "two-stage", id="two-stage-n60"),
    pytest.param(1200, 8 * math.log(1200) / 1200, None, id="sparse-n1200"),
]


@pytest.mark.parametrize("n, rho, route", CASES)
class TestWarmEqualsCold:
    def test_heic_after_estimate_dimension(self, monkeypatch, stages, n, rho, route):
        if route is not None:
            _force(monkeypatch, route)
        adjacency = _graph(n, rho=rho)
        cold, ran = stages(_cold, heic.heic, adjacency, 3)
        solver = cold[1].solver
        assert solver == (route or "tridiagonal") and ran == COLD_STAGES[solver]
        _cold(heic.estimate_dimension, adjacency)
        warm, ran = stages(heic.heic, adjacency, 3)
        assert ran == FIRST_STAGE[solver]
        _same_estimate(warm, cold)

    def test_estimate_dimension_after_heic(self, monkeypatch, stages, n, rho, route):
        if route is not None:
            _force(monkeypatch, route)
        adjacency = _graph(n, rho=rho)
        cold = _cold(heic.estimate_dimension, adjacency)
        _cold(heic.heic, adjacency, 3)
        warm, ran = stages(heic.estimate_dimension, adjacency)
        assert ran == []
        _same_scan(warm, cold)


@pytest.mark.parametrize("route", ["tridiagonal", "two-stage"])
class TestHit:
    def test_estimate_dimension_makes_no_copy_and_no_reduction(self, monkeypatch, count_calls, route):
        _force(monkeypatch, route)
        adjacency = _graph(60)
        heic.heic(adjacency, 3)
        assert count_calls(heic.estimate_dimension, adjacency) == {
            "validate": 1, "eigh": 0, "eigvalsh": 0, "dsytrd": 0, "dsytrd_2stage": 0, "arpack": 0,
            "dpotrf": 0, "copy": 0,
        }

    def test_heic_runs_the_first_stage_alone(self, monkeypatch, count_calls, stages, route):
        _force(monkeypatch, route)
        adjacency = _graph(60)
        heic.estimate_dimension(adjacency)
        _, ran = stages(heic.heic, adjacency, 3)
        assert ran == FIRST_STAGE[route]
        counts = count_calls(heic.heic, adjacency, 3)
        assert (counts["dsytrd"], counts["dsytrd_2stage"], counts["copy"]) == (
            (1, 0, 1) if route == "tridiagonal" else (0, 1, 1)
        )

    def test_failed_band_certificate_runs_no_dsterf(self, monkeypatch, stages, route):
        # The dsytrd fallback takes the remembered two-stage values too.
        _force(monkeypatch, route)
        monkeypatch.setattr(spectral, "_BAND_BOUND", 0.0)
        adjacency = _graph(60)
        cold = _cold(heic.heic, adjacency, 3)
        heic.estimate_dimension(adjacency)
        warm, ran = stages(heic.heic, adjacency, 3)
        assert ran == (["dsytrd"] if route == "tridiagonal" else ["sy2sb", "dsytrd"])
        assert warm[1].solver == "tridiagonal"
        _same_estimate(warm, cold)

    def test_float64_copy_hits(self, monkeypatch, stages, route):
        # A uint8 graph and its float64 copy share a key, as they share A/n.
        _force(monkeypatch, route)
        adjacency = _graph(60)
        cold_scan = _cold(heic.estimate_dimension, adjacency)
        cold = _cold(heic.heic, adjacency, 3)
        scan, ran = stages(heic.estimate_dimension, adjacency.astype(float))
        assert ran == []
        _same_scan(scan, cold_scan)
        warm, ran = stages(heic.heic, adjacency.astype(float), 3)
        assert ran == FIRST_STAGE[route]
        _same_estimate(warm, cold)


@pytest.mark.parametrize("command", ["heic", "estimate_dimension"])
def test_warm_call_holds_no_more_than_a_cold_one(traced_peak, partial_solve, command):
    # A warm heic() makes A/n for its first stage (8 n^2 bytes above the
    # uint8 graph); a warm estimate_dimension makes no n x n float64 array
    # at all, only the key's 256-row blocks of bits.
    n = 1200
    adjacency = _graph(n, seed=9)
    other = _graph(n, seed=10)

    def run(a):
        return heic.estimate_dimension(a) if command == "estimate_dimension" else heic.heic(a, 3)

    run(other)  # imports what the call imports before tracing
    if command == "heic":
        heic.estimate_dimension(adjacency)
    else:
        heic.heic(adjacency, 3)
    assert estimator._remembered(estimator._graph_key(adjacency)) is not None  # the traced call hits
    bound = 1.1 if command == "heic" else 0.1
    assert traced_peak(run, adjacency) < bound * 8 * n * n


class TestMiss:
    def test_edge_flipped_in_place(self, monkeypatch, stages):
        _force(monkeypatch, "tridiagonal")
        adjacency = _graph(300)
        heic.heic(adjacency, 3)
        adjacency[3, 7] = adjacency[7, 3] = 1 - adjacency[3, 7]
        scan, ran = stages(heic.estimate_dimension, adjacency)
        assert ran == COLD_STAGES["tridiagonal"]
        _same_scan(scan, _cold(heic.estimate_dimension, adjacency))
        adjacency[3, 7] = adjacency[7, 3] = 1 - adjacency[3, 7]
        warm, ran = stages(heic.heic, adjacency, 3)
        assert ran == COLD_STAGES["tridiagonal"]
        _same_estimate(warm, _cold(heic.heic, adjacency, 3))

    def test_another_n(self, monkeypatch, stages):
        _force(monkeypatch, "tridiagonal")
        heic.estimate_dimension(_graph(300))
        other = _graph(200)
        warm, ran = stages(heic.heic, other, 3)
        assert ran == COLD_STAGES["tridiagonal"]
        _same_estimate(warm, _cold(heic.heic, other, 3))

    def test_two_stage_min_n_changed_between_calls(self, monkeypatch, stages):
        # The key holds the route reduce takes at n, so values from one
        # route never stand in for the other's.
        _force(monkeypatch, "tridiagonal")
        min_n = spectral.TWO_STAGE_MIN_N
        adjacency = _graph(60)
        heic.estimate_dimension(adjacency)
        monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", 1)
        warm, ran = stages(heic.heic, adjacency, 3)
        assert warm[1].solver == "two-stage" and ran == COLD_STAGES["two-stage"]
        _same_estimate(warm, _cold(heic.heic, adjacency, 3))
        monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", min_n)
        scan, ran = stages(heic.estimate_dimension, adjacency)
        assert ran == COLD_STAGES["tridiagonal"]
        _same_scan(scan, _cold(heic.estimate_dimension, adjacency))


class TestWhatIsRemembered:
    def test_certified_heic_stores_nothing(self, certified_solve):
        adjacency = _graph(300, seed=4)
        _, diag = heic.heic(adjacency, 3)
        assert diag.solver == "certified"
        assert estimator._last_reduction is None
        heic.estimate_dimension(adjacency)
        entry = estimator._last_reduction
        heic.heic(adjacency, 3)
        assert estimator._last_reduction is entry

    def test_failed_reduction_stores_nothing(self, monkeypatch, partial_solve):
        def fail(diagonal, offdiagonal):
            raise EigenSolverError("dsterf failed")

        monkeypatch.setattr(spectral, "_tridiagonal_values", fail)
        adjacency = _graph(60)
        for call in (heic.estimate_dimension, lambda a: heic.heic(a, 3)):
            with pytest.raises(EigenSolverError):
                call(adjacency)
            assert estimator._last_reduction is None

    def test_one_read_only_copy_of_n_values(self, partial_solve):
        adjacency = _graph(300)
        heic.heic(adjacency, 3)
        key, values = estimator._last_reduction
        assert key[:2] == (300, "tridiagonal") and len(key[2]) == 32
        assert values.shape == (300,) and not values.flags.writeable
        assert np.all(np.diff(values) >= 0)  # LAPACK's ascending order

    def test_writes_into_cluster_values_change_no_later_call(self, partial_solve):
        adjacency = _graph(300)
        cold_scan = _cold(heic.estimate_dimension, adjacency)
        cold = _cold(heic.heic, adjacency, 3)
        estimator._last_reduction = None
        first, _ = heic.heic(adjacency, 3)  # a miss, which remembers
        first.cluster.values[:] = 0.0
        _same_scan(heic.estimate_dimension(adjacency), cold_scan)
        warm, _ = heic.heic(adjacency, 3)  # a hit
        warm.cluster.values[:] = -1.0
        _same_scan(heic.estimate_dimension(adjacency), cold_scan)
        _same_estimate(heic.heic(adjacency, 3), cold)


def test_concurrent_callers_never_mix_entries(partial_solve):
    # Four threads alternate both commands over two graphs of one n, so
    # each call may find the other graph's entry; every result must still
    # be its graph's cold one.
    import sys
    import threading

    graphs = [_graph(60, seed) for seed in (1, 2)]
    cold = [(_cold(heic.estimate_dimension, a), _cold(heic.heic, a, 3)) for a in graphs]
    failures = []

    def work(offset):
        for i in range(40):
            which = (i + offset) % 2
            try:
                _same_scan(heic.estimate_dimension(graphs[which]), cold[which][0])
                _same_estimate(heic.heic(graphs[which], 3), cold[which][1])
            except AssertionError as exc:  # pragma: no cover - reported below
                failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
