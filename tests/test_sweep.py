import math
import os
import time

import numpy as np
import pytest

from annulab import sweep as sweep_mod
from annulab.eigensolver import SolverConvergenceError, lapack_thread_control
from annulab.fem import ProblemKind
from annulab.geometry import AnnularDomain
from annulab.mesh import Mesh, Resolution
from annulab.radial_oracle import concentric_eigenvalue
from annulab.shape import finite_difference_tau_prime
from annulab.sweep import (
    SWEEP_COLUMNS,
    _solve_record,
    analyze_dn_ratio,
    bracket_critical_ratio,
    convergence_study,
    monotonicity_violations,
    richardson_limit,
    sweep_translation,
    write_sweep_csv,
    write_sweep_svg,
)

QUICK = Resolution(128, 32, 1.5)


@pytest.fixture(scope="module")
def short_sweep():
    return sweep_translation(
        1.0, 5.0, [0.0, 1.2, 2.4, 3.4], resolution=QUICK
    )


def test_sweep_monotone_trends(short_sweep):
    assert monotonicity_violations(short_sweep) == []
    taus = [r.tau1 for r in short_sweep]
    assert all(b < a for a, b in zip(taus, taus[1:]))
    ts = [r.T for r in short_sweep]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_sweep_record_identities(short_sweep):
    for r in short_sweep:
        assert r.tau1 < r.lambda1
        scale = max(abs(r.dtau_hadamard), abs(r.dtau_half), 1e-12)
        assert abs(r.dtau_hadamard - r.dtau_half) <= 1e-9 * scale
        assert r.checks_pass
        assert all(math.isfinite(x) for x in r.row()[:-1])


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep_translation(1.0, 5.0, [0.0, 0.0], resolution=QUICK)
    with pytest.raises(ValueError):
        sweep_translation(1.0, 5.0, [0.0, 4.5], resolution=QUICK)


@pytest.mark.parametrize("fd_step", [0.0, -1.0, float("nan")])
def test_sweep_rejects_bad_fd_step_before_solving(monkeypatch, fd_step):
    def fail(*args, **kwargs):
        raise AssertionError("solved before validating fd_step")

    monkeypatch.setattr(sweep_mod, "discretize", fail)
    with pytest.raises(ValueError, match="fd_step must be positive"):
        sweep_translation(1.0, 5.0, [0.0, 1.0], resolution=QUICK, fd_step=fd_step,
                          threads=1)


# each column's power of the length scale c
SCALE_POWERS = {"tau1": -2, "lambda1": -2, "nu1": -2, "T": 4, "dtau_hadamard": -3,
                "dtau_half": -3, "dtau_fd": -3, "dT_boundary": 3}


@pytest.mark.parametrize("c", [2.0**-10, 2.0**10])
def test_sweep_is_scale_free(c):
    # the default finite-difference step scales with the annulus, so the
    # sweep on (c, 5c) is the (1, 5) sweep with every column rescaled
    res = Resolution(32, 8, 1.5)
    grid = [0.0, 0.9, 1.8, 2.7, 3.6]
    base = sweep_translation(1.0, 5.0, grid, resolution=res, threads=1)
    scaled = sweep_translation(c, 5.0 * c, [c * s for s in grid], resolution=res,
                               threads=1)
    for a, b in zip(base, scaled):
        assert b.s == c * a.s and b.checks_pass == a.checks_pass
        for name, p in SCALE_POWERS.items():
            assert getattr(b, name) / c**p == pytest.approx(
                getattr(a, name), rel=1e-12, abs=0.0
            ), (a.s, name)


def bits(x):
    return np.float64(x).view(np.uint64)


def test_sweep_processes_match_serial(monkeypatch):
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)
    grid = [0.0, 0.5, 1.5]
    res = Resolution(48, 8, 1.5)
    forked = sweep_translation(1.0, 5.0, grid, resolution=res, threads=2,
                               keep_fields=True)
    serial = sweep_translation(1.0, 5.0, grid, resolution=res, threads=1,
                               keep_fields=True)
    assert len(forked) == len(serial) == len(grid)
    for a, b in zip(serial, forked):
        for name in SWEEP_COLUMNS:
            assert bits(getattr(a, name)) == bits(getattr(b, name)), name
        for name in ("u", "v"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.values.tobytes() == y.values.tobytes(), name
            assert x.mesh.vertices.tobytes() == y.mesh.vertices.tobytes(), name


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_combines_the_finite_difference_of_shape(monkeypatch, workers):
    # the re-solves run as tasks of their own; the derivative they give is
    # bit for bit the one finite_difference_tau_prime solves in one go
    monkeypatch.setattr(sweep_mod, "WORKERS", workers)
    res = Resolution(32, 8, 1.5)
    records = sweep_translation(1.0, 5.0, [0.0, 1.5], resolution=res, fd_step=0.05,
                                threads=2)
    for r in records:
        d = AnnularDomain(1.0, 5.0, r.s)
        want = finite_difference_tau_prime(d, 0.05, res, tol=sweep_mod.TOL)
        assert bits(r.dtau_fd) == bits(want), r.s


def test_dn_ratio_processes_match_serial(monkeypatch):
    res = Resolution(64, 16, 1.5)
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(sweep_mod, "WORKERS", workers)
        out.append(analyze_dn_ratio(5.0, 0.1, s_points=6, resolution=res))
    serial, forked = out
    assert serial.classification == forked.classification == "interior_minimum"
    assert serial.nu_values.tobytes() == forked.nu_values.tobytes()
    assert bits(serial.s0) == bits(forked.s0)


def test_process_count_is_capped_by_threads_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(sweep_mod, "WORKERS", 4)
    assert sweep_mod._process_count(10**9, 5) == 4
    assert sweep_mod._process_count(3, 5) == 3
    assert sweep_mod._process_count(8, 2) == 2
    assert sweep_mod._process_count(8, 0) == 1
    assert sweep_mod._process_count(0, 5) == 1


def test_parallel_map_keeps_task_order(monkeypatch):
    monkeypatch.setattr(sweep_mod, "WORKERS", 3)
    assert sweep_mod._parallel_map(lambda x: x * x, range(8), 3) == [
        x * x for x in range(8)
    ]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("first_bad", [0, 3, 4])
def test_a_raising_task_raises_the_first_error_and_leaves_no_child(
    monkeypatch, first_bad
):
    # task 0 runs in the caller; 3 and 4 run in whichever process takes them
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)

    def task(i):
        if i >= first_bad:
            raise SolverConvergenceError(f"task {i}", float(i))
        return i

    with pytest.raises(SolverConvergenceError) as exc:
        sweep_mod._parallel_map(task, range(7), 2)
    assert str(exc.value) == str(SolverConvergenceError(f"task {first_bad}",
                                                        float(first_bad)))
    assert exc.value.residual == first_bad
    assert_no_child()


def test_a_failing_first_task_does_not_wait_for_the_children(monkeypatch):
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)

    def task(i):
        if i == 0:
            raise SolverConvergenceError("task 0", 0.0)
        time.sleep(20.0)
        return i

    start = time.perf_counter()
    with pytest.raises(SolverConvergenceError, match="task 0"):
        sweep_mod._parallel_map(task, range(2), 2)
    assert time.perf_counter() - start < 10.0
    assert_no_child()


def test_a_worker_that_dies_raises_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)
    caller = os.getpid()

    def task(i):
        if os.getpid() != caller:
            os._exit(7)
        # task 0: the child takes task 1 while the caller waits for its end
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return i

    with pytest.raises(RuntimeError, match="worker process exited with code 7"):
        sweep_mod._parallel_map(task, range(4), 2)
    assert_no_child()


def test_tasks_of_unequal_cost_run_once_each_in_order(monkeypatch, tmp_path):
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)
    log = tmp_path / "log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def task(i):
        time.sleep(0.02 if i % 3 == 0 else 0.002)
        os.write(fd, f"{i} {os.getpid()}\n".encode())
        return i * i

    try:
        assert sweep_mod._parallel_map(task, range(20), 2) == [i * i for i in range(20)]
    finally:
        os.close(fd)
    runs = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(i) for i, _ in runs) == list(range(20))
    # the cheap tasks balance: the child runs some of them too
    assert len({pid for _, pid in runs}) == 2
    assert_no_child()


@pytest.mark.parametrize("lowest", ["caller", "child"])
def test_failures_in_both_processes_raise_the_lowest_index(monkeypatch, lowest):
    # two pipes order the events: the child holds task 1 while the caller
    # runs task 0 and takes task 2; with lowest == "caller" the child's
    # task 1 succeeds and it fails at task 3, which it takes before the
    # caller's task 2 fails
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)
    caller = os.getpid()
    started, go = os.pipe(), os.pipe()

    def task(i):
        if os.getpid() != caller:
            os.write(started[1], b"x")
            if i == 1:
                os.read(go[0], 1)
                if lowest == "caller":
                    return i
            raise SolverConvergenceError(f"task {i}", float(i))
        if i == 0:
            os.read(started[0], 1)
            return i
        os.write(go[1], b"x")
        if lowest == "caller":
            os.read(started[0], 1)
        raise SolverConvergenceError(f"task {i}", float(i))

    try:
        with pytest.raises(SolverConvergenceError) as exc:
            sweep_mod._parallel_map(task, range(6), 2)
    finally:
        for fd in started + go:
            os.close(fd)
    assert exc.value.residual == (2 if lowest == "caller" else 1)
    assert_no_child()


def test_more_tasks_than_a_pipe_holds_indices(monkeypatch):
    # 64 KiB of 4-byte indices is 16384 tasks
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)
    tasks = range(20000)
    assert sweep_mod._parallel_map(lambda x: x + 1, tasks, 2) == [x + 1 for x in tasks]
    assert_no_child()


def test_the_caller_keeps_its_cpus_and_lapack_threads(monkeypatch):
    # the package's import already runs LAPACK on one thread; a host that
    # loaded scipy first may run it on more, which the map sets to 1 for its
    # tasks and restores after them
    monkeypatch.setattr(sweep_mod, "WORKERS", 2)
    get_threads, set_threads = lapack_thread_control()
    cpus, threads = os.sched_getaffinity(0), get_threads()
    set_threads(2)
    try:
        assert sweep_mod._parallel_map(lambda x: get_threads(), range(4), 2) == [1] * 4
        assert get_threads() == 2
    finally:
        set_threads(threads)
    assert os.sched_getaffinity(0) == cpus


def test_sweep_csv_format(tmp_path, short_sweep):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(short_sweep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS) == (
        "s,tau1,lambda1,nu1,T,dtau_hadamard,dtau_half,dtau_fd,dT_boundary,checks_pass"
    )
    assert len(lines) == len(short_sweep) + 1
    first = lines[1].split(",")
    assert float(first[0]) == short_sweep[0].s
    assert first[-1] in ("0", "1")


def test_sweep_svg(tmp_path, short_sweep):
    path = tmp_path / "sweep.svg"
    write_sweep_svg(short_sweep, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 3


def test_convergence_study_against_oracle():
    d = AnnularDomain(1.0, 2.0, 0.0)
    ref = concentric_eigenvalue(ProblemKind.ND, 1.0, 2.0)
    rows = convergence_study(d, ProblemKind.ND, levels=3,
                             base=Resolution(32, 8, 1.0), reference=ref)
    assert rows[-1].observed_order == pytest.approx(2.0, abs=0.3)
    values = [r.value for r in rows]
    assert values[0] >= values[1] >= values[2] >= ref - 1e-10
    limit = richardson_limit(rows)
    assert limit == pytest.approx(ref, rel=2e-4)


def test_convergence_study_without_reference():
    d = AnnularDomain(1.0, 2.0, 0.4)
    rows = convergence_study(d, ProblemKind.ND, levels=3,
                             base=Resolution(32, 8, 1.0))
    assert rows[-1].observed_order == pytest.approx(2.0, abs=0.5)


def test_dn_monotone_ratio():
    a = analyze_dn_ratio(5.0, 0.6, s_points=12, resolution=QUICK)
    assert a.classification == "monotone_decreasing"
    assert a.s0 is None
    assert np.all(np.diff(a.nu_values) < 0)


def test_dn_interior_minimum_ratio():
    a = analyze_dn_ratio(5.0, 0.1, s_points=12, resolution=QUICK)
    assert a.classification == "interior_minimum"
    assert 0.0 < a.s0 <= 4.5


def test_dn_validation():
    with pytest.raises(ValueError):
        analyze_dn_ratio(5.0, 1.5, resolution=QUICK)
    with pytest.raises(ValueError):
        analyze_dn_ratio(5.0, 0.5, s_points=2, resolution=QUICK)
    with pytest.raises(ValueError):
        bracket_critical_ratio(5.0, 0.5, 0.6, s_points=12, resolution=QUICK)


def test_dn_ratios_are_checked_before_any_solve(monkeypatch):
    def solve(*args):
        raise AssertionError("solved before validating the ratios")

    monkeypatch.setattr(sweep_mod, "_nu1", solve)
    with pytest.raises(ValueError, match="ratio must lie in"):
        sweep_mod.analyze_dn_ratios(5.0, [0.1, 1.5], resolution=QUICK)
    with pytest.raises(ValueError, match="at least 3"):
        sweep_mod.analyze_dn_ratios(5.0, [0.1, 0.6], s_points=2, resolution=QUICK)


def count_maps(monkeypatch) -> list:
    """A list that gains the task count of each ``_parallel_map`` call."""
    maps = []
    parallel_map = sweep_mod._parallel_map

    def counted(fn, args, threads):
        args = list(args)
        maps.append(len(args))
        return parallel_map(fn, args, threads)

    monkeypatch.setattr(sweep_mod, "_parallel_map", counted)
    return maps


@pytest.mark.parametrize("workers", [1, 2])
def test_one_grid_map_for_all_ratios_matches_each_ratio_alone(monkeypatch, workers):
    monkeypatch.setattr(sweep_mod, "WORKERS", workers)
    res = Resolution(64, 16, 1.5)
    maps = count_maps(monkeypatch)
    together = sweep_mod.analyze_dn_ratios(5.0, [0.1, 0.6], s_points=6, resolution=res)
    # the grids of both ratios are one map, then the rounds of one refinement
    assert maps[0] == 12 and all(m <= 2 for m in maps[1:])
    assert [a.classification for a in together] == ["interior_minimum",
                                                    "monotone_decreasing"]
    for a in together:
        alone = analyze_dn_ratio(5.0, a.ratio, s_points=6, resolution=res)
        assert a.classification == alone.classification
        assert a.s_points.tobytes() == alone.s_points.tobytes()
        assert a.nu_values.tobytes() == alone.nu_values.tobytes()
        assert a.s0 is alone.s0 is None or bits(a.s0) == bits(alone.s0)


def golden_evaluations(length, window):
    """The values golden section takes to shrink a bracket of ``length`` to
    ``window``: two to start, then one per shrink by the golden ratio."""
    n = 2
    while length > window:
        length *= 1.0 - sweep_mod.GOLDEN
        n += 1
    return n


# the window of R1 = 5, ratio 0.1
WINDOW = 4.5 / 200.0
# unimodal functions with their minimizer at 0, each with a triple about it
UNIMODAL = {
    "parabola": (lambda t: t * t, (-0.45, -0.1, 0.3)),
    "skewed": (lambda t: math.exp(t) - t, (-0.45, -0.1, 0.3)),
    # so flat about its minimizer that parabola steps fall short
    "flat_quartic": (lambda t: t**4, (-0.3, -0.2, 0.7)),
    # the minimizer one probe inside the bracket's left end
    "one_probe_from_an_end": (lambda t: math.exp(t) - t, (-WINDOW / 2, 0.3 * WINDOW, 1.0)),
}


def refine(f, triple, c):
    """``(s0, rounds)`` of ``f(t - c)`` refined from ``triple + c``; each
    round is the list of points evaluated in it."""
    rounds = []

    def evaluate(points):
        rounds.append(list(points))
        return [f(t - c) for t in points]

    a, x, b = (t + c for t in triple)
    s0 = sweep_mod._refine_minimum(evaluate, a, x, b, f(a - c), f(x - c), f(b - c),
                                   WINDOW)
    return s0, rounds


@pytest.mark.parametrize("c", [0.0, 3.7])
@pytest.mark.parametrize("name", list(UNIMODAL))
def test_refinement_lands_within_half_a_window(name, c):
    f, triple = UNIMODAL[name]
    s0, rounds = refine(f, triple, c)
    assert abs(s0 - c) <= WINDOW / 2
    length = triple[2] - triple[0]
    assert sum(map(len, rounds)) <= golden_evaluations(length, WINDOW) + 2


def test_a_flat_minimum_takes_golden_steps(monkeypatch):
    f, triple = UNIMODAL["flat_quartic"]
    _, rounds = refine(f, triple, 0.0)
    monkeypatch.setattr(sweep_mod, "GOLDEN", 0.3)
    assert refine(f, triple, 0.0)[1] != rounds


def test_refinement_stops_when_no_probe_is_left():
    # x -+ window/2 are the bracket's ends, yet the bracket is one rounding
    # step wider than the window: the certificate has no point to evaluate
    c = 4.0
    assert (c + WINDOW / 2) - (c - WINDOW / 2) > WINDOW
    s0, rounds = refine(lambda t: t * t, (-WINDOW / 2, 0.0, WINDOW / 2), c)
    assert rounds == []
    assert s0 == c


@pytest.mark.parametrize("R1", [4.0, 5.0, 6.0])
def test_dn_minimum_lies_within_half_a_window_of_a_dense_scan(R1):
    res = Resolution(64, 16, 1.5)
    a = analyze_dn_ratio(R1, 0.1, s_points=12, resolution=res)
    assert a.classification == "interior_minimum"
    R0 = 0.1 * R1
    window = (R1 - R0) / 200.0

    def scan(lo, hi, n):
        s = np.linspace(lo, hi, n)
        nu = [sweep_mod._nu1(R0, R1, x, res, sweep_mod.TOL) for x in s]
        return s, int(np.argmin(nu))

    k = int(np.argmin(a.nu_values))
    s, j = scan(a.s_points[k - 1], a.s_points[k + 1], 121)
    s, j = scan(s[j - 1], s[j + 1], 41)
    assert abs(a.s0 - s[j]) <= window / 2


def test_seed_zero_minimum_refines_in_three_rounds(monkeypatch):
    # the dn-family benchmark's seed-0 shape
    monkeypatch.setattr(sweep_mod, "WORKERS", 1)
    solves = []
    nu1 = sweep_mod._nu1

    def counted(*args):
        solves.append(args[2])
        return nu1(*args)

    monkeypatch.setattr(sweep_mod, "_nu1", counted)
    maps = count_maps(monkeypatch)
    a = analyze_dn_ratio(5.0, 0.1, s_points=12, resolution=QUICK)
    assert a.classification == "interior_minimum"
    assert maps[0] == 12
    rounds = maps[1:]
    assert len(solves) == 12 + sum(rounds)
    assert sum(rounds) <= 5 and len(rounds) <= 3
    # the certificate's two probes are one map
    assert rounds[-1] == 2


def fake_classifier(monkeypatch, critical):
    """Replace the dn analysis by a free one with its crossover at
    ``critical``; returns the list of classified ratios."""
    seen = []

    def analyze(R1, ratio, s_points, resolution, tol):
        seen.append(ratio)
        if len(seen) > 200:
            raise AssertionError("the bisection does not terminate")
        shape = "interior_minimum" if ratio < critical else "monotone_decreasing"
        return sweep_mod.DNAnalysis(ratio, shape, None, np.zeros(0), np.zeros(0))

    monkeypatch.setattr(sweep_mod, "analyze_dn_ratio", analyze)
    return seen


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_bracket_rejects_a_width_that_is_not_positive(monkeypatch, width):
    seen = fake_classifier(monkeypatch, 0.13)
    with pytest.raises(ValueError, match="bracket width must be positive"):
        bracket_critical_ratio(5.0, 0.1, 0.6, width=width)
    assert seen == []


def test_bracket_stops_at_adjacent_doubles(monkeypatch):
    seen = fake_classifier(monkeypatch, 0.13)
    lo, hi, _ = bracket_critical_ratio(5.0, 0.1, 0.6, width=1e-300)
    assert lo < 0.13 <= hi
    assert np.nextafter(lo, hi) == hi
    # one classification per bit of the bracket, and the two endpoints
    assert len(seen) <= 2 + 60


def test_bracket_uses_the_analyses_it_is_given(monkeypatch):
    seen = fake_classifier(monkeypatch, 0.13)
    given = {
        ratio: sweep_mod.DNAnalysis(ratio, shape, None, np.zeros(0), np.zeros(0))
        for ratio, shape in ((0.1, "interior_minimum"), (0.6, "monotone_decreasing"))
    }
    lo, hi, analyses = bracket_critical_ratio(5.0, 0.1, 0.6, analyses=given)
    assert lo < 0.13 <= hi
    assert 0.1 not in seen and 0.6 not in seen
    assert analyses[0.1] is given[0.1] and analyses[0.6] is given[0.6]


def test_record_locates_each_reflected_point_once(monkeypatch):
    located = []
    locate = Mesh.locate

    def counting(self, pts):
        located.append(len(pts))
        return locate(self, pts)

    monkeypatch.setattr(Mesh, "locate", counting)
    rec = _solve_record(1.0, 5.0, 2.0, QUICK, 1e-9, False, None)
    assert rec.checks_pass
    # the nd and torsion reports share one location of the reflected points
    assert sum(located) == 22386
