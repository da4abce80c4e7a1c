"""Fast self-tests of the benchmark: seeds, span arithmetic, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans
import workloads
from spans import Span

CANONICAL = {
    "sweep": "sweep --R0 1 --R1 5 --s-grid 0:0.9:3.6 --n-theta 128 --n-rad 32 "
             "--grading 1.5",
    "dn-family": "dn-analyze --R1 5 --ratios 0.1,0.6 --s-points 12 --n-theta 128 "
                 "--n-rad 32 --grading 1.5",
    "fine-field": "solve --R0 1 --R1 5 --s 2 --n-theta 512 --n-rad 128 "
                  "--grading 1.5 --kind nd --vtk",
    "rearrange": "symmetry-check --R0 1 --R1 5 --s 2 --n-theta 128 --n-rad 32 "
                 "--grading 1.5 --rings 256 --ring-samples 1024",
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_seed_zero_is_canonical(name):
    argv, _ = workloads.resolve(name, 0)
    assert " ".join(argv) == CANONICAL[name]


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_seeds_are_reproducible_and_vary_one_parameter(name):
    w = workloads.WORKLOADS[name]
    base = CANONICAL[name].split()
    drawn = set()
    for seed in range(1, 30):
        argv, value = workloads.resolve(name, seed)
        assert workloads.resolve(name, seed) == (argv, value)
        assert w.lo <= value <= w.hi
        assert len(argv) == len(base)
        # only the value slots of the drawn parameter may differ
        assert sum(a != b for a, b in zip(argv, base)) <= 1
        drawn.add(value)
    assert len(drawn) > 10


def test_sweep_grid_has_five_records_from_zero():
    from annulab.cli import _parse_grid

    for seed in range(20):
        argv, step = workloads.resolve("sweep", seed)
        grid = _parse_grid(argv[argv.index("--s-grid") + 1])
        assert len(grid) == workloads.SWEEP_RECORDS
        assert grid[0] == 0.0 and grid[-1] < 4.0


def _tree():
    """cli root with a sweep span that waits on two pool threads.

    main:     A cli 0-10 > B sweep 1-9 > C checks 8-8.5
    worker 2: R1 sweep 2-5 > E1 eigensolver 2.5-4.5
    worker 3: R2 sweep 3-7.5 > E2 eigensolver 3-7
    """
    return [
        Span(0, "cli.main", "cli", 0.0, 10.0, None, 1),
        Span(1, "sweep.sweep_translation", "sweep", 1.0, 9.0, 0, 1, 5),
        Span(2, "checks.geometry_report", "checks", 8.0, 8.5, 1, 1),
        Span(3, "sweep._solve_record", "sweep", 2.0, 5.0, None, 2),
        Span(4, "eigensolver.smallest_eigenpair", "eigensolver", 2.5, 4.5, 3, 2, 7),
        Span(5, "sweep._solve_record", "sweep", 3.0, 7.5, None, 3),
        Span(6, "eigensolver.smallest_eigenpair", "eigensolver", 3.0, 7.0, 5, 3, 9),
    ]


def test_self_and_wait_on_a_tree_with_worker_threads():
    sw = spans.self_and_wait(_tree())
    assert sw[0] == pytest.approx((2.0, 0.0))
    # gaps [1, 8] and [8.5, 9]; workers busy over [2, 7.5]
    assert sw[1] == pytest.approx((2.0, 5.5))
    assert sw[2] == pytest.approx((0.5, 0.0))
    # worker threads never wait, even while another worker runs
    assert sw[3] == pytest.approx((1.0, 0.0))
    assert sw[5] == pytest.approx((0.5, 0.0))


def test_layer_metrics_and_thread_totals_on_the_tree():
    m = spans.layer_metrics(_tree())
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["sweep.self_s"] == pytest.approx(3.5)
    assert m["sweep.wait_s"] == pytest.approx(5.5)
    assert m["checks.self_s"] == pytest.approx(0.5)
    assert m["eigensolver.self_s"] == pytest.approx(6.0)
    assert m["eigensolver.solves"] == 2 and m["eigensolver.outer_iters"] == 16
    assert m["sweep.records"] == 5
    totals = spans.thread_totals(_tree())
    assert {t: v["traced_s"] for t, v in totals.items()} == pytest.approx(
        {1: 10.0, 2: 3.0, 3: 4.5})
    for v in totals.values():
        assert v["self_s"] + v["wait_s"] == pytest.approx(v["traced_s"])


def test_fd_solves_count_eigen_solves_called_from_shape():
    tree = [
        Span(0, "shape.finite_difference_tau_prime", "shape", 0.0, 2.0, None, 1),
        Span(1, "spectral.solve_eigenproblem", "spectral", 0.1, 0.9, 0, 1),
        Span(2, "spectral.solve_eigenproblem", "spectral", 1.0, 1.9, 0, 1),
        Span(3, "spectral.solve_eigenproblem", "spectral", 2.0, 3.0, None, 1),
    ]
    assert spans.layer_metrics(tree)["shape.fd_solves"] == 2


def test_tracer_keeps_a_stack_per_pool_thread():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def task(x):
        barrier.wait()  # both tasks run at once, so on two threads
        return inner(x)

    inner = tracer.wrap(lambda x: x + 1, "eigensolver.inner", "eigensolver")
    task = tracer.wrap(task, "sweep._solve_record", "sweep")

    def sweep_translation():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(task, [1, 2]))

    outer = tracer.wrap(sweep_translation, "sweep.sweep_translation", "sweep")
    assert outer() == [2, 3]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    records = by_name["sweep._solve_record"]
    assert len({s.thread for s in records}) == 2
    assert all(s.parent is None for s in records)
    assert {s.parent for s in by_name["eigensolver.inner"]} == {s.sid for s in records}
    m = spans.layer_metrics(tracer.spans)
    assert m["sweep.wait_s"] > 0.0
    for v in spans.thread_totals(tracer.spans).values():
        assert abs(v["self_s"] + v["wait_s"] - v["traced_s"]) < 1e-9


def test_install_traces_a_small_cli_call_and_uninstall_restores(tmp_path):
    import annulab.cli as cli
    import annulab.spectral as spectral
    import scipy.sparse.linalg as spla

    before = (spectral.build_mesh, cli.solve_eigenproblem, spla.splu)
    tracer = spans.Tracer().install()
    try:
        main = tracer.wrap(cli.main, "cli.main", "cli")
        code = main(["solve", "--s", "1", "--n-theta", "16", "--n-rad", "4",
                     "--out-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (spectral.build_mesh, cli.solve_eigenproblem, spla.splu) == before
    m = spans.layer_metrics(tracer.spans)
    assert m["mesh.builds"] == 1 and m["mesh.vertices"] == 16 * 5
    assert m["eigensolver.solves"] == 1 and m["eigensolver.outer_iters"] > 0
    assert m["fem.assemblies"] == 2 and m["fem.reductions"] == 1
    assert m["export.self_s"] > 0.0
    (total,) = spans.thread_totals(tracer.spans).values()
    assert total["self_s"] == pytest.approx(total["traced_s"])


SWEEP_CSV = """\
s,tau1,lambda1,nu1,T,dtau_hadamard,dtau_half,dtau_fd,dT_boundary,checks_pass
0.0,0.07982288605860251,0.5833615320556047,0.2651250110458728,881.1704637826883,5.332897738997652e-06,5.332897738998021e-06,3.0659679779998505e-05,-0.08521338950316348,1
0.9,0.07022432538804722,0.4826508669375418,0.2566696040960298,940.0619240573722,-0.016201332127559864,-0.016201332127559864,-0.01659366272665344,126.75019093608472,1
1.8,0.055414277938547446,0.3870674465399191,0.24072256006855797,1121.5469743169206,-0.014900316130071896,-0.014900316130071898,-0.015283012377051083,264.43291586520127,1
2.7,0.04316169040752173,0.32288825159094314,0.22736963580990868,1442.065948504635,-0.011701535683330799,-0.011701535683330799,-0.012024301785055133,428.79946386310945,1
3.6,0.03350879524365738,0.2800789004606561,0.21994199817384769,1937.3695485153057,-0.009312819165157398,-0.009312819165157398,-0.009582857490062213,646.4898949736278,1
"""


def test_sweep_check_passes_seed_zero_output_and_catches_defects(tmp_path):
    (tmp_path / "sweep.csv").write_text(SWEEP_CSV)
    res = workloads.check("sweep", str(tmp_path), 0.9)
    assert res.ok, res.problems
    assert res.values["dtau_gap_rel"] == pytest.approx(0.0282, abs=1e-4)
    assert res.values["tau1_s0_err_rel"] == pytest.approx(1.2e-3, abs=1e-4)
    # tau1 rising at the last record, and a failed geometry report
    broken = SWEEP_CSV.replace("0.03350879524365738", "0.05").replace(",1\n3.6", ",0\n3.6")
    (tmp_path / "sweep.csv").write_text(broken)
    res = workloads.check("sweep", str(tmp_path), 0.9)
    assert not res.ok
    assert any("tau1 not decreasing" in p for p in res.problems)
    assert any("checks_pass is 0" in p for p in res.problems)


def test_missing_output_fails_the_check(tmp_path):
    for name in CANONICAL:
        res = workloads.check(name, str(tmp_path), workloads.resolve(name, 0)[1])
        assert not res.ok and "unreadable output" in res.problems[0]


def test_failed_calls_count_against_the_run():
    import run

    call = {"traced": False, "setup_s": 0.5, "wall_s": 2.0, "peak_rss_mb": 90.0,
            "ok": True, "problems": [], "values": {}}
    bad = dict(call, ok=False, wall_s=3.0, problems=["exit code 3"])
    units = ({"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}, {})
    result, detail = run.summarize(
        {"workload": "sweep", "seed": 0, "argv": [], "param": {},
         "probes": [{"setup_s": 0.4}], "calls": [call, bad]}, False, units)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert detail["failed_share"] == 0.5
    assert detail["problems"] == ["exit code 3"]
    assert result["metrics"]["wall_s"] == {"value": 2.5, "unit": "s"}
    assert result["metrics"]["setup_s"]["value"] == 0.5


def test_traced_call_must_be_covered_by_its_cli_span():
    import run

    plain = {"traced": False, "setup_s": 0.5, "wall_s": 2.0, "peak_rss_mb": 90.0,
             "ok": True, "problems": [], "values": {}}
    traced = dict(plain, traced=True, wall_s=2.1, traced_s=2.0999,
                  layers={"cli.self_s": 2.0999}, threads=[])
    units = ({"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"},
             {"cli.self_s": "s", "trace.overhead_s": "s"})
    run_ = {"workload": "sweep", "seed": 0, "argv": [], "param": {},
            "probes": [{"setup_s": 0.4}], "calls": [plain, traced]}
    result, detail = run.summarize(run_, True, units)
    assert result["correct"], detail["problems"]
    assert result["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.1)
    # spans that miss part of the timed call, e.g. a lost cli.main wrapper
    traced["traced_s"] = 1.5
    result, detail = run.summarize(run_, True, units)
    assert not result["correct"]
    assert detail["problems"] == ["the cli.main span does not cover the timed call"]
