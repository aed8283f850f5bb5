"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import coxlow  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import REFERENCE_S, SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Check, Job  # noqa: E402


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def layer(tr, passes=1):
    metrics = tr.metrics(passes, [1.0], [1.0])
    return {name: m["value"] for name, m in metrics.items()}


def test_walk_counts_every_element_of_a3(tracer):
    rs = coxlow.battery_root_system("A3")
    levels = list(coxlow.elements_by_length(rs))
    m = layer(tracer)
    assert sum(len(entries) for _, entries in levels) == 24
    assert m["elements.walk.elements"] == 24
    assert m["elements.walk.peak_level"] == 6      # longest element of S4


def test_is_low_calls_equal_elements_enumerate_low_visits(tracer):
    rs = coxlow.battery_root_system("hyperbolic-3-3-4")
    sigma = coxlow.small_roots(rs)
    visited = sum(coxlow.count_elements(rs, sigma, 5))
    coxlow.enumerate_low(rs, sigma, 5)
    m = layer(tracer)
    assert m["elements.enumerate_low.calls"] == 1
    assert m["elements.is_low.calls"] == m["elements.walk.elements"] == visited
    assert m["elements.inversion_set.calls"] >= m["elements.is_low.calls"]
    assert 0 < m["elements.is_low.low_ratio"] < 1


def test_wraps_every_binding_and_uninstall_restores():
    originals = (coxlow.is_low, coxlow.elements.is_low, coxlow.conjecture.is_low,
                 coxlow.cli.main, coxlow.BasedRootSystem.root_depth)
    tr = Tracer()
    tr.install()
    try:
        assert coxlow.conjecture.is_low is not originals[2]
        assert coxlow.conjecture.is_low is coxlow.elements.is_low is coxlow.is_low
        assert coxlow.cli.main is not originals[3]
    finally:
        tr.uninstall()
    assert (coxlow.is_low, coxlow.elements.is_low, coxlow.conjecture.is_low,
            coxlow.cli.main, coxlow.BasedRootSystem.root_depth) == originals


def test_self_times_sum_to_at_most_the_wall_time(tracer):
    path = str(ROOT / "demos" / "groups" / "affine-3-3-3.json")
    start = time.perf_counter()
    code, _ = workloads.call_cli(["verify", path, "--max-length", "6"])
    wall = time.perf_counter() - start
    assert code in (0, 3)
    stats = tracer.aggregate()
    assert stats["cli.main"]["calls"] == 1
    assert stats["core.root_depth"]["calls"] > 0
    total_self = sum(st["self_s"] for st in stats.values())
    assert 0 < total_self <= wall
    assert stats["cli.main"]["total_s"] <= wall
    assert all(st["self_s"] >= 0 for st in stats.values())


def test_recursive_builder_total_counts_outermost_calls_only(tracer):
    rs = coxlow.battery_root_system("B3")
    sigma = coxlow.small_roots(rs)
    aut = coxlow.build_automaton(rs, sigma)
    memo = {}
    start = time.perf_counter()
    for mask in aut.states:
        coxlow.construct_low_from_lambda(rs, sigma, mask, _memo=memo)
    wall = time.perf_counter() - start
    m = layer(tracer)
    assert m["conjecture.construct_low_from_lambda.calls"] >= len(aut.states)
    assert m["conjecture.construct_low_from_lambda.total_s"] <= wall
    assert m["conjecture.construct_low_from_lambda.fallback_scans"] == 0


def test_calibration_removes_samples_and_scales_by_speed():
    clock = SpeedClock()
    for k in range(10):                 # samples at half speed
        clock.starts.append(k * 0.1)
        clock.ends.append(k * 0.1 + 2 * REFERENCE_S)
    assert clock.speed(0.2, 0.5) == pytest.approx(2.0)
    # [0.2, 0.5) holds three samples of 2 * REFERENCE_S each
    assert clock.calibrated(0.2, 0.5) == pytest.approx(
        (0.3 - 6 * REFERENCE_S) / 2)


def test_clock_samples_while_running():
    clock = SpeedClock()
    clock.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
    finally:
        clock.stop()
    assert len(clock.starts) >= 4
    assert clock.calibrated(start, start + 0.35) > 0


def test_speed_samples_count_in_no_self_time():
    tr = Tracer()

    def work():
        start = time.perf_counter()
        time.sleep(0.02)                # stands for a speed sample
        tr.record_sample(start, time.perf_counter())

    tr.span("layer.work", work)()
    st = tr.aggregate()["layer.work"]
    assert st["total_s"] >= 0.02 > st["self_s"] >= 0


def test_battery_job_passes_its_checks(tmp_path):
    jobs = workloads.battery_proof(ROOT, tmp_path, 1, names=["A3", "universal"])
    tally = run.Tally(expected.KNOWN_DEFECTS)
    passes = run.run_passes(jobs, 0, 0, tally)
    assert len(passes) == 1 and len(passes[0]) == 6
    assert tally.attempted > 0 and tally.failed == 0, tally.unexpected


def test_wrong_expected_answer_raises_fail_frac(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.SIGMA, "A3", 7)
    jobs = workloads.battery_proof(ROOT, tmp_path, 1, names=["A3"])
    tally = run.Tally(expected.KNOWN_DEFECTS)
    run.run_passes(jobs, 0, 0, tally)
    assert tally.failed == 1
    assert tally.unexpected and "|Sigma|" in tally.unexpected[0]
    metrics = run.end_to_end([(1.0, [1.0])], [0.1], tally)
    assert metrics["pass_frac"][0] == 1 - 1 / tally.attempted


def test_known_defect_counts_as_failed_but_not_incorrect():
    job = Job("walk", lambda: 5, [Check("level", expected.CROSS_CHECK,
                                        lambda a: (a, 4))])
    tally = run.Tally({("walk", "level"): 5})
    tally.check([job], [job.run()])
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, [])
    other = run.Tally({("walk", "level"): 6})
    other.check([job], [job.run()])
    assert other.failed == 1 and other.unexpected


def test_job_that_raises_fails_all_its_checks():
    def boom():
        raise ValueError("no")
    job = Job("boom", boom, [Check("a", expected.RECORDED, lambda a: (a, 1)),
                             Check("b", expected.RECORDED, lambda a: (a, 2))])
    tally = run.Tally({})
    _, answers = run.run_pass([job])
    tally.check([job], answers)
    assert (tally.attempted, tally.failed, len(tally.unexpected)) == (2, 2, 2)


def test_short_walk_agrees_with_shortlex_counts(tmp_path):
    jobs = workloads.deep_walk(ROOT, tmp_path, 1, length=12)
    tally = run.Tally(expected.KNOWN_DEFECTS)
    run.run_passes(jobs, 0, 0, tally)
    assert (tally.attempted, tally.failed) == (13, 0)


def test_light_cli_inputs_follow_the_seed(tmp_path):
    first = workloads.light_cli(ROOT, tmp_path / "a", 7, n_random=3)
    again = workloads.light_cli(ROOT, tmp_path / "b", 7, n_random=3)
    other = workloads.light_cli(ROOT, tmp_path / "c", 8, n_random=3)
    labels = [job.label for job in first]
    assert labels == [job.label for job in again]
    assert labels != [job.label for job in other]
    assert len(labels) == 4 * (5 + 16 + 3)
    tally = run.Tally(expected.KNOWN_DEFECTS)
    run.run_passes(first, 0, 0, tally)
    assert tally.failed == 0, tally.unexpected


def test_dominance_table_covers_every_bond_triple():
    import itertools
    for bonds in itertools.combinations_with_replacement(
            workloads.RANDOM_BONDS, 3):
        assert workloads.bond_key(bonds) in workloads.DOMINANCE


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 50) == 500
    assert run.percentile(values, 99) == 990
    assert run.percentile([3.0], 99) == 3.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "light-cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
