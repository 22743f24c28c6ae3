"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import control  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer, install  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_same_seed_same_requests_other_seed_other_requests():
    assert inputs.cold_cli_blocks(7, 4) == inputs.cold_cli_blocks(7, 4)
    assert inputs.warm_grid_requests(7, 500) == inputs.warm_grid_requests(7, 500)
    assert inputs.cold_cli_blocks(7, 4) != inputs.cold_cli_blocks(8, 4)
    assert inputs.warm_grid_requests(7, 500) != inputs.warm_grid_requests(8, 500)


def test_every_block_covers_each_level_once():
    for block in inputs.cold_cli_blocks(3, 5):
        assert block.count(inputs.VERIFY) == 1
        assert sorted(r[1] for r in block if r != inputs.VERIFY) == list(inputs.COLD_LEVELS)
    size = len(inputs.WARM_LEVELS)
    points = inputs.warm_grid_requests(3, 10 * size)
    for i in range(0, 10 * size, size):
        assert sorted(n for n, _ in points[i : i + size]) == list(inputs.WARM_LEVELS)
    assert all(0 <= y < inputs.Y_SCALE for _, y in points)


def test_metric_names_match_the_spec_and_the_name_rule():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert measure.NAME_RE.fullmatch(name), name
        assert len(name) <= 64
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_tail_percentile_has_ten_samples_beyond_it():
    assert measure.tail_percentile(9) is None
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(99) == 50
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(999) == 90
    assert measure.tail_percentile(1000) == 99
    for count in range(1, 3000, 7):
        p = measure.tail_percentile(count)
        if p is not None:
            assert measure.beyond(count, p) >= measure.TAIL_MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 99) == 99
    assert measure.percentile([5.0], 99) == 5.0


def test_mix_throughput_uses_each_kinds_median():
    # Kinds 1 and 2 at 100 ms and 300 ms: two requests per 0.4 s.
    kinds = [1, 2, 1, 2, 1, 2]
    assert measure.mix_throughput([100, 300, 100, 300, 100, 300], kinds) == pytest.approx(5.0)
    # One request of each kind caught in a slow spell does not move it.
    assert measure.mix_throughput([100, 300, 900, 300, 100, 2000], kinds) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        measure.mix_throughput([], [])


def test_host_scale_maps_times_to_the_reference_speed():
    assert measure.host_scale(650.0, 650.0, 650.0) == 1.0
    # Controls at twice their reference time: the host ran at half speed.
    assert measure.host_scale(1200.0, 1400.0, 650.0) == pytest.approx(0.5)
    assert measure.scaled([10.0, 30.0], [0.5, 2.0]) == [5.0, 60.0]
    with pytest.raises(ValueError):
        measure.scaled([1.0], [])


def test_control_does_fixed_work():
    assert control.work(25) == control.work(25)
    assert control.warm_ms() > 0


def test_cold_block_count_depends_on_seconds_alone():
    assert run.cold_blocks(1) == 2
    assert run.cold_blocks(SPEC["run_seconds"]) == 2
    assert run.cold_blocks(3.2 * run.COLD_BLOCK_S) == 3


def test_wrong_values_are_counted():
    good = float(reference.f_reference(3, [2.0])[0])
    r = run.Run()
    r.attempted = 4
    r.values = [
        (3, 2.0, good),
        (3, 2.0, good + 1e-3),  # absolutely wrong: a failure
        (10, 0.25, 4.57e-18),  # what the series gave at the seed: a relative miss only
        (3, 2.0, None),  # no value at all: a failure
    ]
    run.check_values(r)
    assert r.failed == 1  # the None was already counted by whoever produced it
    assert r.rel_misses == 2
    assert measure.classify(None, 1.0) == (True, False)
    assert measure.classify(float("nan"), 1.0) == (True, True)
    assert measure.classify(1.0 + 2e-6, 1.0) == (True, True)
    assert measure.classify(100.0 + 2e-6, 100.0) == (True, False)
    assert measure.classify(1.0 + 5e-7, 1.0) == (False, False)
    assert measure.classify(2e-9, 1e-9) == (False, True)


def test_reference_matches_independent_values():
    ys = [0.0, 1e-3, 0.5, 3.0, 20.0]
    assert list(reference.f_reference(1, ys)) == [math.log1p(y) for y in ys]
    assert list(reference.f_reference(0, ys)) == [1.0] * len(ys)
    for y in ys[1:]:
        want = float(mpmath.quad(lambda s: mpmath.log1p(s) / (s + 2), [0, y]))
        got = float(reference.f_reference(2, [y])[0])
        assert got == pytest.approx(want, rel=1e-9)
    # The small-y value quoted in ROADMAP.md, from an exact Taylor prototype.
    assert float(reference.f_reference(10, [0.25])[0]) == pytest.approx(5.797e-20, rel=1e-3)


def test_reference_batches_agree_with_single_points():
    points = inputs.warm_grid_requests(5, 40)
    batched = reference.references(points)
    for (n, y), v in zip(points, batched):
        assert v == float(reference.f_reference(n, [y])[0])


def test_repeat_share():
    assert run.repeat_share([]) == 0.0
    assert run.repeat_share([(1, 0.5), (2, 0.5), (1, 0.5), (1, 0.5)]) == 0.5


def test_tracer_nests_spans_and_counts_outermost_time_once():
    tracer = Tracer(keep_requests=1)
    leaf = tracer.wrap("m.leaf", lambda k: k)
    rec = tracer.wrap("m.rec", lambda k: leaf(k) if k == 0 else rec(k - 1))
    tracer.begin()
    assert rec(2) == 0
    tracer.end()
    names = [r[3] for r in tracer.records]
    assert names.count("m.rec") == 3 and names.count("m.leaf") == 1
    by_id = {r[1]: r for r in tracer.records}
    leaf_span = next(r for r in tracer.records if r[3] == "m.leaf")
    assert by_id[leaf_span[2]][3] == "m.rec"  # the leaf's parent is the innermost rec
    outer = max((r for r in tracer.records if r[3] == "m.rec"), key=lambda r: r[5] - r[4])
    assert outer[2] == -1
    assert tracer.requests[0]["m.rec"] == pytest.approx((outer[5] - outer[4]) / 1e6)
    assert len(tracer.calls["m.rec"]) == 3


def test_benchmark_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("traces", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cold-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_install_wraps_calls_between_modules_and_uninstall_restores_them():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import convpow
    import convpow.cli  # noqa: F401 -- loaded so that its names are patched too
    from convpow.series import PowerSeriesInvX

    def snapshot():
        mods = {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "convpow"}
        return mods, dict(convpow.verify.SUITES), PowerSeriesInvX.__dict__["__mul__"]

    before = snapshot()
    tracer = Tracer(keep_requests=1)
    uninstall = install(tracer)
    try:
        tracer.begin()
        convpow.f_eval(2, 1.5)
        tracer.end()
    finally:
        uninstall()
    assert snapshot() == before
    names = {r[3] for r in tracer.records}
    # f_eval reaches logseries_eval and series_eval through fdecomp's and series' own globals.
    assert {"fdecomp.f_eval", "fdecomp.make_f_evaluator", "series.logseries_eval", "series.series_eval"} <= names
