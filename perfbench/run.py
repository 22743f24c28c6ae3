"""convpow benchmark: two closed-loop workloads with one client.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``
through PYTHONPATH, nothing is installed.  Workloads (see README.md beside
this file for why each exists and what each metric should move):

* ``cold-cli``: a fresh ``python -m convpow.cli`` per request, in blocks of
  ``eval <n> <y> --skip-oracles`` for n = 1..10 (y = 20 u^2) plus one
  ``verify all``;
* ``warm-grid``: one long-lived interpreter calling ``convpow.f_eval(n, y)``
  with every table cached, n = 1..9.

Child interpreters run one at a time.  The host's speed drifts, so every
untraced request or slice of requests sits between two runs of a fixed
control program (control.py), and the end-to-end times are scaled to the
host speed at which the control takes its reference time.  Every f_n value
is checked against the benchmark's own quadrature reference (reference.py),
computed after the timed loop.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` interleaves untraced requests with requests that
record spans around every call into convpow's modules, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import control
import inputs
import measure
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
CONTROL = BENCH / "control.py"
TRACE_DIR = BENCH / "traces"

IMPORT_PROBES = 5
WARM_SETUPS = 3  # setup-only children per untraced warm-grid run
REQUEST_TIMEOUT_S = 60
# Wall time of one cold-cli block (eleven requests and their controls) on
# the host the control's reference time was set on.
COLD_BLOCK_S = 22.0
WARM_POINTS_PER_S = 2000  # points generated per measured second, well above the rate reached

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Printed on every untraced run but not bounded: on cold-cli a run has about
# 33 requests, so p90 and p99 are its few slowest requests, which swing with
# the host's speed far more than any bound allows.
PRINTED_TAILS = (90, 99)

VERIFY_SUITES = (
    "table1", "specials", "stirling", "dualpath", "closedforms",
    "beta", "oracle", "reflection", "derivative", "elimination",
)

# Per-layer metric -> the span it reads.  "_ms": inclusive time of that
# function's outermost spans in one request, median over the requests that
# call it.  "_us": duration per call, median over calls.  No calls read 0.
PER_REQUEST_MS = {
    "combinatorics.stirling1_unsigned_ms": "combinatorics.stirling1_unsigned",
    "amatrix.compute_a_matrix_ms": "amatrix.compute_a_matrix",
    "qcoeff.log_expansion_q_list_ms": "qcoeff.log_expansion_q_list",
    "qcoeff.q_via_recurrence_ms": "qcoeff.q_via_recurrence",
    "qcoeff.q_closed_form_ms": "qcoeff.q_closed_form",
    "fdecomp.build_j_iterate_ms": "fdecomp.build_j_iterate",
    "fdecomp.beta_table_ms": "fdecomp.beta_table",
    "fdecomp.reflection_residual_ms": "fdecomp.reflection_residual",
    "convolution.f_quadrature_oracle_ms": "convolution.f_quadrature_oracle",
    "convolution.conv_power_quadrature_ms": "convolution.conv_power_quadrature",
    **{f"verify.{s}_ms": f"verify.{s}" for s in VERIFY_SUITES},
}
PER_CALL_US = {
    "series.mul_us": "series.mul",
    "series.backward_diff_us": "series.backward_diff",
    "series.series_eval_us": "series.series_eval",
    "series.logseries_eval_us": "series.logseries_eval",
    "convolution.reconstruct_from_f_us": "convolution.reconstruct_from_f",
    "quadrature.adaptive_quad_us": "quadrature.adaptive_quad",
    "quadrature.cumulative_simpson_uniform_us": "quadrature.cumulative_simpson_uniform",
}
PER_LAYER = (
    ("import.convpow_ms", "ms"),
    ("import.scipy_loaded", "share"),
    ("cli.startup_ms", "ms"),
    ("cli.elapsed_ms", "ms"),
    ("qcoeff.q_list_cache_misses", "count"),
    ("fdecomp.f_eval_first_ms", "ms"),
    ("fdecomp.f_eval_warm_us", "us"),
    ("fdecomp.table_hit_share", "share"),
    ("series.tail_reliable_share", "share"),
    ("series.series_eval_per_f_eval", "count"),
    ("verify.checks_failed", "count"),
    ("workload.repeat_share", "share"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.spans_per_request", "count"),
    *((name, "ms") for name in PER_REQUEST_MS),
    *((name, "us") for name in PER_CALL_US),
)


class Run:
    """What one benchmark run observed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.values: list[tuple[int, float, float | None]] = []  # (n, y, value) to check
        self.latencies_ms: list[float] = []  # untraced requests
        self.kinds: list = []  # request kind of each untraced latency: n, or "verify"
        self.scales: list[float] = []  # host-speed factor of each untraced latency
        self.traced_latencies_ms: list[float] = []
        self.measured_s = 0.0  # time spent in untraced requests
        self.setups_s: list[float] = []
        self.setup_scales: list[float] = []  # host-speed factor of each set-up
        self.imports: list[tuple[float, bool]] = []  # (ms, scipy loaded) per child import
        self.cli: list[tuple[float, float]] = []  # (wall ms, elapsed_ms) per untraced CLI request
        self.inputs: list = []  # untraced request inputs, for the repeat share
        self.traces: list[dict] = []  # span summaries, one per traced process
        self.misses: float | None = None  # log_expansion_q_list misses over traced requests
        self.table_hits = 0
        self.checks_failed = 0
        self.rel_misses = 0
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.note(why)

    def note(self, why: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(why.strip()[-400:])


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], stdin: str | None = None, timeout: float = REQUEST_TIMEOUT_S):
    """Run one child to completion; returns (exit code or None on timeout, stdout, stderr, wall s)."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=_env(), input=stdin, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        return None, "", f"timed out after {exc.timeout} s", time.perf_counter() - start
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def _child(spec: dict, timeout: float = REQUEST_TIMEOUT_S) -> tuple[dict | None, str, float]:
    code, out, err, wall = _run([sys.executable, str(CHILD)], json.dumps(spec), timeout)
    if code != 0 or not out.strip():
        return None, f"child {spec['mode']} exit {code}: {err}", wall
    return json.loads(out.strip().splitlines()[-1]), "", wall


def _cold_control() -> float:
    """Wall time of one cold control child, in ms."""
    code, _, err, wall = _run([sys.executable, str(CONTROL)])
    if code != 0:
        raise RuntimeError(f"control exit {code}: {err}")
    return wall * 1e3


def _setups(run: Run, count: int, spec: dict, seconds) -> None:
    """``count`` set-up children, each between two cold controls; ``seconds``
    reads the set-up time from a child's result."""
    before = _cold_control()
    for _ in range(count):
        got, err, _ = _child(spec)
        if got is None:
            raise RuntimeError(err)
        after = _cold_control()
        run.setups_s.append(seconds(got))
        run.setup_scales.append(measure.host_scale(before, after, control.COLD_MS))
        before = after


def _check_import(got: dict) -> None:
    if not Path(got["file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"convpow imported from {got['file']}, not from {ROOT / 'src'}")


def _import_s(got: dict) -> float:
    _check_import(got)
    return got["import_ms"] / 1e3


def _cli_request(run: Run, args: list[str]) -> tuple[int | None, dict | None]:
    """One untraced CLI request: its exit code and JSON payload (None if unreadable)."""
    run.attempted += 1
    code, out, err, wall = _run([sys.executable, "-m", "convpow.cli", *args])
    run.latencies_ms.append(wall * 1e3)
    try:
        payload = json.loads(out) if code in (0, 1) else None
    except json.JSONDecodeError:
        payload = None
    if payload is None:
        run.note(f"{args}: exit {code}: {err}")
    else:
        run.cli.append((wall * 1e3, payload["elapsed_ms"]))
    return code, payload


def _traced_request(run: Run, spec: dict) -> tuple[int | None, dict | None]:
    """One traced child running the CLI: its exit code and JSON payload."""
    run.attempted += 1
    spec = {"mode": "cli", "keep": not run.traces, **spec}
    got, err, wall = _child(spec)
    run.traced_latencies_ms.append(wall * 1e3)
    if got is None:
        run.note(err)
        return None, None
    _check_import(got)
    run.imports.append((got["import_ms"], got["scipy"]))
    run.traces.append(got["trace"])
    _add_misses(run, got["q_list_cache_misses"])
    run.table_hits += got["tables_hit"]
    return got["exit"], got["payload"]


def _add_misses(run: Run, misses: int | None) -> None:
    """Add a process's cache misses; None means its version keeps no cache_info."""
    if misses is not None:
        run.misses = (run.misses or 0) + misses


def _eval_result(run: Run, n: int, y: float, code: int | None, payload: dict | None) -> None:
    """Queue the value for checking, or count the request failed if it gave none."""
    if code == 0 and payload is not None:
        run.values.append((n, y, payload["results"]["series"]))
    else:
        run.fail(f"eval {n} {y!r}: exit {code}")
        run.values.append((n, y, None))


def _verify_result(run: Run, code: int | None, payload: dict | None) -> None:
    """Count the request failed on a non-zero exit, a failed check or no checks at all."""
    checks = payload["checks"] if payload is not None else []
    bad = [c["name"] for c in checks if not c["ok"]]
    run.checks_failed += len(bad)
    if code != 0 or bad or not checks:
        run.fail(f"verify all: exit {code}, failed checks {bad[:5]}, {len(checks)} checks")


def _cold_request(run: Run, request: tuple, traced: bool) -> None:
    if request == inputs.VERIFY:
        argv = ["verify", "all"]
        got = _traced_request(run, {"argv": argv}) if traced else _cli_request(run, argv)
        _verify_result(run, *got)
        return
    _, n, y = request
    argv = ["eval", str(n), repr(y), "--skip-oracles"]
    got = _traced_request(run, {"argv": argv, "bottom_up": [n, y]}) if traced else _cli_request(run, argv)
    _eval_result(run, n, y, *got)


def cold_blocks(seconds: float) -> int:
    """Whole blocks in a cold-cli run: as many as fill ``seconds`` on the
    reference host, and at least two, so that the median has 11 samples
    beyond it.  The count depends on ``seconds`` alone: every run of a seed
    sends the same requests, however fast the host is that minute."""
    return max(2, round(seconds / COLD_BLOCK_S))


def cold_cli(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    if not trace:
        _setups(run, IMPORT_PROBES, {"mode": "import"}, _import_s)
        before = _cold_control()
    for block in inputs.cold_cli_blocks(seed, cold_blocks(seconds)):
        for request in block:
            run.inputs.append(request)
            run.kinds.append("verify" if request == inputs.VERIFY else request[1])
            _cold_request(run, request, traced=False)
            if trace:
                # Right after the untraced one, so a change in the host's speed falls on both alike.
                _cold_request(run, request, traced=True)
            else:
                after = _cold_control()
                run.scales.append(measure.host_scale(before, after, control.COLD_MS))
                before = after
    run.measured_s = sum(run.latencies_ms) / 1e3  # the controls between requests left out
    return run


def warm_grid(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    levels = list(inputs.WARM_LEVELS)
    if not trace:
        _setups(run, WARM_SETUPS, {"mode": "warm", "levels": levels, "seconds": 0}, lambda got: got["setup_s"])
    requests = inputs.warm_grid_requests(seed, int(WARM_POINTS_PER_S * seconds) + 1)
    spec = {"mode": "warm", "levels": levels, "seconds": seconds, "trace": trace, "requests": requests}
    got, err, _ = _child(spec, timeout=seconds + 2 * REQUEST_TIMEOUT_S)
    if got is None:
        raise RuntimeError(err)
    _check_import(got)
    run.imports.append((got["import_ms"], got["scipy"]))
    run.measured_s = got["untraced_s"]
    controls = got.get("controls_ms", [])
    for k, count in enumerate(got.get("slices", ())):
        run.scales += [measure.host_scale(controls[k], controls[k + 1], control.WARM_MS)] * count
    for phase, latencies in (("untraced", run.latencies_ms), ("traced", run.traced_latencies_ms)):
        for i, value, latency_ms, error in got.get(phase, ()):
            n, y = requests[i % len(requests)]
            run.attempted += 1
            latencies.append(latency_ms)
            run.values.append((n, y, value))
            if phase == "untraced":
                run.inputs.append((n, y))
                run.kinds.append(n)
            if error:
                run.fail(error)
    if trace:
        run.traces.append(got["trace"])
        _add_misses(run, got["q_list_cache_misses"])
        run.table_hits += got["trace"]["counts"].get("tables.hit", 0)
    return run


WORKLOADS = {"cold-cli": cold_cli, "warm-grid": warm_grid}


def check_values(run: Run) -> None:
    """Judge every returned f_n value against the reference (outside the timed loops)."""
    refs = reference.references((n, y) for n, y, _ in run.values)
    for (n, y, value), ref in zip(run.values, refs):
        failed, miss = measure.classify(value, ref)
        run.rel_misses += miss
        if failed and value is not None:
            run.fail(f"f_{n}({y!r}) = {value!r}, reference {ref!r}")


def end_to_end(run: Run) -> dict[str, float]:
    """Times scaled to the control's reference host speed; memory as measured."""
    lat = measure.scaled(run.latencies_ms, run.scales)
    return {
        "latency_p50_ms": measure.median(lat),
        "throughput_per_s": measure.mix_throughput(lat, run.kinds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "setup_s": measure.median(measure.scaled(run.setups_s, run.setup_scales)),
    }


def per_layer(run: Run) -> dict[str, float]:
    calls: dict[str, list[float]] = {}
    requests: list[dict] = []
    counts: Counter = Counter()
    first_f_eval, warm_f_eval = [], []
    for summary in run.traces:
        for name, durations in summary["calls"].items():
            calls.setdefault(name, []).extend(durations)
        f_evals = summary["calls"].get("fdecomp.f_eval", [])
        first_f_eval.extend(f_evals[:1])
        warm_f_eval.extend(f_evals[1:])
        requests.extend(summary["requests"])
        counts.update(summary["counts"])
    n_req = max(len(requests), 1)
    series_evals = len(calls.get("series.series_eval", []))
    f_eval_calls = len(calls.get("fdecomp.f_eval", []))
    untraced = measure.median(run.latencies_ms)
    overhead = measure.median(run.traced_latencies_ms) - untraced
    metrics = {
        "import.convpow_ms": measure.median([ms for ms, _ in run.imports]),
        "import.scipy_loaded": sum(s for _, s in run.imports) / max(len(run.imports), 1),
        "cli.startup_ms": measure.median([wall - elapsed for wall, elapsed in run.cli]),
        "cli.elapsed_ms": measure.median([elapsed for _, elapsed in run.cli]),
        "fdecomp.f_eval_first_ms": measure.median(first_f_eval) / 1e3,
        "fdecomp.f_eval_warm_us": measure.median(warm_f_eval),
        "fdecomp.table_hit_share": run.table_hits / n_req,
        "series.tail_reliable_share": counts["series.series_eval.reliable"] / max(series_evals, 1),
        "series.series_eval_per_f_eval": counts["series.series_eval.in_f_eval"] / max(f_eval_calls, 1),
        "verify.checks_failed": run.checks_failed,
        "workload.repeat_share": repeat_share(run.inputs),
        "trace.overhead_ms": overhead,
        "trace.overhead_share": overhead / untraced if untraced else 0.0,
        "trace.spans_per_request": sum(len(v) for v in calls.values()) / n_req,
    }
    if run.misses is not None:  # absent, not 0, when the cache cannot be read
        metrics["qcoeff.q_list_cache_misses"] = run.misses / n_req
    for metric, span in PER_REQUEST_MS.items():
        metrics[metric] = measure.median([r[span] for r in requests if span in r])
    for metric, span in PER_CALL_US.items():
        metrics[metric] = measure.median(calls.get(span, []))
    return metrics


def repeat_share(requests: list) -> float:
    """Share of requests whose input already appeared earlier in the run."""
    seen = set()
    repeats = 0
    for r in requests:
        repeats += r in seen
        seen.add(r)
    return repeats / len(requests) if requests else 0.0


def write_trace(run: Run, workload: str, seed: int, env: dict, metrics: dict) -> Path:
    """Span records of the first traced request(s), plus the metrics they gave."""
    TRACE_DIR.mkdir(exist_ok=True)
    spans = [
        {"process": p, "request": r, "span": s, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
        for p, summary in enumerate(run.traces)
        for r, s, parent, name, start, end in summary["records"]
    ]
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "env": env, "metrics": metrics, "spans": spans}))
    return path


def report(workload: str, seed: int, seconds: float, trace: bool, run: Run, env: dict) -> dict:
    """Print the human-readable report; return the metrics for the result line."""
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = per_layer(run) if trace else end_to_end(run)
    checked = sum(v is not None for _, _, v in run.values)
    print(f"# convpow benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("# env " + json.dumps(env))
    tail = measure.tail_percentile(len(run.latencies_ms))
    print(
        f"# requests: {run.attempted} attempted, {run.failed} failed, {len(run.latencies_ms)} untraced "
        f"latency samples; highest percentile with >= {measure.TAIL_MIN_BEYOND} samples beyond it: "
        + (f"p{tail:g}" if tail else "none")
    )
    print(f"{'error_rate':<42} {run.failed / max(run.attempted, 1):<24.10g} 1  ({run.failed} of {run.attempted})")
    if checked:
        print(f"{'rel_miss_rate':<42} {run.rel_misses / checked:<24.10g} 1  ({run.rel_misses} of {checked} values)")
    if not trace:
        lat = measure.scaled(run.latencies_ms, run.scales)
        for p in PRINTED_TAILS:
            beyond = measure.beyond(len(lat), p)
            print(f"{f'latency_p{p}_ms':<42} {measure.percentile(lat, p):<24.10g} ms  ({beyond} samples beyond)")
        # The same figures unscaled, and the host-speed factors that scaled them.
        raw = {
            "raw.latency_p50_ms": (measure.median(run.latencies_ms), "ms"),
            "raw.completed_per_s": (len(run.latencies_ms) / run.measured_s, "1/s"),
            "raw.setup_s": (measure.median(run.setups_s), "s"),
            "host.scale_median": (measure.median(run.scales), "1"),
            "host.scale_min": (min(run.scales), "1"),
            "host.scale_max": (max(run.scales), "1"),
        }
        for name, (value, unit) in raw.items():
            print(f"{name:<42} {value:<24.10g} {unit}")
    for name, value in metrics.items():
        print(f"{name:<42} {value:<24.10g} {units[name]}")
    if trace:
        print(f"# spans written to {write_trace(run, workload, seed, env, metrics).relative_to(ROOT)}")
    for err in run.errors:
        print("# error: " + err.replace("\n", " | "))
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "convpow" / "__init__.py").is_file():
        print(f"error: no convpow sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    env = measure.environment(ROOT)
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    check_values(run)
    metrics = report(args.workload, args.seed, args.seconds, bool(args.trace), run, env)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
