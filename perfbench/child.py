"""Work run inside a fresh interpreter, driven by run.py.

Usage: ``PYTHONPATH=src python3 perfbench/child.py < spec.json``.  The spec
names a mode:

* ``import``: time ``import convpow`` and nothing else;
* ``warm``: import, fill the f_n tables, then call ``f_eval`` on the given
  points in a closed loop: in slices with a warm control after each, or,
  if traced, in alternating untraced and traced slices;
* ``cli``: import, install spans, optionally call the f_n layers bottom-up,
  then run the CLI's ``main`` on the given arguments.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

from spans import Tracer, install

# Whole span trees are kept for this many requests of a traced warm loop.
WARM_KEEP_REQUESTS = 20
# A warm loop runs in slices of this length.  Untraced, a warm control
# follows each slice, so that the slice's times can be scaled by the
# controls around it.  Traced, untraced and traced slices alternate, so
# that a change in the host's speed falls on both alike.
SLICE_S = 0.5


def _import_convpow() -> dict:
    start = time.perf_counter()
    import convpow

    return {
        "import_ms": (time.perf_counter() - start) * 1e3,
        "scipy": "scipy" in sys.modules,
        "file": convpow.__file__,
    }


def _q_list_misses(tracer: Tracer) -> int | None:
    return tracer.cache_misses(("qcoeff.log_expansion_q_list",))


def _warm_phase(requests, first: int, seconds: float, tracer: Tracer | None) -> tuple[list, int, float]:
    import convpow

    f_eval = convpow.f_eval  # looked up after install, so the span wrapper when traced
    results = []
    i = first
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        n, y = requests[i % len(requests)]
        if tracer is not None:
            tracer.begin()
            misses = tracer.cache_misses()
        start = time.perf_counter()
        try:
            value, error = float(f_eval(n, y).value), None
        except Exception:
            value, error = None, traceback.format_exc(limit=3)
        latency_ms = (time.perf_counter() - start) * 1e3
        if tracer is not None:
            tracer.counts["tables.hit"] += misses is not None and tracer.cache_misses() == misses
            tracer.end()
        results.append((i, value, latency_ms, error))
        i += 1
    return results, i, time.perf_counter() - begin


def warm(spec: dict) -> dict:
    start = time.perf_counter()
    out = _import_convpow()
    import convpow

    for n in spec["levels"]:
        convpow.make_f_evaluator(n)
    out["setup_s"] = time.perf_counter() - start
    if spec["seconds"] <= 0:
        return out
    requests = spec["requests"]
    if not spec["trace"]:
        import control  # after the timed import, which it must not speed up

        out["untraced"], out["untraced_s"], out["slices"] = [], 0.0, []
        out["controls_ms"] = [control.warm_ms()]
        i = 0
        begin = time.perf_counter()
        while time.perf_counter() - begin < spec["seconds"]:
            part, i, elapsed = _warm_phase(requests, i, SLICE_S, None)
            out["controls_ms"].append(control.warm_ms())
            out["untraced"] += part
            out["untraced_s"] += elapsed
            out["slices"].append(len(part))
        return out
    tracer = Tracer(keep_requests=WARM_KEEP_REQUESTS)
    out["untraced"], out["traced"], out["untraced_s"] = [], [], 0.0
    before = after = None
    i = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < spec["seconds"]:
        part, i, elapsed = _warm_phase(requests, i, SLICE_S, None)
        out["untraced"] += part
        out["untraced_s"] += elapsed
        uninstall = install(tracer)
        if before is None:
            before = _q_list_misses(tracer)
        part, i, _ = _warm_phase(requests, i, SLICE_S, tracer)
        out["traced"] += part
        after = _q_list_misses(tracer)
        uninstall()
    out["q_list_cache_misses"] = after - before if after is not None else None
    out["trace"] = tracer.summary()
    return out


def cli(spec: dict) -> dict:
    out = _import_convpow()
    import convpow.cli
    import convpow.fdecomp as fdecomp
    import convpow.qcoeff as qcoeff
    import convpow.series as series

    tracer = Tracer(keep_requests=1 if spec.get("keep") else 0)
    install(tracer)
    tracer.begin()
    bottom_up = spec.get("bottom_up")
    if bottom_up:
        # Each layer in turn, so each span is what that layer adds beyond the
        # caches below it.  The arguments are spelled out as the CLI and the
        # layers pass them, since lru_cache keys on the arguments as given.
        n, y = bottom_up
        order, prec = series.DEFAULT_ORDER, series.DEFAULT_PREC
        qcoeff.log_expansion_q_list(n, order)
        for m in range(1, n + 1):
            fdecomp.build_j_iterate(m, order)
        fdecomp.beta_table(n, order, prec)
        fdecomp.f_eval(n, y, order, prec)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out["exit"] = convpow.cli.main(spec["argv"])
    out["q_list_cache_misses"] = _q_list_misses(tracer)
    out["tables_hit"] = tracer.cache_misses() == 0
    tracer.end()
    out["payload"] = json.loads(buf.getvalue()) if out["exit"] in (0, 1) else None
    out["trace"] = tracer.summary()
    return out


MODES = {"import": lambda spec: _import_convpow(), "warm": warm, "cli": cli}


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    print(json.dumps(MODES[spec["mode"]](spec)))
