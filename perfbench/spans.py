"""Spans around calls into convpow's public functions, installed from outside.

`install` replaces each target function, in every loaded convpow module
that refers to it, with a wrapper recording a span: name, start, end and
the enclosing span.  Calls between convpow modules go through module
globals, so a span opens at every boundary the program crosses, not only
at the calls the benchmark makes itself.  Nothing inside ``src/`` changes.

A span's request is the one open in the `Tracer` when it starts.  The
tracer aggregates as it goes -- per-call durations per name and, per
request, the inclusive time of the outermost span of each name -- and
keeps whole span records only for the first requests, to bound memory.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, public function).  The Cauchy product PowerSeriesInvX.__mul__ is
# wrapped separately, as "series.mul".
TARGETS = (
    ("combinatorics", "stirling1_unsigned"),
    ("series", "backward_diff"),
    ("series", "series_eval"),
    ("series", "logseries_eval"),
    ("amatrix", "compute_a_matrix"),
    ("qcoeff", "log_expansion_q_list"),
    ("qcoeff", "q_via_recurrence"),
    ("qcoeff", "q_closed_form"),
    ("fdecomp", "build_j_iterate"),
    ("fdecomp", "beta_table"),
    ("fdecomp", "make_f_evaluator"),
    ("fdecomp", "f_eval"),
    ("fdecomp", "reflection_residual"),
    ("convolution", "conv_power_quadrature"),
    ("convolution", "reconstruct_from_f"),
    ("convolution", "f_quadrature_oracle"),
    ("quadrature", "adaptive_quad"),
    ("quadrature", "cumulative_simpson_uniform"),
    ("cli", "main"),
)

#: lru_cached functions that build tables; a miss means a request built one again.
TABLE_CACHES = ("qcoeff.log_expansion_q_list", "fdecomp.build_j_iterate", "fdecomp.beta_table", "fdecomp.make_f_evaluator")


class Tracer:
    """Span recorder for one process; requests are delimited by begin/end."""

    def __init__(self, keep_requests: int = 1):
        self.keep_requests = keep_requests
        self.records: list[tuple] = []  # (request, span, parent, name, start_ns, end_ns)
        self.calls: dict[str, array] = defaultdict(lambda: array("d"))  # per-call microseconds
        self.requests: list[dict[str, float]] = []  # per request: name -> inclusive ms
        self.counts: Counter = Counter()
        self.originals: dict = {}
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._next = 0
        self._request = -1
        self._current: dict[str, float] | None = None

    def begin(self) -> None:
        self._request += 1
        self._current = defaultdict(float)

    def end(self) -> None:
        self.requests.append(dict(self._current))
        self._current = None

    def wrap(self, name: str, fn, when=None, observe=None):
        """Span every call of ``fn`` (for which ``when(args)`` holds)."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            span = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span)
            self._open[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._open[name] -= 1
                self._close(span, parent, name, start, end)
            if observe is not None:
                observe(self, result)
            return result

        self.originals[name] = fn
        return spanned

    def _close(self, span, parent, name, start, end) -> None:
        self.calls[name].append((end - start) / 1e3)
        if self._current is not None and not self._open[name]:
            self._current[name] += (end - start) / 1e6
        if self._request < self.keep_requests:
            self.records.append((self._request, span, parent, name, start, end))

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def cache_misses(self, names=TABLE_CACHES) -> int | None:
        """Total misses of the named lru caches; None when none has cache_info."""
        infos = [getattr(self.originals.get(n), "cache_info", None) for n in names]
        infos = [i for i in infos if i is not None]
        return sum(i().misses for i in infos) if infos else None

    def summary(self) -> dict:
        return {
            "calls": {k: list(v) for k, v in self.calls.items()},
            "requests": self.requests,
            "counts": dict(self.counts),
            "records": self.records,
        }


def _observe_series_eval(tracer: Tracer, result) -> None:
    tracer.counts["series.series_eval.reliable"] += bool(getattr(result, "tail_reliable", False))
    if tracer.inside("fdecomp.f_eval"):
        tracer.counts["series.series_eval.in_f_eval"] += 1


def install(tracer: Tracer):
    """Wrap every target present in the loaded convpow modules; returns a
    function that puts the originals back.

    A target a later version renames or removes is skipped; its metrics
    then read 0, which shows in the per-layer report.
    """
    restore: list[tuple] = []

    def replace(owner, key, new, setter=setattr):
        restore.append((owner, key, getattr(owner, key) if setter is setattr else owner[key], setter))
        setter(owner, key, new)

    modules = [m for name, m in sys.modules.items() if name == "convpow" or name.startswith("convpow.")]
    for modname, attr in TARGETS:
        fn = getattr(sys.modules.get(f"convpow.{modname}"), attr, None)
        if fn is None:
            continue
        observe = _observe_series_eval if attr == "series_eval" else None
        wrapped = tracer.wrap(f"{modname}.{attr}", fn, observe=observe)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    replace(m, key, wrapped)
    cls = getattr(sys.modules.get("convpow.series"), "PowerSeriesInvX", None)
    if cls is not None:
        # Scalar products are bookkeeping; only Cauchy products count as "mul".
        fn = cls.__mul__
        wrapped = tracer.wrap("series.mul", fn, when=lambda args: isinstance(args[1], cls))
        for key in ("__mul__", "__rmul__"):
            if cls.__dict__.get(key) is fn:
                replace(cls, key, wrapped)
    suites = getattr(sys.modules.get("convpow.verify"), "SUITES", None)
    if isinstance(suites, dict):
        for key, fn in list(suites.items()):
            replace(suites, key, tracer.wrap(f"verify.{key}", fn), setter=dict.__setitem__)

    def uninstall() -> None:
        for owner, key, original, setter in reversed(restore):
            setter(owner, key, original)

    return uninstall
