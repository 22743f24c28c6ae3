"""Statistics, correctness checks and the environment record of a run."""

from __future__ import annotations

import importlib.metadata
import math
import os
import platform
import re
import statistics
import subprocess
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
#: A value further than this from the reference fails its request.
ABS_TOL = 1e-6
#: A value further than this, relative to the reference, is a relative miss.
REL_TOL = 1e-6
#: Samples that must lie beyond a percentile before it counts as a tail.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank p-th percentile of ``count``."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail_percentile(count: int, candidates=(99.9, 99, 90, 50)) -> float | None:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    for p in candidates:
        if beyond(count, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def host_scale(before_ms: float, after_ms: float, reference_ms: float) -> float:
    """Factor that scales a time measured between two control runs to the
    host speed at which the control takes ``reference_ms``."""
    return 2.0 * reference_ms / (before_ms + after_ms)


def scaled(values, scales) -> list[float]:
    return [v * s for v, s in zip(values, scales, strict=True)]


def mix_throughput(latencies_ms, kinds) -> float:
    """Requests per second of a closed loop over equally likely request kinds,
    each at its median latency.

    The workloads draw every kind equally often, so this is the rate the
    loop reaches at each kind's typical cost.  A slow spell of the host
    that catches a minority of one kind's requests leaves it unchanged,
    whereas it moves completed requests over elapsed time in full.
    """
    by_kind: dict = {}
    for kind, ms in zip(kinds, latencies_ms, strict=True):
        by_kind.setdefault(kind, []).append(ms)
    if not by_kind:
        raise ValueError("throughput of no samples")
    return 1e3 * len(by_kind) / sum(statistics.median(v) for v in by_kind.values())


def classify(value, ref: float) -> tuple[bool, bool]:
    """(failed, relative miss) for one value against its reference.

    A missing value fails and is no relative miss, since nothing was
    checked; callers leave it out of the checked count.
    """
    if value is None:
        return True, False
    err = abs(value - ref)
    if not math.isfinite(err):
        return True, True
    return err > ABS_TOL, err > REL_TOL * abs(ref)


def environment(root: Path) -> dict:
    """Machine and software versions to print beside every result."""
    try:
        import mpmath.libmp

        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = "unavailable"
    versions = {}
    for dist in ("mpmath", "numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "absent"
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "mpmath_backend": backend,
        **versions,
        "commit": commit,
    }
