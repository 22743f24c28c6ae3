"""Reference values of f_n(y), computed by the benchmark and sharing no code
with convpow, so that no change to the package can move the yardstick.

f_0 = 1 and f_1(y) = ln(1 + y) exactly.  For k >= 2 the recurrence
f_k(y) = int_0^y f_{k-1}(s) / (s + k) ds is iterated on a uniform grid over
[0, y] with cumulative Simpson sums, starting from the exact f_1 on the
grid.  Each point's grid is doubled until two successive values agree to
RTOL relative to the value; Simpson's error falls 16-fold per doubling, so
the value kept is good to about RTOL / 15.  The grid scales with y, so the
relative accuracy holds near y = 0 too, where f_n(y) ~ y^n / (n!)^2.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
START_PANELS = 256
MAX_PANELS = 1 << 16
# Rows per grid pass: bounds the temporaries to a few MB at the finest grid.
CHUNK = 128


def _cumulative_simpson(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row-wise integral of g from node 0 to every node, step h per row.

    Even nodes take composite Simpson over whole panel pairs.  Odd node i
    adds the integral over [x_{i-1}, x_i] of the parabola through nodes
    i-1, i, i+1, which keeps O(h^4) at every node.
    """
    out = np.zeros_like(g)
    h = h[:, None]
    pairs = (g[:, :-2:2] + 4.0 * g[:, 1:-1:2] + g[:, 2::2]) * (h / 3.0)
    out[:, 2::2] = np.cumsum(pairs, axis=1)
    out[:, 1::2] = out[:, :-1:2] + (5.0 * g[:, :-1:2] + 8.0 * g[:, 1::2] - g[:, 2::2]) * (h / 12.0)
    return out


def _on_grid(n: int, ys: np.ndarray, panels: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, panels + 1)
    s = ys[:, None] * t[None, :]
    f = np.log1p(s)
    for k in range(2, n + 1):
        f = _cumulative_simpson(f / (s + k), ys / panels)
    return f[:, -1]


def f_reference(n: int, ys) -> np.ndarray:
    """f_n at every point of ``ys`` (all >= 0), to about RTOL relative."""
    ys = np.asarray(ys, dtype=float)
    if n < 0 or (ys < 0).any() or not np.isfinite(ys).all():
        raise ValueError(f"reference needs n >= 0 and finite y >= 0, got n={n}")
    if n == 0:
        return np.ones_like(ys)
    if n == 1:
        return np.log1p(ys)
    out = np.empty_like(ys)
    for lo in range(0, ys.size, CHUNK):
        todo = np.arange(lo, min(lo + CHUNK, ys.size))
        panels = START_PANELS
        prev = _on_grid(n, ys[todo], panels)
        while todo.size:
            panels *= 2
            if panels > MAX_PANELS:
                raise ArithmeticError(f"reference for n={n} did not settle at y={ys[todo[:3]]}")
            cur = _on_grid(n, ys[todo], panels)
            done = np.abs(cur - prev) <= RTOL * np.abs(cur)
            out[todo[done]] = cur[done]
            todo, prev = todo[~done], cur[~done]
    return out


def references(points) -> list[float]:
    """Reference values for a list of (n, y), batched by level."""
    points = list(points)
    out = [0.0] * len(points)
    by_level: dict[int, list[int]] = {}
    for i, (n, _) in enumerate(points):
        by_level.setdefault(n, []).append(i)
    for n, idx in by_level.items():
        values = f_reference(n, [points[i][1] for i in idx])
        for i, v in zip(idx, values):
            out[i] = float(v)
    return out
