"""Request lists for the benchmark workloads, generated from the seed alone.

Levels are drawn in blocks: each block is a seeded permutation of every
level the workload covers, so n stays uniform while every whole block has
the same level mix.  That keeps the cost mix, and so the latency figures,
from drifting between seeds.  The cost of a request is set by its level,
and the levels' cost ranges barely overlap, so each workload covers an odd
number of request kinds: with an even number the median would fall in the
gap between two kinds and read the extreme of one of them.

The points y = 20 * u**2, u uniform on [0, 1), put a quarter of the
requests below y = 1.25, where f_n is tiny and its relative accuracy is
weakest.
"""

from __future__ import annotations

import random

COLD_LEVELS = tuple(range(1, 11))  # ten evals plus one verify: eleven kinds
WARM_LEVELS = tuple(range(1, 10))
Y_SCALE = 20.0
VERIFY = ("verify",)


def _block(rng: random.Random, levels: tuple[int, ...]) -> list[tuple[int, float]]:
    order = list(levels)
    rng.shuffle(order)
    return [(n, Y_SCALE * rng.random() ** 2) for n in order]


def cold_cli_blocks(seed: int, blocks: int) -> list[list[tuple]]:
    """``blocks`` shuffled blocks of CLI requests: ("eval", n, y) for each
    n = 1..10 once, plus one ``VERIFY``."""
    rng = random.Random(f"cold-cli:{seed}")
    out = []
    for _ in range(blocks):
        block = [("eval", n, y) for n, y in _block(rng, COLD_LEVELS)] + [VERIFY]
        rng.shuffle(block)
        out.append(block)
    return out


def warm_grid_requests(seed: int, count: int) -> list[tuple[int, float]]:
    """``count`` points (n, y) with n in 1..9, in blocks covering each level once."""
    rng = random.Random(f"warm-grid:{seed}")
    out: list[tuple[int, float]] = []
    while len(out) < count:
        out.extend(_block(rng, WARM_LEVELS))
    return out[:count]
