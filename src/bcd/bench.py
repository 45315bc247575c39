"""Wall-clock benchmarks for the decision procedure and the subtype matrix."""

from __future__ import annotations

import math
import random
import time

from .decide import DecisionCache, subtype_matrix
from .gen import random_expr
from .syntax import node_count


def time_matrix(size: int, seed: int = 0) -> tuple:
    """Wall time of subtype_matrix on a random instance.

    Returns (actual node count, seconds).
    """
    rng = random.Random(seed)
    root = random_expr(rng, size)
    t0 = time.perf_counter()
    subtype_matrix(root)
    return node_count(root), time.perf_counter() - t0


def scaling_run(sizes=(200, 400, 800, 1600), seed: int = 0) -> list:
    """(node count, seconds) pairs for subtype_matrix across instance sizes."""
    return [time_matrix(size, seed=seed + size) for size in sizes]


def fitted_exponent(pairs) -> float:
    """Least-squares slope of log(time) against log(nodes)."""
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(max(t, 1e-9)) for _, t in pairs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        raise ValueError("need at least two distinct instance sizes to fit")
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / var


def time_decision(total_nodes: int = 1000, seed: int = 0) -> float:
    """Wall time of one subtype decision on a pair totalling total_nodes nodes."""
    rng = random.Random(seed)
    a = random_expr(rng, total_nodes // 2)
    b = random_expr(rng, total_nodes // 2)
    cache = DecisionCache()
    t0 = time.perf_counter()
    cache.subseteq(a, b)
    cache.subseteq(b, a)
    return time.perf_counter() - t0
