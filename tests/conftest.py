import math
import random

import pytest

from tricent.compare import EXACT_PATH_LIMIT
from tricent.graph import build_graph


def er_graph(n, p, rng):
    """Erdos-Renyi edge draw on labels 1..n (isolated labels drop out)."""
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p]
    return build_graph(edges)


@pytest.fixture(scope="session")
def random_suite_200():
    """200 seeded graphs, n <= 64, the cross-implementation suite."""
    rng = random.Random(20240901)
    suite = []
    for _ in range(200):
        n = rng.randint(4, 64)
        p = rng.choice([0.1, 0.3, 0.6])
        suite.append(er_graph(n, p, rng))
    return suite


@pytest.fixture(scope="session")
def random_suite_500():
    """500 seeded graphs, n <= 48, the triangle-oracle suite."""
    rng = random.Random(424242)
    suite = []
    for _ in range(500):
        n = rng.randint(4, 48)
        p = rng.choice([0.05, 0.1, 0.2, 0.35, 0.5, 0.7])
        suite.append(er_graph(n, p, rng))
    return suite


@pytest.fixture(scope="session")
def small_random_suite():
    """Light 40-graph sample for per-module checks."""
    rng = random.Random(7)
    return [er_graph(rng.randint(4, 40), rng.choice([0.1, 0.3, 0.6]), rng)
            for _ in range(40)]


@pytest.fixture(scope="session")
def widest_random_graphs():
    """Three n=64 graphs at the size ceiling, one per density."""
    rng = random.Random(99)
    return [er_graph(64, p, rng) for p in (0.1, 0.3, 0.6)]


@pytest.fixture(scope="session")
def edges_above_exact_limit():
    """A path plus isolated vertices (labels seen only in self-loops) whose
    n*m is the least above EXACT_PATH_LIMIT for its edge count."""
    m = math.isqrt(EXACT_PATH_LIMIT) // 2
    n = EXACT_PATH_LIMIT // m + 1
    return [(v, v + 1) for v in range(m)] + [(v, v) for v in range(m + 1, n)]
