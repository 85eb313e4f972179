"""Seeded graph generators for the benchmark workloads (numpy and stdlib only).

Every generator takes a ``seed`` and returns an :class:`EdgeFile`: the edge
list exactly as it is written to disk, line by line, so that dirty inputs
(both orientations, duplicate lines, self-loops, string labels) reach the
program unchanged while the oracle sees the same lines.
"""

import random
from dataclasses import dataclass

import numpy as np

DUP_SHARE = 0.05   # share of dirty_er's lines written twice
LOOP_SHARE = 0.01  # share of dirty_er's non-isolated vertices given a self-loop


@dataclass
class EdgeFile:
    """One generated input: two label columns, one entry per written line.

    ``a`` and ``b`` are int64 arrays for integer labels and ``str`` arrays
    for string labels. ``ring`` holds ``(p, k, joint_labels)`` for clique
    rings, whose scores are known in closed form, and is None otherwise.
    """

    a: np.ndarray
    b: np.ndarray
    ring: tuple | None = None

    def text(self):
        return "".join(f"{x} {y}\n" for x, y in zip(self.a.tolist(), self.b.tolist()))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.text())


def holme_kim(n, attach, triad_p, seed):
    """Holme-Kim powerlaw-cluster graph (Holme & Kim 2002), integer labels.

    Preferential attachment of ``attach`` edges per new vertex, where each
    edge after the first closes a triangle with probability ``triad_p``.
    Labels are a seeded permutation of 1..n, so label order carries no
    information about age or degree.
    """
    rng = random.Random(seed)
    nbrs = [set() for _ in range(n)]
    src, dst = [], []

    def add(u, v):
        nbrs[u].add(v)
        nbrs[v].add(u)
        src.append(u)
        dst.append(v)

    repeated = list(range(attach))
    for source in range(attach, n):
        targets = set()
        while len(targets) < attach:
            targets.add(rng.choice(repeated))
        targets = sorted(targets)
        rng.shuffle(targets)
        target = targets.pop()
        add(source, target)
        repeated.append(target)
        count = 1
        while count < attach:
            if rng.random() < triad_p:
                mine = nbrs[source]
                cands = sorted(w for w in nbrs[target] if w != source and w not in mine)
                if cands:
                    w = rng.choice(cands)
                    add(source, w)
                    repeated.append(w)
                    count += 1
                    continue
            target = targets.pop()
            if target not in nbrs[source]:
                add(source, target)
            repeated.append(target)
            count += 1
        repeated.extend([source] * attach)
    perm = np.random.default_rng(seed).permutation(n).astype(np.int64) + 1
    return EdgeFile(perm[np.asarray(src, dtype=np.int64)], perm[np.asarray(dst, dtype=np.int64)])


def _distinct_pairs(n, m, rng):
    """m distinct unordered pairs of distinct vertices in [0, n)."""
    keys = np.empty(0, dtype=np.int64)
    while keys.shape[0] < m:
        u = rng.integers(0, n, size=2 * m)
        v = rng.integers(0, n, size=2 * m)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        keys = np.concatenate([keys, lo * n + hi])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]  # dedup, keeping draw order
    keys = keys[:m]
    return keys // n, keys % n


def dirty_er(n, m, seed):
    """G(n, m) written the way dirty real files are.

    String labels, every edge in both orientations, ``DUP_SHARE`` of the
    lines repeated, self-loops on ``LOOP_SHARE`` of the vertices that have
    ordinary edges, and all lines shuffled.
    """
    rng = np.random.default_rng(seed)
    u, v = _distinct_pairs(n, m, rng)
    a = np.concatenate([u, v])
    b = np.concatenate([v, u])
    dup = rng.choice(a.shape[0], size=int(DUP_SHARE * a.shape[0]), replace=False)
    used = np.unique(a)
    loops = rng.choice(used, size=max(1, int(LOOP_SHARE * used.shape[0])), replace=False)
    a = np.concatenate([a, a[dup], loops])
    b = np.concatenate([b, b[dup], loops])
    order = rng.permutation(a.shape[0])
    names = np.array([f"v{x:06d}" for x in rng.permutation(n)])
    return EdgeFile(names[a[order]], names[b[order]])


def clique_ring(p, k, seed):
    """Ring of p copies of K_k, consecutive copies sharing one joint vertex.

    The same shape as ``tricent.generators.clique_ring`` but built here, with
    labels permuted and lines shuffled by the seed. Exact scores are known for
    p >= 4: (2k+2)/(pk) at the p joints and (k+2)/(pk) at the members.
    """
    if p < 4 or k < 3:
        raise ValueError("clique ring needs p >= 4 and k >= 3")
    n = p * (k - 1)
    src, dst = [], []
    for i in range(p):
        members = [(i * (k - 1) + t) % n for t in range(k)]
        for x in range(k):
            for y in range(x + 1, k):
                src.append(members[x])
                dst.append(members[y])
    rng = np.random.default_rng(seed)
    label = rng.permutation(n).astype(np.int64) + 1
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    order = rng.permutation(src.shape[0])
    joints = label[np.arange(p, dtype=np.int64) * (k - 1)]
    return EdgeFile(label[src[order]], label[dst[order]], ring=(p, k, joints))


def small_batch(count, seed):
    """``count`` small graphs of mixed shape: Holme-Kim, dirty ER and rings.

    Sizes run from tens to a few hundred vertices, so per-call fixed costs
    weigh as much as the work that grows with the graph. Shapes and sizes
    follow a fixed schedule and only the graphs' contents follow the seed,
    so every seed asks for about the same total work.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        sub = rng.randrange(2**32)
        n = 30 + (i * 97) % 271  # every size in 30..300 once per 271 graphs
        if i % 3 == 0:
            out.append(holme_kim(n, 2 + i % 4, 0.8, sub))
        elif i % 3 == 1:
            out.append(dirty_er(n, n + (i % 7) * n // 2, sub))
        else:
            out.append(clique_ring(4 + (i // 3) % 9, 4 + (i // 27) % 9, sub))
    return out
