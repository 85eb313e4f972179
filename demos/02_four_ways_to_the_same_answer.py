"""Compute the same scores along every route and diff them.

main      vectorized wedge checks inside sorted higher-ordered adjacency
          prefixes, no hashing, each triangle found exactly once
basic     hash-set edge lookups over neighbor pairs
algebraic sparse matrices: (3A - 2*binarize(T) + I) @ (T @ 1) / sum(T)
parallel  the PRAM route: main's kernel plus a merge tally, its merge
          comparisons exact, computed from the prefix ends (tested equal to
          the merge kernel's count), then the same fold

Each ordered route's scores carry the shape of the degree order; its prefix
pairs are the pair tests of the detect step.
"""

import math

import numpy as np

from tricent import (load_fixture, parallel_triangle_centrality, run_mapreduce_tc,
                     triangle_centrality, triangle_centrality_algebraic,
                     triangle_centrality_basic)

g = load_fixture("dolphins")
main = triangle_centrality(g)

parallel, tally = parallel_triangle_centrality(g)

others = {
    "basic": triangle_centrality_basic(g).scores,
    "algebraic": triangle_centrality_algebraic(g).scores,
    "parallel": parallel.scores,
    "mapreduce": run_mapreduce_tc(g)[0].scores,
}

print(f"dolphins: n={g.n} m={g.m} triangles={main.tri_total}\n")
for name, scores in others.items():
    diff = np.max(np.abs(scores - main.scores))
    bitwise = np.array_equal(scores, main.scores)
    print(f"  {name:<12} max|diff| = {diff:.3e}   bitwise equal: {bitwise}")

print("\nwork accounting for the parallel run:")
print(" ", tally)
print(" ", parallel.shape)
budget = g.m * math.sqrt(2 * g.m)
print(f"  pair-tests/(m*sqrt(2m)) = {parallel.shape['prefix_pairs'] / budget:.4f}  "
      f"merge-comparisons/(m*sqrt(2m)) = {tally.merge_comparisons / budget:.4f}")
