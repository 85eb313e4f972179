"""Walk through triangle centrality on the bundled karate-club network.

The score of a vertex is the proportion of the graph's triangles concentrated
within two hops of it, with triangle neighbors weighted once (the 1/3 factor
undoes each triangle being seen from its three corners) and remaining
neighbors contributing their full counts.
"""

from tricent import load_fixture, rank_vertices, triangle_centrality

g = load_fixture("karate")
print(f"karate club: {g.n} members, {g.m} friendships")

cv = triangle_centrality(g)
print(f"triangles overall: {cv.tri_total}")

ranking = rank_vertices(cv)
print("\ntop five by triangle centrality:")
for v in ranking.top(5):
    print(f"  vertex {g.label_of(v):>2}  score {cv.scores[v]:.6f}  "
          f"degree {g.degrees[v]}")

# The instructor (1) and administrator (34) dominate every degree-driven
# measure, yet vertex 14 sits where the triangles concentrate: it touches
# both factions of the club.
v14 = g.id_of(14)
print(f"\nvertex 14: degree {g.degrees[v14]}, rank {ranking.rank[v14]}")
v34 = g.id_of(34)
print(f"vertex 34: degree {g.degrees[v34]}, rank {ranking.rank[v34]}")
