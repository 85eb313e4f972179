"""Closed-form graph families make handy smoke tests: their triangle
centrality is known exactly, rational, and often independent of any actual
triangle count.

  clique            every vertex scores 1
  bridged cliques   the bridge scores 3/k even though it has no triangles
  disjoint cliques  everyone scores 1/p
  clique chain      four roles, all of the form (.)/(p*k)
  clique ring       two roles (the p=3 ring's joints close one more
                    triangle, and its closed form counts it)
  lone triangle     the triangle and its pendants all score 1
"""

from fractions import Fraction

from tricent import (bridged_cliques, clique_chain, closed_form_tc,
                     disjoint_cliques, triangle_centrality)

for p, k in [(4, 6), (2, 5)]:
    g, roles = bridged_cliques(p, k)
    cv = triangle_centrality(g)
    bridge = g.id_of(roles["bridge"][0])
    want = closed_form_tc("bridged-cliques", p=p, k=k)
    print(f"bridge over {p} copies of K_{k}: computed {cv.scores[bridge]:.6f}, "
          f"closed form {want} = {float(want):.6f}")

g, roles = disjoint_cliques(3, 5)
cv = triangle_centrality(g)
some = g.id_of(roles["member"][0])
print(f"\n3 disjoint K_5: every score {cv.scores[some]} "
      f"(closed form {closed_form_tc('disjoint-cliques', p=3, k=5)})")

print("\nchain of 5 copies of K_4, one vertex per role:")
g, roles = clique_chain(5, 4)
cv = triangle_centrality(g)
for role, labels in roles.items():
    want = closed_form_tc("clique-chain", p=5, k=4, role=role)
    got = Fraction(cv.scores[g.id_of(labels[0])]).limit_denominator(10**6)
    print(f"  {role:<13} computed {got}  closed form {want}")
