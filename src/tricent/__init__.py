"""Triangle centrality for simple undirected graphs.

Four independent implementations (combinatorial main path, hash-based
reference, sparse algebraic, deterministic parallel) plus a MapReduce-style
round simulator, closed-form family evaluators, and comparison tooling
against five classical centrality measures.
"""

from .algebraic import (adjacency_matrix, build_triangle_matrix, tc_algebraic,
                        triangle_centrality_algebraic, triangle_identities)
from .centrality import (CentralityVector, closed_form_tc, tc_from_triangles,
                         triangle_centrality, triangle_centrality_basic)
from .compare import (MEASURES, Ranking, agreement_dot_matrices,
                      best_jaccard_competitor, betweenness_centrality,
                      closeness_centrality, compute_all, degree_centrality,
                      eigenvector_centrality, pagerank, rank_vertices,
                      top_k_jaccard)
from .errors import ConsistencyError, InputError
from .generators import (FIXTURES, GEN_FAMILIES, book_with_satellite,
                         bridged_cliques, clique, clique_bridge_hub,
                         clique_chain, clique_ring, clique_star_hub,
                         disjoint_cliques, generate_fixture, load_fixture,
                         lone_triangle, star_triangle_hub, triad_hub)
from .graph import (Graph, OrderedAdjacency, build_abbreviated_adjacency,
                    build_graph, degree_order, dump_edge_list, load_edge_list,
                    parse_edge_list)
from .mapreduce import RoundStats, run_mapreduce_tc
from .parallel import (ParallelConfig, WorkCounters, parallel_triangle_centrality,
                       work_report)
from .triangle import (MergeTally, TriangleStats, brute_force_triangles,
                       hash_intersection_tri_neighbors, hash_neighbor_pair_count,
                       hash_neighbor_pair_tri_neighbors,
                       materialize_triangle_neighbors, triangle_neighbor,
                       triangle_neighbor_alt, wedge_counts)

__version__ = "0.1.0"
