"""The paper's CREW-PRAM route, kept for its work bound.

The route is the main route's run of ``triangle_pipeline`` with a detect
step that also tallies work: the production kernel (``count_triangles`` of
:mod:`tricent.triangle`) finds the triangles and, given the tally, computes
the merge comparisons that the merge kernel would make exactly from the
prefix ends and a prefix search of its own (``merge_comparison_count``,
tested equal to the count of ``triangle_neighbor``) without running the
merge. The score fold of :mod:`tricent.centrality` finishes the job. The
route runs in one thread and takes no worker count: a thread pool over the
wedge kernel's blocks gained nothing on Holme-Kim graphs. All counting is
exact, so results are bitwise identical to the sequential path. The tally
stands in for abstract processor-count claims; ``tc compute --stats`` writes
it as the ``work`` of its run record, next to the phases and shape that
every ordered route reports.
"""

from dataclasses import dataclass

from .centrality import tc_from_triangles, triangle_pipeline
from .triangle import MergeTally, count_triangles, marked_pairs


@dataclass
class ParallelConfig:
    # accepted for callers that pass a worker count; the route reads nothing
    # from it
    workers: int | None = None


def parallel_triangle_centrality(g, cfg=None):
    """Scores plus the merge tally; bitwise equal to the sequential route.
    ``cfg`` is accepted and not read."""
    tally = MergeTally()

    def detect(g, adj):
        stats, marks = count_triangles(adj, tally)
        return stats, marked_pairs(adj, marks)

    cv = triangle_pipeline(g, detect, lambda g, stats, nbh: tc_from_triangles(
        g, stats, neighborhood=nbh, method="parallel"))
    return cv, tally
