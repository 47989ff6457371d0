"""Anchored-core closure, solution verification, normalization, and the
exhaustive anchor-enumeration oracle that grounds all testing.

A problem instance asks: can at most ``b`` anchored vertices keep an induced
subgraph of at least ``p`` vertices engaged, where every non-anchor needs
in-degree at least ``k`` inside the subgraph?  Anchors are exempt from the
degree requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graph import DirectedGraph, Mask, iter_vertices, vertices_of, vset


class OracleBudgetError(RuntimeError):
    """The anchor-subset enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class Instance:
    """One decision question: (graph, anchor budget b, threshold k, target size p)."""

    graph: DirectedGraph
    b: int
    k: int
    p: int

    def __post_init__(self) -> None:
        if self.b < 0:
            raise ValueError("anchor budget b must be nonnegative")
        if self.k < 0:
            raise ValueError("in-degree threshold k must be nonnegative")
        if self.p < 1:
            raise ValueError("target core size p must be positive")


@dataclass(frozen=True)
class Solution:
    """A claimed witness: anchors and the engaged core, both as vertex masks."""

    anchors: Mask
    core: Mask


YES = "yes"
NO = "no"
NO_UP_TO = "no_up_to"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a solver run.

    ``no_up_to`` is only emitted by the bounded search: it asserts there is no
    solution whose core has at most ``bound`` vertices (with failure
    probability at most the configured epsilon in seeded mode, exactly in
    exhaustive mode).  ``note`` carries warnings such as a trial-cap hit;
    ``trials`` the number of colorings evaluated, where that is meaningful.
    """

    kind: str
    solution: Solution | None = None
    bound: int | None = None
    solver: str | None = None
    trials: int | None = None
    note: str = ""

    @property
    def is_yes(self) -> bool:
        return self.kind == YES

    @classmethod
    def yes(cls, solution: Solution, **meta) -> "Verdict":
        return cls(kind=YES, solution=solution, **meta)

    @classmethod
    def no(cls, **meta) -> "Verdict":
        return cls(kind=NO, **meta)

    @classmethod
    def no_up_to(cls, bound: int, **meta) -> "Verdict":
        return cls(kind=NO_UP_TO, bound=bound, **meta)

    @classmethod
    def unsupported(cls, note: str) -> "Verdict":
        return cls(kind=UNSUPPORTED, note=note)


def peel(g: DirectedGraph, k: int, anchors: Mask = 0) -> Mask:
    """Iterated withdrawal: repeatedly delete any non-anchor vertex whose
    current in-degree is below ``k`` until none remains.

    Anchors are never deleted.  The result is independent of deletion order
    (the process is confluent) and grows with the anchor set (it is
    monotone), so a work queue seeded with the initially deficient vertices
    computes it in O(n + m) (Batagelj & Zaversnik, 2003).  The queue starts
    from the graph's cached in-degree classes, and a vertex is queued only on
    the arc that takes it from ``k`` to ``k - 1``, so each deleted vertex is
    queued exactly once and the queue is the deleted set.
    """
    if k <= 0:
        return g.full_mask
    below = g.in_degree_below
    queue = vertices_of(below[min(k, len(below) - 1)] & ~anchors)
    indeg = list(g.in_degrees)
    out_adj = g.out_adj
    last = k - 1
    for v in queue:
        for w in out_adj[v]:
            indeg[w] -= 1
            if indeg[w] == last and not (anchors >> w) & 1:
                queue.append(w)
    return g.full_mask ^ vset(queue)


def solution_violation(inst: Instance, sol: Solution) -> str | None:
    """The first violated solution constraint, or None if the witness is valid."""
    g = inst.graph
    if sol.core & ~g.full_mask or sol.anchors & ~g.full_mask:
        return "solution names vertices outside the graph"
    if sol.anchors & ~sol.core:
        return "anchors are not a subset of the core"
    if sol.anchors.bit_count() > inst.b:
        return f"anchor count {sol.anchors.bit_count()} exceeds budget {inst.b}"
    if sol.core.bit_count() < inst.p:
        return f"core size {sol.core.bit_count()} is below target {inst.p}"
    for v in iter_vertices(sol.core & ~sol.anchors):
        if (g.in_mask[v] & sol.core).bit_count() < inst.k:
            return f"non-anchor vertex {v + 1} has in-degree below {inst.k} inside the core"
    return None


def verify_solution(inst: Instance, sol: Solution) -> bool:
    return solution_violation(inst, sol) is None


def normalize(inst: Instance) -> Instance | Verdict:
    """Dispose of degenerate parameters; otherwise guarantee b < p <= n, k >= 1.

    Answers immediately when the target exceeds the graph (NO), when the
    budget covers the whole target (YES: anchor the p lowest-indexed
    vertices), or when k = 0 (YES: any p vertices qualify unanchored).
    """
    n = inst.graph.n
    if inst.p > n:
        return Verdict.no(note="target core size exceeds vertex count")
    if inst.b >= inst.p:
        low_p = (1 << inst.p) - 1
        return Verdict.yes(Solution(anchors=low_p, core=low_p))
    if inst.k == 0:
        return Verdict.yes(Solution(anchors=0, core=(1 << inst.p) - 1))
    return inst


def anchor_subset_count(n: int, b: int) -> int:
    return sum(comb(n, i) for i in range(min(n, b) + 1))


def oracle_solve(inst: Instance, cap: int = 10_000_000) -> Verdict:
    """Exhaustive ground truth: the first anchor set of size at most b whose
    peel reaches ``p`` vertices, in smallest-first, lexicographic order.

    Two exact shortcuts skip only anchor sets that cannot come first, so the
    witness is the one a plain enumeration of every subset returns:

    - The unanchored core K0 = ``peel(G, k, 0)`` is banked once.  If it has
      ``p`` vertices the answer needs no anchors; otherwise anchors are drawn
      from V minus K0 only.  Anchoring a vertex that survives anyway leaves
      the peel unchanged, so a first hit never contains one.
    - Within each size, a depth-first search takes candidates in increasing
      id order.  Peeling is monotone in the anchors, so with anchors A chosen
      and candidates R left, ``peel(G, k, A | R)`` bounds every completion;
      the branch is pruned when that bound is below ``p``.

    Exponential all the same: refuses to start if the count of all anchor
    subsets of size at most b, over every vertex, exceeds ``cap``.  Banking
    does not shrink the count, so the cap fires on the same inputs whatever
    K0 holds.
    """
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    g, b, k, p = nrm.graph, nrm.b, nrm.k, nrm.p
    total = anchor_subset_count(g.n, b)
    if total > cap:
        raise OracleBudgetError(
            f"{total} anchor subsets exceed the oracle cap of {cap}"
        )
    unanchored = peel(g, k)
    sol = Solution(anchors=0, core=unanchored) if unanchored.bit_count() >= p else None
    cand = vertices_of(g.full_mask & ~unanchored)
    # rest[i]: the candidates from position i on
    rest = [0] * (len(cand) + 1)
    for i in reversed(range(len(cand))):
        rest[i] = rest[i + 1] | 1 << cand[i]

    def first_hit(chosen: Mask, start: int, need: int) -> Solution | None:
        """The first hit, in lexicographic order, that adds ``need``
        candidates from position ``start`` on to ``chosen``."""
        if need == 0:
            core = peel(g, k, chosen)
            return Solution(anchors=chosen, core=core) if core.bit_count() >= p else None
        for i in range(start, len(cand) - need + 1):
            # at i == start the bound is the caller's, or at the root the
            # whole graph; it only shrinks as i grows
            if i > start and peel(g, k, chosen | rest[i]).bit_count() < p:
                return None
            hit = first_hit(chosen | 1 << cand[i], i + 1, need - 1)
            if hit is not None:
                return hit
        return None

    for size in range(1, min(len(cand), b) + 1):
        if sol is not None:
            break
        sol = first_hit(0, 0, size)
    return Verdict.no() if sol is None else Verdict.yes(sol)
