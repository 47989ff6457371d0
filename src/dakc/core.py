"""Anchored-core closure, solution verification, normalization, and the
exhaustive anchor-enumeration oracle that grounds all testing.

A problem instance asks: can at most ``b`` anchored vertices keep an induced
subgraph of at least ``p`` vertices engaged, where every non-anchor needs
in-degree at least ``k`` inside the subgraph?  Anchors are exempt from the
degree requirement.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import compress
from math import comb

from .graph import DirectedGraph, Mask, _member_bytes, _tally, vertices_of, vset

# the most anchor subsets the exhaustive oracle will enumerate
ORACLE_CAP = 10_000_000


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

    ``no_up_to`` is only emitted by the bounded search: it asserts, exactly,
    that there is no solution whose core has at most ``bound`` vertices.
    ``note`` says why a verdict needed no search or why no solver applies.
    """

    kind: str
    solution: Solution | None = None
    bound: int | None = None
    solver: str | None = None
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
    computes it in O(n + m) (Batagelj & Zaversnik, 2003).  That queue is
    ``_withdraw`` started from the whole graph, where every vertex is an
    anchor, withdrawing every vertex outside ``anchors``.  It passes no
    floor, so the queue always runs to the end.
    """
    if k <= 0:
        return g.full_mask
    return _withdraw(g.out_adj, k, *_whole_graph(g, k), anchors, g.full_mask & ~anchors)[0]


def _whole_graph(g: DirectedGraph, k: int) -> tuple[Mask, Mask, list[int]]:
    """The ``_withdraw`` state of the peel that anchors every vertex: the
    whole graph, its vertices of in-degree below ``k``, and a fresh list of
    the in-degrees."""
    below = g.in_degree_below
    return g.full_mask, below[min(k, len(below) - 1)], list(g.in_degrees)


def _withdraw(
    out_adj: Sequence[tuple[int, ...]],
    k: int,
    core: Mask,
    weak: Mask,
    indeg: list[int],
    anchors: Mask,
    drop: Mask,
    floor: int = 0,
) -> tuple[Mask, Mask] | None:
    """Withdraw the anchors ``drop`` from a peel: ``peel(g, k, anchors)`` and
    its weak set, given the state of ``peel(g, k, anchors | drop)``, or None
    once that peel is known to hold fewer than ``floor`` vertices.  ``g`` is
    passed as its out-adjacency ``out_adj``, which a caller that withdraws
    many times reads once.

    The state is ``core``, that peel; ``weak``, its members whose in-degree
    inside it is below ``k`` (all of them anchors); and ``indeg``, every
    vertex's in-degree inside it, which is updated in place.  The queue
    starts from the dropped weak vertices.  A vertex is touched only on the
    arc that takes it from ``k`` to ``k - 1``: a non-anchor is queued there,
    and an anchor becomes weak.  So each deleted vertex is queued exactly
    once, the queue is the deleted set, and the work is the out-arcs of the
    deleted vertices.  The deleted set is also built as a mask, ``gone``, as
    vertices are queued, so no list is turned back into a mask.  The seed
    is read into the queue by ``vertices_of``, which reads a dense mask
    longer than one word, such as ``peel``'s on a large graph, in linear
    time.

    The queue stops as soon as it holds more than ``|core| - floor``
    vertices.  The withdrawal then returns None and leaves ``indeg`` part
    updated, so a caller that passes a floor must throw ``indeg`` away on
    None.  With the default floor of 0 the queue never stops.
    """
    gone = drop & weak
    room = core.bit_count() - floor
    if gone.bit_count() > room:
        return None
    queue = vertices_of(gone)
    last = k - 1
    for v in queue:
        for w in out_adj[v]:
            indeg[w] -= 1
            if indeg[w] == last:
                if (anchors >> w) & 1:
                    weak |= 1 << w
                else:
                    queue.append(w)
                    gone |= 1 << w
                    if len(queue) > room:
                        return None
    return core ^ gone, weak & ~drop


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
    # the heads of the arcs whose tail is in the core, tallied: a core
    # vertex's count is its in-degree inside the core
    inside = _tally(g.n, compress(g.heads, map(_member_bytes(sol.core, g.n).__getitem__, g.tails)))
    for v in vertices_of(sol.core & ~sol.anchors):
        if inside[v] < inst.k:
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
        return Verdict.yes(_top_up(inst.graph, 0, inst.p))
    if inst.k == 0:
        return Verdict.yes(Solution(anchors=0, core=(1 << inst.p) - 1))
    return inst


def _top_up(g: DirectedGraph, free: Mask, p: int) -> Solution:
    """``free``, a set that needs no anchors, grown to ``p`` vertices by
    anchoring the lowest-id vertices outside it."""
    need = p - free.bit_count()
    extra = vset(vertices_of(g.full_mask & ~free)[:need]) if need > 0 else 0
    return Solution(anchors=extra, core=free | extra)


def _fewest_first(search: Callable, top: int, smallest: int):
    """The hit of the fewest picks, from ``smallest`` to ``top``, where
    ``search(size)`` returns a size's first hit or None and a hit at one
    size means a hit at every larger one.  So ``top`` is decided first:
    without a hit there is none at all.  With one, the smaller sizes are
    decided in ascending order, and the size-``top`` hit stands only if
    none of them has one."""
    found = search(top)
    if found is None:
        return None
    for size in range(smallest, top):
        hit = search(size)
        if hit is not None:
            return hit
    return found


def anchor_subset_count(n: int, b: int) -> int:
    return sum(comb(n, i) for i in range(min(n, b) + 1))


def oracle_solve(inst: Instance, cap: int = ORACLE_CAP) -> Verdict:
    """Exhaustive ground truth: the first anchor set of size at most b whose
    peel reaches ``p`` vertices, in smallest-first, lexicographic order.

    Three exact shortcuts skip only anchor sets that cannot come first, so
    the witness is the one a plain enumeration of every subset returns:

    - The unanchored core K0 = ``peel(G, k, 0)`` is banked once.  If it has
      ``p`` vertices the answer needs no anchors; otherwise anchors are drawn
      from V minus K0 only.  Anchoring a vertex that survives anyway leaves
      the peel unchanged, so a first hit never contains one.
    - Peeling is monotone in the anchors, so a hit stays a hit when anchors
      are added, and ``_fewest_first`` finds the fewest anchors from 1 to
      ``top = min(|V - K0|, b)``, deciding ``top`` first; without a hit
      there the answer is NO.
    - Within each size, a depth-first search takes candidates in increasing
      id order.  With anchors A chosen and candidates R left,
      ``peel(G, k, A | R)`` bounds every completion; the branch is pruned
      when that bound is below ``p``.

    No bound is peeled anew from the graph.  The root bound, every candidate
    anchored, is the whole graph, since K0 sustains itself.  The next
    candidate position's bound lacks one anchor, and a leaf's core lacks
    every candidate after its own, so each comes from the previous state by
    ``_withdraw``; a child or a leaf works on its own copy of the in-degrees.
    Each withdrawal takes ``p`` as its floor: the search asks only whether a
    bound or a leaf keeps ``p`` vertices, so a cascade stops as soon as it
    has deleted more than ``|core| - p``.  A stopped bound ends its loop and
    a stopped leaf is a miss, so both drop the in-degrees it left part
    updated, and the search cuts exactly the branches a full cascade cuts.

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
    if unanchored.bit_count() >= p:
        return Verdict.yes(Solution(anchors=0, core=unanchored))
    cand = vertices_of(g.full_mask & ~unanchored)
    out_adj = g.out_adj
    # rest[i]: the candidates from position i on
    rest = [0] * (len(cand) + 1)
    for i in reversed(range(len(cand))):
        rest[i] = rest[i + 1] | 1 << cand[i]

    def first_hit(
        chosen: Mask, start: int, need: int, core: Mask, weak: Mask, indeg: list[int]
    ) -> Solution | None:
        """The first hit, in lexicographic order, that adds ``need`` >= 1
        candidates from position ``start`` on to ``chosen``.  ``core``,
        ``weak`` and ``indeg`` are the state of the bound
        ``peel(g, k, chosen | rest[start])``, which the caller has checked;
        this call owns ``indeg``."""
        for i in range(start, len(cand) - need + 1):
            if i > start:
                bound = _withdraw(out_adj, k, core, weak, indeg, chosen | rest[i], 1 << cand[i - 1], p)
                if bound is None:
                    # later positions' bounds are smaller still
                    return None
                core, weak = bound
            anchors = chosen | 1 << cand[i]
            if need == 1:
                leaf = _withdraw(out_adj, k, core, weak, indeg.copy(), anchors, rest[i + 1], p)
                if leaf is not None:
                    return Solution(anchors=anchors, core=leaf[0])
            else:
                hit = first_hit(anchors, i + 1, need - 1, core, weak, indeg.copy())
                if hit is not None:
                    return hit
        return None

    def search(size: int) -> Solution | None:
        return first_hit(0, 0, size, *_whole_graph(g, k))

    top = min(len(cand), b)
    sol = _fewest_first(search, top, 1) if top else None
    return Verdict.no() if sol is None else Verdict.yes(sol)
