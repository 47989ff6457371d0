"""Bounded-core search: find a solution, or certify that none has a core
whose pieces all have at most q vertices.

It is an exact search over connected sets.  The
unanchored core K0 = ``peel(G, k)`` is banked first: adding it to any
solution core keeps a solution, so some solution contains it.  Call a weak
component of the rest of such a core a piece.  A piece member's
in-neighbours in the core lie in its own piece or in K0, so the member is
deficient (fewer than k in-neighbours in piece | K0) exactly when it needs
an anchor.  A piece with no deficient member would join K0, so every piece
holds at least one.  A solution therefore exists iff at most b pairwise
disjoint pieces have deficient counts summing to at most b and sizes
summing to at least p - |K0|; their deficient members are the anchors.
Disjoint pieces may still be adjacent: merging raises in-degrees only.

Pieces of at most q vertices are enumerated with ESU (Wernicke, 2006) over
the undirected neighbourhoods of G - K0, each connected set once, from an
explicit stack.  A popped branch that already holds more than b members
deficient in everything it can still reach is cut.  A branch with exactly b
such members spends the whole budget on them, so it is also cut when an
anchored peel of what it can reach drops one of its members or leaves fewer
than p - |K0| vertices outside K0.  A piece of at least p - |K0| vertices
answers at once; otherwise a depth-first search combines disjoint pieces,
largest first.  The enumerated sets, pieces and unions alike, are capped at
``SET_CAP``, and the cap raises instead of answering.

The random-separation kernels (Cai, Chan & Chan, 2006) are library
functions that no solver runs: ``coloring_stream`` draws reproducible
colorings, and ``search_with_coloring`` assembles a witness from one
coloring's weakly connected red components with ``knapsack_select``.
"""

from __future__ import annotations

from typing import Iterator

from .core import Instance, Solution, Verdict, normalize, peel
from .graph import DirectedGraph, Mask, vertices_of, weakly_connected_components

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (new_state, 64 output bits)."""
    state = (state + _GAMMA) & _M64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    z ^= z >> 31
    return state, z


def coloring_stream(seed: int, n: int) -> Iterator[Mask]:
    """Reproducible stream of random n-bit red-vertex masks.

    The generator contract is fixed so any implementation can replay it:
    splitmix64 seeded with ``seed`` (reduced mod 2^64), drawing ceil(n/64)
    consecutive 64-bit words per coloring; word j supplies bits for vertices
    64j..64j+63, least significant bit first; the mask is truncated to n bits.
    """
    state = seed & _M64
    words = (n + 63) // 64
    keep = (1 << n) - 1
    while True:
        mask = 0
        for j in range(words):
            state, word = _splitmix64(state)
            mask |= word << (64 * j)
        yield mask & keep


# the most sets (pieces and unions of pieces) the piece search enumerates;
# past it ``bounded_core_search`` raises instead of answering
SET_CAP = 1_000_000


class SearchBudgetError(RuntimeError):
    """The piece search would enumerate more sets than ``SET_CAP``."""


def red_components(g: DirectedGraph, red: Mask) -> list[Mask]:
    """Weakly connected components of the subgraph induced by the red set."""
    return weakly_connected_components(g, within=red)


def knapsack_select(
    items: list[tuple[int, int]], b: int, p: int
) -> set[int] | None:
    """Pick item indices with total cost <= b and total gain >= p, if possible.

    Dynamic program maximizing gain per budget level; the backtrace skips an
    item whenever the value is achievable without it, which makes the chosen
    set deterministic.
    """
    r = len(items)
    dp = [[0] * (b + 1) for _ in range(r + 1)]
    for i in range(1, r + 1):
        cost, gain = items[i - 1]
        prev = dp[i - 1]
        row = dp[i]
        for w in range(b + 1):
            best = prev[w]
            if 0 <= cost <= w and prev[w - cost] + gain > best:
                best = prev[w - cost] + gain
            row[w] = best
    if dp[r][b] < p:
        return None
    chosen: set[int] = set()
    w = b
    for i in range(r, 0, -1):
        if dp[i][w] != dp[i - 1][w]:
            chosen.add(i - 1)
            w -= items[i - 1][0]
    return chosen


def search_with_coloring(
    g: DirectedGraph, k: int, b: int, p: int, red: Mask
) -> Solution | None:
    """Evaluate one coloring: each weakly connected red component with its
    members deficient in it, then ``knapsack_select`` over the components
    that need at most b anchors.  A returned solution is unchecked; the
    caller verifies the witness it reports.
    """
    in_mask = g.in_mask
    comps: list[tuple[Mask, Mask]] = []
    for comp in red_components(g, red):
        deficient = 0
        for v in vertices_of(comp):
            if (in_mask[v] & comp).bit_count() < k:
                deficient |= 1 << v
        if deficient.bit_count() <= b:
            comps.append((comp, deficient))
    picked = knapsack_select([(d.bit_count(), c.bit_count()) for c, d in comps], b, p)
    if picked is None:
        return None
    anchors = 0
    core = 0
    for i in picked:
        core |= comps[i][0]
        anchors |= comps[i][1]
    return Solution(anchors=anchors, core=core)


def _spend(counter: list[int], cap: int) -> None:
    """Count one more enumerated set against the cap."""
    counter[0] += 1
    if counter[0] > cap:
        raise SearchBudgetError(f"piece search refused: more than {cap} sets to enumerate")


def _holds_piece(
    g: DirectedGraph, k: int, sub: Mask, room: Mask, stuck: Mask, banked: Mask, need: int
) -> bool:
    """Whether ``peel`` of ``room`` with the anchors ``stuck | banked`` keeps
    every member of ``sub`` and at least ``need`` vertices outside ``banked``.

    Vertices are dropped a round at a time, every vertex that lacks k
    in-neighbours among the survivors at once, and a round looks again only
    at the out-neighbours of the vertices the round before dropped.  The
    peel is confluent, so the rounds reach it; the survivors only shrink, so
    the test fails as soon as a member of ``sub`` drops or too few are left.
    """
    if (room & ~banked).bit_count() < need:
        return False
    in_mask, out_mask = g.in_mask, g.out_mask
    keep = stuck | banked
    alive = room
    check = room & ~keep
    while check:
        drop = 0
        while check:
            low = check & -check
            check ^= low
            if (in_mask[low.bit_length() - 1] & alive).bit_count() < k:
                drop |= low
        alive ^= drop
        if drop & sub or (alive & ~banked).bit_count() < need:
            return False
        while drop:
            low = drop & -drop
            drop ^= low
            check |= out_mask[low.bit_length() - 1]
        check &= alive & ~keep
    return (alive & ~banked).bit_count() >= need


def _pieces(
    g: DirectedGraph,
    k: int,
    b: int,
    q: int,
    banked: Mask,
    counter: list[int],
    cap: int,
    need: int,
) -> Iterator[tuple[Mask, Mask]]:
    """Every piece of at most q vertices outside ``banked = peel(g, k)``
    that can take part in a solution with ``need`` vertices beyond
    ``banked``, as (piece, deficient members): a connected set of
    ``g.und_mask`` with at most b members that have fewer than k
    in-neighbours in piece | banked.  With ``need`` at most 1 that is every
    piece.

    A set comes from the root of its lowest vertex.  A branch is the ESU
    state (sub, ext, nbr): ``sub`` is connected, ``ext`` the vertices it may
    add next, and ``nbr`` its closed neighbourhood; ``above`` holds the
    vertices outside ``banked`` past the root.  A child adds one vertex w of
    ``ext``, which the later siblings drop from their ``ext``, and w's
    neighbours inside ``above`` and outside ``nbr`` join its ``ext``.  So
    every set a branch reaches lies inside sub | ext | (above & ~nbr).  A
    member's in-neighbours all lie in ``nbr``, so a member with fewer than k
    in-neighbours in sub | ext | banked is stuck: deficient in every set the
    branch reaches.  A branch with more than b stuck members is cut.

    A branch with exactly b stuck members is tested further.  Every piece X
    it reaches has those b deficient members and no other, so X | banked is
    a core with the stuck members as anchors, and it lies inside ``peel`` of
    the vertices the branch can reach plus ``banked``, with those anchors and
    with ``banked`` kept; ``_holds_piece`` computes that peel.  If the peel
    drops a member of ``sub``, the branch reaches no piece.  If fewer than
    ``need`` vertices outside ``banked`` survive it, every piece the branch
    reaches is smaller than ``need`` and spends the whole budget, so it can
    neither answer alone nor join another piece, which costs at least one
    anchor more.  Either way the branch is cut.

    Every child is pushed and tested once popped.  Each branch that passes
    the stuck test counts in ``counter[0]``, before the peel test, and a
    branch past ``cap`` raises.
    """
    und, in_mask = g.und_mask, g.in_mask
    free = g.full_mask & ~banked
    for root in vertices_of(free):
        above = free >> root + 1 << root + 1
        start = 1 << root
        stack = [(start, und[root] & above, start | und[root], 1)]
        while stack:
            sub, ext, nbr, size = stack.pop()
            room = sub | ext | banked
            inside = sub | banked
            deficient = 0
            stuck_set = 0
            stuck = 0
            rest = sub
            while rest:
                low = rest & -rest
                rest ^= low
                row = in_mask[low.bit_length() - 1]
                if (row & inside).bit_count() < k:
                    deficient |= low
                    if (row & room).bit_count() < k:
                        stuck_set |= low
                        stuck += 1
                        if stuck > b:
                            break
            if stuck > b:
                continue
            _spend(counter, cap)
            if stuck == b and not _holds_piece(
                g, k, sub, room | (above & ~nbr), stuck_set, banked, need
            ):
                continue
            if deficient.bit_count() <= b:
                yield sub, deficient
            if size < q:
                rest = ext
                while rest:
                    w = rest & -rest
                    rest ^= w
                    row = und[w.bit_length() - 1]
                    stack.append((sub | w, rest | (row & above & ~nbr), nbr | row, size + 1))


def _piece_search(
    g: DirectedGraph, k: int, b: int, p: int, q: int, cap: int
) -> Solution | None:
    """A solution whose core is K0 = ``peel(g, k)`` plus at most b disjoint
    pieces of at most q vertices each, or None if there is none; raises
    ``SearchBudgetError`` past ``cap`` enumerated sets.  Every piece holds a
    deficient member, or K0 would contain it, so at b = 0 K0 alone answers.
    ``_pieces`` is told the ``need = p - |K0|`` vertices still missing, and
    leaves out the pieces that spend the whole budget on fewer than that:
    such a piece can neither answer nor share a union with another."""
    banked = peel(g, k)
    need = p - banked.bit_count()
    if need <= 0:
        return Solution(anchors=0, core=banked)
    if b == 0:
        return None
    counter = [0]
    found = []
    for piece, deficient in _pieces(g, k, b, q, banked, counter, cap, need):
        size = piece.bit_count()
        if size >= need:
            return Solution(anchors=deficient, core=banked | piece)
        found.append((size, piece, deficient, deficient.bit_count()))
    found.sort(key=lambda item: -item[0])
    # depth-first over unions of disjoint pieces, largest pieces first; every
    # piece costs at least one anchor, so from a piece of ``size`` on at most
    # size * budget more vertices can join
    stack = [(0, 0, 0, b, need)]
    while stack:
        first, core, anchors, budget, short = stack.pop()
        children = []
        for i in range(first, len(found)):
            size, piece, deficient, cost = found[i]
            if size * budget < short:
                break
            if cost > budget or piece & core:
                continue
            if size >= short:
                return Solution(anchors=anchors | deficient, core=banked | core | piece)
            _spend(counter, cap)
            children.append((i + 1, core | piece, anchors | deficient, budget - cost, short - size))
        stack.extend(reversed(children))
    return None


def bounded_core_search(inst: Instance, q: int) -> Verdict:
    """Find a solution, or certify that none has a core of at most q vertices.

    YES carries a witness that the caller verifies (the CLI checks each YES
    it prints, once); its core may legitimately be larger than q (the banked
    core K0 plus several pieces).  NO_UP_TO(q) is exact: the piece search
    raises ``SearchBudgetError`` rather than answer past ``SET_CAP`` sets.
    """
    if q < inst.p:
        raise ValueError(f"q={q} must be at least the target core size p={inst.p}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        if nrm.is_yes:
            return nrm
        return Verdict.no_up_to(q, note=nrm.note)
    sol = _piece_search(nrm.graph, nrm.k, nrm.b, nrm.p, q, SET_CAP)
    if sol is None:
        return Verdict.no_up_to(q)
    return Verdict.yes(sol)
