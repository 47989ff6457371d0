"""Bounded-core search: find a solution, or certify that none has a core
whose pieces all have at most q vertices.

Exhaustive mode (the default) is an exact search over connected sets.  The
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
explicit stack.  A branch that already holds more than b members deficient
in everything it can still reach is cut, and the parent makes that cut
before the push: what its members can still reach only shrinks along its
children, so it counts down each member's spare in-neighbours from one
child to the next and pushes only the children that survive.  A piece of at
least p - |K0| vertices answers at once; otherwise a depth-first search
combines disjoint pieces, largest first.  The enumerated sets, pieces and
unions alike, are capped, and the cap raises instead of answering.

Seeded mode is random separation (Cai, Chan & Chan, 2006).  One trial
two-colors the vertices and keeps the red side: if some solution core of
size at most q has all its vertices red and every outside neighbour blue,
the core shows up as a union of weakly connected red components.  Each
surviving component contributes (anchors it would need, vertices it
brings), and a knapsack over those summaries assembles a witness.  Enough
trials drive the failure probability below a configured epsilon.

Most trials miss, so a trial stops as soon as an upper bound on what it can
assemble falls short of p: first the red count, then the red vertices that
need no anchor plus b that do, and last, once the components are known, the
components that need no anchor plus the b largest of the others.  Only the
trials that pass all three build the knapsack table.

Seeded mode applies the first two bounds to a whole block of trials at once.
splitmix64 is counter-based, so a block's outputs come from a few big-int
operations on 128-bit lanes; the block is then transposed into one column
per vertex (bit t set iff the vertex is red in trial t), and bit-sliced
counters over those columns find the trials with at least p red vertices and
at least p - b red vertices that have k red in-neighbours.  Only those
trials, in increasing order, are run one at a time, and each takes its
deficient set (red vertices with fewer than k red in-neighbours) from the
block's columns instead of counting it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .core import Instance, Solution, Verdict, normalize, peel, verify_solution
from .graph import DirectedGraph, Mask, iter_vertices, weakly_connected_components

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# seeded trials filtered together by the bit-sliced bounds
_BLOCK = 1024

# _BIT_TEXT[i] translates a byte to b"1" or b"0", its bit i
_BIT_TEXT = tuple((b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8))


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
    ``bounded_core_search`` draws exactly this stream, a block of trials at
    a time.
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


@cache
def _lane_patterns(words: int) -> tuple[int, int, int]:
    """Lane patterns for a full block of colorings of ``words`` words each,
    one 128-bit lane per word: 1 in every lane, i * gamma in lane i, and
    2^64 - 1 in every lane."""
    lanes = _BLOCK * words
    ones = ((1 << 128 * lanes) - 1) // ((1 << 128) - 1)
    steps = b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(lanes))
    return ones, int.from_bytes(steps, "little"), ones * _M64


def _draw_block(seed: int, n: int, start: int, size: int) -> bytes:
    """The words ``coloring_stream(seed, n)`` draws for its trials ``start``
    to ``start + size - 1``: one big-endian 128-bit lane per word, the word
    in its low 64 bits, the last word first.

    Output j of the stream mixes the state seed + (j + 1) * gamma mod 2^64,
    so a block's states are one multiply-add of lane patterns.  Each
    multiply follows an xor-shift masked back to the low 64 bits of every
    lane, so the lane products stay below 2^128 and no lane carries into the
    next.  The last xor-shift leaves bits of the next lane in each lane's
    high half, which nothing reads.
    """
    words = (n + 63) // 64
    ones, steps, low = _lane_patterns(words)
    keep = (1 << 128 * size * words) - 1
    base = (seed + (start * words + 1) * _GAMMA) & _M64
    z = (base * (ones & keep) + (steps & keep)) & low
    z = ((z ^ (z >> 30)) & low) * _MIX1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX2 & low
    z ^= z >> 31
    return z.to_bytes(16 * size * words, "big")


def _block_columns(buf: bytes, n: int) -> list[Mask]:
    """Transpose a drawn block: column v has bit t set iff vertex v is red
    in the block's trial t."""
    stride = 16 * ((n + 63) // 64)
    columns = []
    for v in range(n):
        # v's bit lies in byte 15 - (v % 64) // 8 of the lane of word v // 64;
        # a stride walks the trials from last to first, which is the
        # most-significant-first order int(..., 2) reads
        first = stride - 16 * (v >> 6) - 1 - (v >> 3 & 7)
        columns.append(int(buf[first::stride].translate(_BIT_TEXT[v & 7]), 2))
    return columns


def _block_coloring(buf: bytes, n: int, t: int) -> Mask:
    """The coloring of a drawn block's trial t, as ``coloring_stream`` yields it."""
    words = (n + 63) // 64
    mask = 0
    for j in range(words):
        end = len(buf) - 16 * (t * words + j)
        mask |= int.from_bytes(buf[end - 8 : end], "big") << 64 * j
    return mask & ((1 << n) - 1)


class SearchBudgetError(RuntimeError):
    """The piece search would enumerate more sets than its configured cap."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the bounded search.

    ``mode`` picks the engine.  ``"exhaustive"``, the default, is the exact
    piece search; ``exhaustive_limit`` caps the sets it enumerates (pieces
    and unions of pieces), and reaching the cap raises ``SearchBudgetError``
    instead of answering.  ``"seeded"`` runs random-separation trials drawn
    from ``seed``: ``failure_prob`` is the acceptable probability that it
    misses an existing small-core solution, and ``trial_cap`` bounds the
    trial count, with a note on the verdict when the cap bites.  Each mode
    ignores the other's knobs.
    """

    mode: str = "exhaustive"
    seed: int = 0
    failure_prob: float = 0.01
    trial_cap: int = 100_000
    exhaustive_limit: int = 1_000_000

    def __post_init__(self) -> None:
        if self.mode not in ("seeded", "exhaustive"):
            raise ValueError(f"mode must be 'seeded' or 'exhaustive', got {self.mode!r}")
        if not (0.0 < self.failure_prob < 1.0):
            raise ValueError("failure_prob must lie strictly between 0 and 1")
        if self.trial_cap < 1:
            raise ValueError("trial_cap must be positive")
        if self.exhaustive_limit < 0:
            raise ValueError("exhaustive_limit must be nonnegative")


@dataclass(frozen=True)
class ComponentSummary:
    """One red component: the vertices it would need anchored, and its size."""

    component: Mask
    deficient: Mask

    @property
    def anchors_needed(self) -> int:
        return self.deficient.bit_count()

    @property
    def size(self) -> int:
        return self.component.bit_count()


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
    g: DirectedGraph, k: int, b: int, p: int, red: Mask, deficient: Mask | None = None
) -> Solution | None:
    """Evaluate one coloring: component summaries, then knapsack assembly.

    Components needing more than b anchors are discarded outright.  The
    components and the knapsack are skipped when an upper bound on what they
    could assemble falls short of p, so they could not succeed either.  Any
    returned solution is verified before it leaves this function, so a hit is
    always sound no matter how the coloring was produced.

    ``deficient``, when given, must be the set of red vertices with fewer
    than k red in-neighbours, for a coloring already known to pass the first
    two bounds; seeded mode reads both off its block filter.
    """
    if deficient is None:
        if red.bit_count() < p:
            return None  # every core assembled here lies inside the red set
        red &= g.full_mask
        # A red vertex's red in-neighbours lie in its own red component, so
        # it is deficient in its component iff it is deficient in the whole
        # red set.
        in_mask = g.in_mask
        deficient = 0
        rest = red
        while rest:
            low = rest & -rest
            rest ^= low
            if (in_mask[low.bit_length() - 1] & red).bit_count() < k:
                deficient |= low
        # an assembly anchors each of its deficient vertices, so at most b
        if (red & ~deficient).bit_count() + min(b, deficient.bit_count()) < p:
            return None
    comps: list[Mask] = []
    items: list[tuple[int, int]] = []
    free = 0
    paid: list[int] = []
    for comp in weakly_connected_components(g, within=red):
        need = (deficient & comp).bit_count()
        if need > b:
            continue
        size = comp.bit_count()
        comps.append(comp)
        items.append((need, size))
        if need:
            paid.append(size)
        else:
            free += size
    # each paid component needs at least one anchor, so at most b are picked
    if free + sum(sorted(paid, reverse=True)[:b]) < p:
        return None
    picked = knapsack_select(items, b, p)
    if picked is None:
        return None
    anchors = 0
    core = 0
    for i in picked:
        anchors |= deficient & comps[i]
        core |= comps[i]
    sol = Solution(anchors=anchors, core=core)
    if not verify_solution(Instance(graph=g, b=b, k=k, p=p), sol):
        raise RuntimeError("internal error: coloring trial assembled an invalid solution")
    return sol


def _at_least(columns: list[Mask], threshold: int, trials: Mask) -> Mask:
    """The trials (bits of ``trials``) in which at least ``threshold`` >= 1
    of the columns have their bit set.

    A bit-sliced counter starts every trial at 2^top - threshold and adds
    the columns with ripple carries.  With 2^top above both the threshold
    and the column count, bit ``top`` of the counter is set exactly when the
    count reaches the threshold, and no carry ever leaves it.
    """
    top = max(threshold, len(columns)).bit_length()
    offset = (1 << top) - threshold
    slices = [trials if offset >> i & 1 else 0 for i in range(top + 1)]
    for carry in columns:
        i = 0
        while carry:
            slices[i], carry = slices[i] ^ carry, slices[i] & carry
            i += 1
    return slices[top]


def _block_satisfied(g: DirectedGraph, k: int, columns: list[Mask]) -> list[Mask]:
    """Column v of the result has bit t set iff vertex v is red and has at
    least k red in-neighbours in the block's trial t."""
    satisfied = []
    for v, nbrs in enumerate(g.in_adj):
        if len(nbrs) < k or not columns[v]:
            satisfied.append(0)
            continue
        # more[j]: the trials in which more than j in-neighbours of v are red
        more = [0] * k
        for u in nbrs:
            red = columns[u]
            for j in range(k - 1, 0, -1):
                more[j] |= more[j - 1] & red
            more[0] |= red
        satisfied.append(columns[v] & more[-1])
    return satisfied


def _block_survivors(
    g: DirectedGraph,
    k: int,
    b: int,
    p: int,
    columns: list[Mask],
    trials: Mask,
    satisfied: list[Mask] | None = None,
) -> Mask:
    """The trials of a block that pass the first two exits of
    ``search_with_coloring``, given one column per vertex and, optionally,
    the block's ``_block_satisfied`` columns.

    A trial passes iff (red vertices that need no anchor) + min(b, red
    vertices that do) >= p, that is iff at least p vertices are red and at
    least p - b of them have k red in-neighbours.
    """
    passing = _at_least(columns, p, trials)
    if not passing:
        return 0
    if satisfied is None:
        satisfied = _block_satisfied(g, k, columns)
    return passing & _at_least(satisfied, p - b, trials)


def _deficient_text(columns: list[Mask], satisfied: list[Mask], size: int) -> str:
    """The block's deficient columns (red with fewer than k red
    in-neighbours) as one ``'0'``/``'1'`` text, the mirror of
    ``_block_columns``: a row of ``size`` digits per vertex, last vertex
    first, each row's last trial first.  ``text[size - 1 - t :: size]``
    then reads trial t's deficient set most significant vertex first, which
    is the order ``int(..., 2)`` takes."""
    digits = f"0{size}b"
    return "".join(format(c & ~s, digits) for c, s in zip(reversed(columns), reversed(satisfied)))


def _spend(counter: list[int], cap: int) -> None:
    """Count one more enumerated set against the cap."""
    counter[0] += 1
    if counter[0] > cap:
        raise SearchBudgetError(f"piece search refused: more than {cap} sets to enumerate")


def _pieces(
    g: DirectedGraph, k: int, b: int, q: int, banked: Mask, counter: list[int], cap: int
) -> Iterator[tuple[Mask, Mask]]:
    """Every piece of at most q vertices outside ``banked``, as (piece,
    deficient members): a connected set of ``g.und_mask`` with at most b
    members that have fewer than k in-neighbours in piece | banked.

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

    The parent makes that cut for its children, which are never pushed.  A
    child's new ``ext`` lies outside ``nbr``, so an old member's room in
    child w_i is sub | banked | {w_i, ..., w_last}, and shrinks along the
    siblings.  Each deficient member that is not yet stuck keeps its spare
    in-neighbours over k; each w that leaves the room takes one from the
    members it points to, and a member whose spare falls below 0 is stuck
    from then on.  Past b stuck members no later sibling survives; at
    exactly b, a child survives iff w itself is not stuck.  The survivors
    are pushed in the same order as an uncut search, so the pieces come out
    in the same order.  Each popped branch counts in ``counter[0]``, and a
    branch past ``cap`` raises; only a root, which has no parent, can be
    popped and then cut.
    """
    und, in_mask, out_mask = g.und_mask, g.in_mask, g.out_mask
    free = g.full_mask & ~banked
    for root in iter_vertices(free):
        above = free >> root + 1 << root + 1
        start = 1 << root
        stack = [(start, und[root] & above, start | und[root], 1)]
        while stack:
            sub, ext, nbr, size = stack.pop()
            _spend(counter, cap)
            room = sub | ext | banked
            inside = sub | banked
            deficient = 0
            stuck = 0
            # deficient members not yet stuck, and their in-neighbours in
            # room beyond k
            watched = 0
            spare = {}
            rest = sub
            while rest:
                low = rest & -rest
                rest ^= low
                row = in_mask[low.bit_length() - 1]
                if (row & inside).bit_count() < k:
                    deficient |= low
                    slack = (row & room).bit_count() - k
                    if slack >= 0:
                        watched |= low
                        spare[low] = slack
                    else:
                        stuck += 1
                        if stuck > b:
                            break
            if stuck > b:
                continue
            if deficient.bit_count() <= b:
                yield sub, deficient
            if size < q:
                rest = ext
                while rest:
                    w = rest & -rest
                    rest ^= w
                    v = w.bit_length() - 1
                    row = und[v]
                    grown = rest | (row & above & ~nbr)
                    if stuck < b or (in_mask[v] & (sub | grown | banked)).bit_count() >= k:
                        stack.append((sub | w, grown, nbr | row, size + 1))
                    hits = out_mask[v] & watched
                    while hits:
                        low = hits & -hits
                        hits ^= low
                        spare[low] -= 1
                        if spare[low] < 0:
                            watched ^= low
                            stuck += 1
                    if stuck > b:
                        break


def _piece_search(
    g: DirectedGraph, k: int, b: int, p: int, q: int, cap: int
) -> Solution | None:
    """A solution whose core is K0 = ``peel(g, k)`` plus at most b disjoint
    pieces of at most q vertices each, or None if there is none; raises
    ``SearchBudgetError`` past ``cap`` enumerated sets.  Every piece holds a
    deficient member, or K0 would contain it, so at b = 0 K0 alone answers."""
    banked = peel(g, k)
    need = p - banked.bit_count()
    if need <= 0:
        return Solution(anchors=0, core=banked)
    if b == 0:
        return None
    counter = [0]
    found = []
    for piece, deficient in _pieces(g, k, b, q, banked, counter, cap):
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


def _seeded_trials(delta: int, q: int, eps: float, cap: int) -> tuple[int, bool]:
    """Trial count giving miss probability <= eps, given per-trial success of
    at least 2^-((delta+1)q); returns (count, capped?)."""
    exponent = (delta + 1) * q
    if exponent >= 63:
        return cap, True
    needed = max(1, math.ceil(math.log(1.0 / eps) * (1 << exponent)))
    if needed > cap:
        return cap, True
    return needed, False


def bounded_core_search(
    inst: Instance, q: int, cfg: SearchConfig | None = None
) -> Verdict:
    """Find a solution, or certify that none has a core of at most q vertices.

    YES carries a witness that the caller verifies (the CLI checks each YES
    it prints, once); its core may legitimately be larger than q (the banked
    core K0, several pieces, or a lucky coloring that isolates a big
    component).  NO_UP_TO(q) is exact in exhaustive mode, which reports no
    trial count and raises ``SearchBudgetError`` rather than answer past its
    set cap; in seeded mode it holds up to the configured failure
    probability, or carries a warning note when the trial cap bit.
    """
    if cfg is None:
        cfg = SearchConfig()
    if q < inst.p:
        raise ValueError(f"q={q} must be at least the target core size p={inst.p}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        if nrm.is_yes:
            return nrm
        return Verdict.no_up_to(q, note=nrm.note)
    g, b, k, p = nrm.graph, nrm.b, nrm.k, nrm.p
    if cfg.mode == "exhaustive":
        sol = _piece_search(g, k, b, p, q, cfg.exhaustive_limit)
        if sol is None:
            return Verdict.no_up_to(q)
        return Verdict.yes(sol)
    delta = g.max_degree()
    trials, capped = _seeded_trials(delta, q, cfg.failure_prob, cfg.trial_cap)
    note = (
        f"trial cap {cfg.trial_cap} reached; miss probability may exceed "
        f"{cfg.failure_prob}"
        if capped
        else ""
    )
    # the trials of coloring_stream(cfg.seed, g.n), a block at a time
    for start in range(0, trials, _BLOCK):
        size = min(_BLOCK, trials - start)
        buf = _draw_block(cfg.seed, g.n, start, size)
        columns = _block_columns(buf, g.n)
        satisfied = _block_satisfied(g, k, columns)
        alive = _block_survivors(g, k, b, p, columns, (1 << size) - 1, satisfied)
        if not alive:
            continue
        text = _deficient_text(columns, satisfied, size)
        while alive:
            t = (alive & -alive).bit_length() - 1
            alive ^= 1 << t
            red = _block_coloring(buf, g.n, t)
            sol = search_with_coloring(g, k, b, p, red, int(text[size - 1 - t :: size], 2))
            if sol is not None:
                return Verdict.yes(sol, trials=start + t + 1)
    return Verdict.no_up_to(q, trials=trials, note=note)
