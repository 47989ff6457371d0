"""Random-separation search for solutions whose core stays small.

One trial two-colors the vertices and keeps the red side: if some solution
core of size at most q has all its vertices red and every outside neighbour
blue, the core shows up as a union of weakly connected red components.  Each
surviving component contributes (anchors it would need, vertices it brings),
and a knapsack over those summaries assembles a witness.  Enough seeded
trials drive the failure probability below a configured epsilon; exhaustive
mode scans all 2^n colorings and is exact.

Most trials miss, so a trial stops as soon as an upper bound on what it can
assemble falls short of p: first the red count, then the red vertices that
need no anchor plus b that do, and last, once the components are known, the
components that need no anchor plus the b largest of the others.  Only the
trials that pass all three build the knapsack table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import Instance, Solution, Verdict, normalize, verify_solution
from .graph import DirectedGraph, Mask, weakly_connected_components

_M64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (new_state, 64 output bits)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
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


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the bounded search.

    ``failure_prob`` is the acceptable probability that a seeded-mode run
    misses an existing small-core solution; exhaustive mode ignores it but is
    refused above ``exhaustive_limit`` vertices.
    """

    mode: str = "seeded"
    seed: int = 0
    failure_prob: float = 0.01
    trial_cap: int = 100_000
    exhaustive_limit: int = 20

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
    g: DirectedGraph, k: int, b: int, p: int, red: Mask
) -> Solution | None:
    """Evaluate one coloring: component summaries, then knapsack assembly.

    Components needing more than b anchors are discarded outright.  The
    components and the knapsack are skipped when an upper bound on what they
    could assemble falls short of p, so they could not succeed either.  Any
    returned solution is verified before it leaves this function, so a hit is
    always sound no matter how the coloring was produced.
    """
    if red.bit_count() < p:
        return None  # every core assembled here lies inside the red set
    red &= g.full_mask
    # A red vertex's red in-neighbours lie in its own red component, so it is
    # deficient in its component iff it is deficient in the whole red set.
    in_mask = g.in_mask
    deficient = 0
    rest = red
    while rest:
        low = rest & -rest
        rest ^= low
        if (in_mask[low.bit_length() - 1] & red).bit_count() < k:
            deficient |= low
    # an assembly anchors each of its deficient vertices, so at most b of them
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

    YES always carries a verified witness and may legitimately have a core
    larger than q (a lucky coloring can isolate a big component).  NO_UP_TO(q)
    is exact in exhaustive mode; in seeded mode it holds up to the configured
    failure probability, or carries a warning note when the trial cap bit.
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
        if g.n > cfg.exhaustive_limit:
            raise ValueError(
                f"exhaustive coloring enumeration refused: n={g.n} exceeds "
                f"the configured limit of {cfg.exhaustive_limit}"
            )
        total = 1 << g.n
        for red in range(total):
            sol = search_with_coloring(g, k, b, p, red)
            if sol is not None:
                return Verdict.yes(sol, trials=red + 1)
        return Verdict.no_up_to(q, trials=total)
    delta = g.max_degree()
    trials, capped = _seeded_trials(delta, q, cfg.failure_prob, cfg.trial_cap)
    note = (
        f"trial cap {cfg.trial_cap} reached; miss probability may exceed "
        f"{cfg.failure_prob}"
        if capped
        else ""
    )
    stream = coloring_stream(cfg.seed, g.n)
    for done in range(1, trials + 1):
        sol = search_with_coloring(g, k, b, p, next(stream))
        if sol is not None:
            return Verdict.yes(sol, trials=done)
    return Verdict.no_up_to(q, trials=trials, note=note)
