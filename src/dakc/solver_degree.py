"""Solvers for instances whose in-degree threshold is large next to the
maximum degree, plus ``solve``, which routes every instance by regime.

With 2k above the maximum degree, every non-anchor drains more in-arcs than
it can return, so a degree-sum argument caps any core at (max_degree + 1) * b
vertices and the bounded search settles the question.  Where 2k only
reaches the maximum degree the cap fails, but a chain of structural facts
still localizes some witness: it has a "last" non-anchor vertex t reachable
from the whole core, the core sits inside the backward-reach of t behind an
important separator of an augmented graph, the core's in-boundary is small
enough to guess, and after deleting the guessed crossing arcs the anchor set
itself appears as a small important separator.  Guessing through those
objects in a fixed order yields an exact answer.  Those facts take 2k as the
degree bound, so that solver answers any maximum degree up to 2k; ``solve``
still sends 2k above the maximum degree to the cheaper size cap.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import combinations, compress, product

from .core import ORACLE_CAP, Instance, Solution, Verdict, _top_up, normalize, oracle_solve, verify_solution
from .graph import (
    DirectedGraph,
    Mask,
    induced_subgraph,
    lift_mask,
    reach,
    vertices_of,
    vset,
    weakly_connected_components,
)
from .separators import _max_flow, disjoint_paths, enumerate_important_separators
from .solver_bounded import bounded_core_search
from .solver_dag import is_acyclic, solve_dag
from .solver_k1 import solve_k1


@dataclass(frozen=True)
class Stripped:
    """Result of the special-component preprocessing: a reduced instance plus
    what is needed to lift its solutions back to the parent graph."""

    instance: Instance
    to_parent: tuple[int, ...]
    removed: Mask  # parent-id vertices of the stripped components


def _lift_solution(sol: Solution, stripped: Stripped) -> Solution:
    return Solution(
        anchors=lift_mask(sol.anchors, stripped.to_parent),
        core=lift_mask(sol.core, stripped.to_parent) | stripped.removed,
    )


def strip_special_components(inst: Instance) -> Verdict | Stripped:
    """Remove components where every vertex has in-degree = out-degree = k.

    Such a component is a free standalone core: either it already closes the
    gap to the target (answer YES, topped up with arbitrary anchors), or it
    can be set aside and the target reduced by its size.  Solutions of the
    reduced instance lift back by re-adding the removed components to the
    core.
    """
    g, b, k, p = inst.graph, inst.b, inst.k, inst.p
    removed: Mask = 0
    p_cur = p
    for comp in weakly_connected_components(g):
        if not all(
            g.in_degrees[v] == k and g.out_degrees[v] == k
            for v in vertices_of(comp)
        ):
            continue
        size = comp.bit_count()
        if b >= p_cur - size:
            return Verdict.yes(_top_up(g, comp | removed, p))
        removed |= comp
        p_cur -= size
    if not removed:
        return Stripped(instance=inst, to_parent=tuple(range(g.n)), removed=0)
    sub = induced_subgraph(g, g.full_mask & ~removed)
    return Stripped(
        instance=Instance(graph=sub.graph, b=b, k=k, p=p_cur),
        to_parent=sub.to_parent,
        removed=removed,
    )


def solve_high_k(inst: Instance) -> Verdict:
    """Exact solver for 2k > max degree: cores cannot exceed (max_degree+1)*b."""
    delta = inst.graph.max_degree()
    if 2 * inst.k <= delta:
        raise ValueError(f"solve_high_k requires 2k > max degree, got k={inst.k}, max degree {delta}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    q = (delta + 1) * nrm.b
    if nrm.p > q:
        return Verdict.no(note=f"every core here has at most {q} vertices")
    res = bounded_core_search(nrm, q)
    if res.is_yes:
        return res
    # no core within q vertices, and no core can be larger in this regime
    return Verdict.no()


def _deletion_choices(g: DirectedGraph, v: int, k: int) -> list[tuple[int, ...]]:
    """Ways to delete at least one of v's in-arcs while keeping at least k.

    Only a vertex with more than k in-arcs has a choice; stage 3 offers no
    other vertex as a boundary, so every boundary vertex deletes something
    and each deletion set arises from the boundary of its own heads alone.
    """
    nbrs = vertices_of(g.in_mask[v])
    out: list[tuple[int, ...]] = []
    for size in range(1, len(nbrs) - k + 1):
        out.extend(combinations(nbrs, size))
    return out


def _without_arcs(g: DirectedGraph, deleted: frozenset[tuple[int, int]]) -> DirectedGraph:
    """``g`` minus the arcs in ``deleted``, all of which are arcs of ``g``.

    Each deleted arc is the first arc with its head from the start of its
    tail's run on, which a bisection of the tails finds.  The arrays less
    those positions stay in order, so nothing is checked or sorted again,
    and only the masks of the deleted arcs' endpoints are rebuilt.
    """
    if not deleted:
        return g
    tails, heads = g.tails, g.heads
    kept = [True] * len(tails)
    out_mask = list(g.out_mask)
    in_mask = list(g.in_mask)
    for u, v in deleted:
        kept[heads.index(v, bisect_left(tails, u))] = False
        out_mask[u] ^= 1 << v
        in_mask[v] ^= 1 << u
    return DirectedGraph._from_checked(
        g.n,
        tuple(compress(tails, kept)),
        tuple(compress(heads, kept)),
        out_mask=tuple(out_mask),
        in_mask=tuple(in_mask),
    )


def _cut_fits(
    out_rows: list[Mask],
    in_rows: list[Mask],
    deleted: frozenset[tuple[int, int]],
    s: int,
    t: int,
    b: int,
    paths: list[tuple[int, ...]],
) -> bool:
    """Whether at most b vertices separate s from t once the arcs
    ``deleted`` are gone from the graph whose rows are ``out_rows`` and
    ``in_rows``, given internally vertex-disjoint s-t ``paths`` that use none
    of those arcs.  Those paths start the flow, so only the units they miss
    are augmented; the rows are patched in place for it and restored."""
    for u, v in deleted:
        out_rows[u] ^= 1 << v
        in_rows[v] ^= 1 << u
    flow = _max_flow(out_rows, in_rows, (1 << len(out_rows)) - 1, 1 << s, 1 << t, b, paths)[0]
    for u, v in deleted:
        out_rows[u] ^= 1 << v
        in_rows[v] ^= 1 << u
    return flow <= b


def solve_half_k(inst: Instance) -> Verdict:
    """Exact solver for 2k >= max degree, run with 2k as the degree bound.

    Each step below reads the degree bound only as a cap on every vertex's
    degree, so it holds as well on a graph whose maximum degree is below 2k.

    Stages: strip self-contained components; bounded search up to the size
    beyond which a witness with a core-wide reachable vertex t must exist;
    then guess t, an important separator of the source-augmented graph, the
    core's in-boundary inside it, the crossing arcs to delete, and finally a
    small important separator that doubles as the anchor set.  Every
    candidate is verified against the original graph, so wrong guesses can
    only cost time, never correctness.

    A boundary vertex with exactly k in-arcs deletes nothing and one with
    fewer kills the guess, so the boundary is drawn from the vertices with
    more than k in-arcs, each deleting at least one.  Every deletion set then
    comes from one boundary, its heads, and the inner enumeration depends on
    t and the deletion set alone, so each boundary is expanded once per t,
    under the first separator that offers it.  Repeats could only fail again.

    Most deletion sets cannot yield an anchor set, and one max flow per t
    rules out most of them cheaply.  ``disjoint_paths`` gives internally
    vertex-disjoint s-t paths of the augmented graph; a deletion set removes
    arcs of the reduced graph only, so each path none of whose arcs it
    removes (a path's arc into t counts) survives.  With more than b
    survivors every s-t cut is larger than b and the inner enumeration would
    return nothing, so that deletion set is skipped.  The same count, over
    the paths with an arc into any vertex it may touch, skips a whole t at
    once, and each deletion choice's path bits are read once per t, so an
    assignment that cuts too few paths never builds its arc set.  A deletion
    set that passes the count is decided by one flow repair: ``_cut_fits``
    starts a max flow from its surviving paths, on the augmented graph's rows
    with the set's arcs taken out, and only a set whose cut is at most b
    builds its graph and runs the inner enumeration.  The calls that remain
    run in the order of their first occurrence in the plain guessing loop, so
    the answer and witness do not change.

    The probe's NO_UP_TO verdict is exact: every solution of the stripped
    instance has a core of more than its ``bound`` vertices.  A candidate
    that verifies is such a solution, since the stripped components share no
    arcs with the rest, and its core lies inside t's backward reach (the
    separator vertices included, each on a path to t).  So a t whose
    backward reach holds at most ``bound`` vertices is skipped before any
    flow; no candidate under it could verify.  A bound of at least the
    stripped vertex count skips every t, so stage 3 then answers NO without
    a flow.
    """
    delta = 2 * inst.k
    if delta < inst.graph.max_degree():
        raise ValueError(f"solve_half_k requires 2k >= max degree, got k={inst.k}, max degree {inst.graph.max_degree()}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    stripped = strip_special_components(nrm)
    if isinstance(stripped, Verdict):
        return stripped
    red = stripped.instance
    g1, b, k, p1 = red.graph, red.b, red.k, red.p

    if b == 0:
        # An unanchored core at 2k >= max degree forces in = out = k on all
        # its vertices with no outside arcs, i.e. it is a union of the special
        # components just stripped; none remain.
        return Verdict.no()

    probe = bounded_core_search(red, (delta * p1 + 1) * b)
    if probe.is_yes:
        return Verdict.yes(_lift_solution(probe.solution, stripped))

    # Stage 3: any remaining witness has a non-anchor vertex t reachable from
    # the entire core by paths avoiding the anchors.
    s_idx = g1.n
    source_arcs = [(s_idx, v) for v in range(g1.n) if g1.in_degrees[v] < k]
    aug = DirectedGraph.from_arcs(g1.n + 1, list(g1.arcs()) + source_arcs)
    sep_budget = (delta * (k - 1) + 1) * b
    movable = vset(v for v in range(g1.n) if g1.in_degrees[v] > k)
    choices = {v: _deletion_choices(g1, v, k) for v in vertices_of(movable)}
    # aug's rows, which each _cut_fits call patches and restores
    out_rows, in_rows = list(aug.out_mask), list(aug.in_mask)
    for t in range(g1.n):
        if g1.in_degrees[t] < k:
            continue
        # every candidate core under t lies in t's backward reach
        if reach(g1, 1 << t, "backward").bit_count() <= probe.bound:
            continue
        paths = disjoint_paths(aug, s_idx, t, sep_budget)
        # a deletion set runs only if it cuts at least ``need`` distinct
        # paths; it never deletes a path's first arc, out of s
        need = len(paths) - b
        path_bit: dict[tuple[int, int], int] = {}
        movable_hit = 0  # bits of the paths with a g1 arc into a movable vertex
        for i, path in enumerate(paths):
            for u, v in zip(path[1:], path[2:]):
                path_bit[u, v] = 1 << i
                if movable >> v & 1:
                    movable_hit |= 1 << i
        if movable_hit.bit_count() < need:
            continue
        every = (1 << len(paths)) - 1
        # each deletion choice with the bits of the paths it cuts; arcs into
        # one vertex lie on distinct paths, so their bits add
        offers = {
            v: [(gone, sum(path_bit.get((u, v), 0) for u in gone)) for gone in choices[v]]
            for v in vertices_of(movable)
        }
        expanded: set[tuple[int, ...]] = set()
        for sep_star in enumerate_important_separators(aug, s_idx, t, sep_budget):
            inside = reach(g1, 1 << t, "backward", within=g1.full_mask & ~sep_star) | sep_star
            # candidates for the core's in-boundary: the vertices inside
            # that can lose an in-arc from outside the core
            d_list = vertices_of(inside & movable)
            for size in range(min(delta * b, len(d_list)) + 1):
                for boundary in combinations(d_list, size):
                    if boundary in expanded:
                        continue
                    expanded.add(boundary)
                    for assignment in product(*(offers[v] for v in boundary)):
                        hit = 0
                        for _, bits in assignment:
                            hit |= bits
                        if hit.bit_count() < need:
                            continue
                        deleted = frozenset(
                            (u, v)
                            for v, (gone, _) in zip(boundary, assignment)
                            for u in gone
                        )
                        survivors = [paths[i] for i in vertices_of(every & ~hit)]
                        if not _cut_fits(out_rows, in_rows, deleted, s_idx, t, b, survivors):
                            continue
                        f_aug = _without_arcs(aug, deleted)
                        for sep_hat in enumerate_important_separators(
                            f_aug, s_idx, t, b
                        ):
                            core = (
                                reach(f_aug, 1 << t, "backward", within=f_aug.full_mask & ~sep_hat)
                                | sep_hat
                            )
                            cand = _lift_solution(Solution(anchors=sep_hat, core=core), stripped)
                            if verify_solution(nrm, cand):
                                return Verdict.yes(cand)
    return Verdict.no()


def solve_by_degree(inst: Instance) -> Verdict:
    """``solve`` by degree regime alone, with no DAG or oracle fallback."""
    return solve(inst, solver="degree")


def solve(
    inst: Instance,
    *,
    solver: str = "auto",
    allow_oracle: bool = False,
    cap: int = ORACLE_CAP,
) -> Verdict:
    """Run the named solver and stamp its name on the verdict, whose witness
    the caller verifies.  ``"degree"`` and ``"auto"`` normalize, then route by
    regime: k = 1, then 2k against the maximum degree; each regime solver
    normalizes again, so that it can be called directly.  A maximum degree
    above 2k is W[2]-hard in the anchor budget; there ``"auto"`` goes on to
    the DAG solver and, with ``allow_oracle``, the oracle capped at ``cap``."""
    if solver == "oracle":
        return replace(oracle_solve(inst, cap=cap), solver="oracle")
    if solver == "k1":
        return replace(solve_k1(inst), solver="k1")
    if solver == "dag":
        return replace(solve_dag(inst), solver="dag")
    if solver not in ("degree", "auto"):
        raise ValueError(f"unknown solver {solver!r}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return replace(nrm, solver="normalize")
    if nrm.k == 1:
        return replace(solve_k1(nrm), solver="k1")
    delta = nrm.graph.max_degree()
    if 2 * nrm.k > delta:
        return replace(solve_high_k(nrm), solver="high")
    if 2 * nrm.k == delta:
        return replace(solve_half_k(nrm), solver="half")
    if solver == "degree":
        return Verdict.unsupported(
            "no exact routine for k >= 2 with max degree above 2k (that regime is "
            "W[2]-hard in the anchor budget); the exhaustive oracle handles small "
            "instances"
        )
    if is_acyclic(nrm.graph):
        return replace(solve_dag(nrm), solver="dag")
    if allow_oracle:
        return replace(oracle_solve(nrm, cap=cap), solver="oracle")
    return Verdict.unsupported(
        "k >= 2 with max degree above 2k on a cyclic graph is W[2]-hard in the "
        "anchor budget and no specialized solver applies; rerun with "
        "--allow-oracle to use the exhaustive oracle"
    )
