"""Solvers for instances whose in-degree threshold is large next to the
maximum degree, plus ``solve``, which routes every instance by regime.

With 2k above the maximum degree, every non-anchor drains more in-arcs than
it can return, so a degree-sum argument caps any core at (max_degree + 1) * b
vertices and the bounded search settles the question.  At exactly 2k the cap
fails, but a chain of structural facts still localizes some witness: it has a
"last" non-anchor vertex t reachable from the whole core, the core sits inside
the backward-reach of t behind an important separator of an augmented graph,
the core's in-boundary is small enough to guess, and after deleting the
guessed crossing arcs the anchor set itself appears as a small important
separator.  Guessing through those objects in a fixed order yields an exact
answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product

from .core import Instance, Solution, Verdict, normalize, oracle_solve, verify_solution
from .graph import (
    DirectedGraph,
    Mask,
    induced_subgraph,
    iter_vertices,
    lift_mask,
    reach,
    vertices_of,
    vset,
    weakly_connected_components,
)
from .separators import disjoint_paths, enumerate_important_separators
from .solver_bounded import SearchConfig, bounded_core_search
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
            for v in iter_vertices(comp)
        ):
            continue
        size = comp.bit_count()
        if b >= p_cur - size:
            need = max(0, p_cur - size)
            outside = g.full_mask & ~removed & ~comp
            extra = vset(vertices_of(outside)[:need])
            return Verdict.yes(Solution(anchors=extra, core=extra | comp | removed))
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


def _resolve_delta(inst: Instance, max_degree: int | None) -> int:
    actual = inst.graph.max_degree()
    if max_degree is None:
        return actual
    if max_degree < actual:
        raise ValueError(
            f"declared max degree {max_degree} is below the graph's {actual}"
        )
    return max_degree


def solve_high_k(
    inst: Instance, max_degree: int | None = None, cfg: SearchConfig | None = None
) -> Verdict:
    """Exact solver for 2k > max degree: cores cannot exceed (max_degree+1)*b."""
    delta = _resolve_delta(inst, max_degree)
    if 2 * inst.k <= delta:
        raise ValueError(f"solve_high_k requires 2k > max degree, got k={inst.k}, max degree {delta}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    q = (delta + 1) * nrm.b
    if nrm.p > q:
        return Verdict.no(note=f"every core here has at most {q} vertices")
    res = bounded_core_search(nrm, q, cfg)
    if res.is_yes:
        return res
    # no core within q vertices, and no core can be larger in this regime
    return Verdict.no(trials=res.trials, note=res.note)


def _deletion_choices(g: DirectedGraph, v: int, k: int) -> list[tuple[int, ...]]:
    """Ways to delete at least one of v's in-arcs while keeping at least k.

    Only a vertex with more than k in-arcs has a choice; stage 3 offers no
    other vertex as a boundary, so every boundary vertex deletes something
    and each deletion set arises from the boundary of its own heads alone.
    """
    nbrs = g.in_adj[v]
    out: list[tuple[int, ...]] = []
    for size in range(1, len(nbrs) - k + 1):
        out.extend(combinations(nbrs, size))
    return out


def _without_arcs(g: DirectedGraph, deleted: frozenset[tuple[int, int]]) -> DirectedGraph:
    """``g`` minus the arcs in ``deleted``, all of which are arcs of ``g``.

    Only the adjacency tuples and masks of the deleted arcs' endpoints are
    rebuilt; a filtered sorted tuple stays sorted, so nothing is checked or
    sorted again.
    """
    if not deleted:
        return g
    out_adj = list(g.out_adj)
    in_adj = list(g.in_adj)
    out_mask = list(g.out_mask)
    in_mask = list(g.in_mask)
    for u, v in deleted:
        out_adj[u] = tuple(w for w in out_adj[u] if w != v)
        in_adj[v] = tuple(w for w in in_adj[v] if w != u)
        out_mask[u] ^= 1 << v
        in_mask[v] ^= 1 << u
    return DirectedGraph._from_checked(
        out_adj, in_adj=tuple(in_adj), out_mask=tuple(out_mask), in_mask=tuple(in_mask)
    )


def solve_half_k(
    inst: Instance,
    max_degree: int | None = None,
    cfg: SearchConfig | None = None,
    force_stage3: bool = False,
) -> Verdict:
    """Exact solver for 2k = max degree.

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
    finds them.  ``disjoint_paths`` gives internally vertex-disjoint s-t
    paths of the augmented graph; a deletion set removes arcs of the reduced
    graph only, so each path none of whose arcs it removes (a path's arc into
    t counts) survives.  With more than b survivors every s-t cut is larger
    than b and the inner enumeration would return nothing, so that deletion
    set is skipped.  The same count, over the paths with an arc into any
    vertex it may touch, skips a whole t, separator or boundary guess at
    once.  The calls that remain run in the order of their first occurrence
    in the plain guessing loop, so the answer and witness do not change.

    ``force_stage3`` skips the bounded stage; it exists for tests that probe
    the guessing stage in isolation and is not part of the public contract.
    """
    delta = _resolve_delta(inst, max_degree)
    if 2 * inst.k != delta:
        raise ValueError(f"solve_half_k requires 2k = max degree, got k={inst.k}, max degree {delta}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    stripped = strip_special_components(nrm)
    if isinstance(stripped, Verdict):
        return stripped
    red = stripped.instance
    g1, b, k, p1 = red.graph, red.b, red.k, red.p

    if b == 0:
        # An unanchored core at 2k = max degree forces in = out = k on all its
        # vertices with no outside arcs, i.e. it is a union of the special
        # components just stripped; none remain.
        return Verdict.no()

    trials = 0
    note = ""
    if not force_stage3:
        q = (delta * p1 + 1) * b
        probe = bounded_core_search(red, q, cfg)
        trials = probe.trials or 0
        note = probe.note
        if probe.is_yes:
            return Verdict.yes(_lift_solution(probe.solution, stripped), trials=trials)
        if q >= g1.n:
            # the bounded certificate already covers every possible core size
            return Verdict.no(trials=trials, note=note)

    # Stage 3: any remaining witness has a non-anchor vertex t reachable from
    # the entire core by paths avoiding the anchors.
    s_idx = g1.n
    source_arcs = [(s_idx, v) for v in range(g1.n) if g1.in_degrees[v] < k]
    aug = DirectedGraph.from_arcs(g1.n + 1, list(g1.arcs()) + source_arcs)
    sep_budget = (delta * (k - 1) + 1) * b
    movable = vset(v for v in range(g1.n) if g1.in_degrees[v] > k)
    choices = {v: _deletion_choices(g1, v, k) for v in iter_vertices(movable)}
    for t in range(g1.n):
        if g1.in_degrees[t] < k:
            continue
        paths = disjoint_paths(aug, s_idx, t, sep_budget)
        # a deletion set runs only if it cuts at least ``need`` distinct
        # paths; it never deletes a path's first arc, out of s
        need = len(paths) - b
        path_bit: dict[tuple[int, int], int] = {}
        into = [0] * g1.n  # vertex -> bits of the paths with a g1 arc into it
        for i, path in enumerate(paths):
            for u, v in zip(path[1:], path[2:]):
                path_bit[u, v] = 1 << i
                into[v] |= 1 << i

        def cuts_enough(heads) -> bool:
            hit = 0
            for v in heads:
                hit |= into[v]
            return hit.bit_count() >= need

        if not cuts_enough(iter_vertices(movable)):
            continue
        expanded: set[tuple[int, ...]] = set()
        for sep_star in enumerate_important_separators(aug, s_idx, t, sep_budget):
            inside = (
                reach(g1, 1 << t, "backward", within=g1.full_mask & ~sep_star.vertices)
                | sep_star.vertices
            )
            # candidates for the core's in-boundary: the vertices inside
            # that can lose an in-arc from outside the core
            d_list = vertices_of(inside & movable)
            if not cuts_enough(d_list):
                continue
            for size in range(min(delta * b, len(d_list)) + 1):
                for boundary in combinations(d_list, size):
                    if boundary in expanded or not cuts_enough(boundary):
                        continue
                    expanded.add(boundary)
                    for assignment in product(*(choices[v] for v in boundary)):
                        deleted = frozenset(
                            (u, v)
                            for v, gone in zip(boundary, assignment)
                            for u in gone
                        )
                        hit = 0
                        for arc in deleted:
                            hit |= path_bit.get(arc, 0)
                        if hit.bit_count() < need:
                            continue
                        f_aug = _without_arcs(aug, deleted)
                        for sep_hat in enumerate_important_separators(
                            f_aug, s_idx, t, b
                        ):
                            core = (
                                reach(
                                    f_aug,
                                    1 << t,
                                    "backward",
                                    within=f_aug.full_mask & ~sep_hat.vertices,
                                )
                                | sep_hat.vertices
                            )
                            cand = _lift_solution(
                                Solution(anchors=sep_hat.vertices, core=core),
                                stripped,
                            )
                            if verify_solution(nrm, cand):
                                return Verdict.yes(cand, trials=trials, note=note)
    return Verdict.no(trials=trials, note=note)


def solve_by_degree(inst: Instance, cfg: SearchConfig | None = None) -> Verdict:
    """``solve`` by degree regime alone, with no DAG or oracle fallback."""
    return solve(inst, cfg, solver="degree")


def solve(
    inst: Instance,
    cfg: SearchConfig | None = None,
    *,
    solver: str = "auto",
    allow_oracle: bool = False,
    cap: int = 10_000_000,
) -> Verdict:
    """Run the named solver and stamp its name on the verdict, whose witness
    the caller verifies.  ``"degree"`` and ``"auto"`` normalize once and route
    by regime: k = 1, then 2k against the maximum degree.  A maximum degree
    above 2k is W[2]-hard in the anchor budget; there ``"auto"`` goes on to
    the DAG solver and, with ``allow_oracle``, the oracle capped at ``cap``."""
    if solver == "oracle":
        return replace(oracle_solve(inst, cap=cap), solver="oracle")
    if solver == "k1":
        return replace(solve_k1(inst), solver="k1")
    if solver == "dag":
        return replace(solve_dag(inst, cfg), solver="dag")
    if solver not in ("degree", "auto"):
        raise ValueError(f"unknown solver {solver!r}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return replace(nrm, solver="normalize")
    if nrm.k == 1:
        return replace(solve_k1(nrm), solver="k1")
    delta = nrm.graph.max_degree()
    if 2 * nrm.k > delta:
        return replace(solve_high_k(nrm, delta, cfg), solver="high")
    if 2 * nrm.k == delta:
        return replace(solve_half_k(nrm, delta, cfg), solver="half")
    if solver == "degree":
        return Verdict.unsupported(
            "no exact routine for k >= 2 with max degree above 2k (that regime is "
            "W[2]-hard in the anchor budget); the exhaustive oracle handles small "
            "instances"
        )
    if is_acyclic(nrm.graph):
        return replace(solve_dag(nrm, cfg), solver="dag")
    if allow_oracle:
        return replace(oracle_solve(nrm, cap=cap), solver="oracle")
    return Verdict.unsupported(
        "k >= 2 with max degree above 2k on a cyclic graph is W[2]-hard in the "
        "anchor budget and no specialized solver applies; rerun with "
        "--allow-oracle to use the exhaustive oracle"
    )
