"""Ground truth for the benchmark, written against the problem definitions.

Nothing here calls the solvers under test: the brute forces answer the
source SAT, clique and set-cover questions directly, and the witness checker
re-checks a reported solution from the arcs the benchmark generated itself.
"""

from __future__ import annotations

from itertools import combinations, product


def satisfiable(num_vars: int, clauses: list[tuple[int, ...]]) -> bool:
    """Try every assignment; literal +v / -v is variable v true / false."""
    for values in product((False, True), repeat=num_vars):
        if all(any(values[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def has_clique(n: int, edges: list[tuple[int, int]], size: int) -> bool:
    adjacent = {frozenset(e) for e in edges}
    return any(
        all(frozenset(pair) in adjacent for pair in combinations(group, 2))
        for group in combinations(range(n), size)
    )


def coverable(universe: int, sets: list[int], budget: int) -> bool:
    """Whether at most ``budget`` of the element masks cover every element."""
    everything = (1 << universe) - 1
    for count in range(min(budget, len(sets)) + 1):
        for chosen in combinations(sets, count):
            union = 0
            for mask in chosen:
                union |= mask
            if union == everything:
                return True
    return False


def witness_violation(
    in_nbrs: list[list[int]], b: int, k: int, p: int, anchors: list[int], core: list[int]
) -> str | None:
    """Why a reported (1-based) witness is invalid, or None if it holds.

    Valid means: distinct in-range vertices, anchors inside the core, at most
    b anchors, at least p core vertices, and every non-anchor core vertex
    has at least k in-neighbours inside the core.
    """
    n = len(in_nbrs)
    core_set, anchor_set = set(core), set(anchors)
    if len(core_set) != len(core) or len(anchor_set) != len(anchors):
        return "repeated vertex"
    if any(not 1 <= v <= n for v in core_set | anchor_set):
        return "vertex out of range"
    if not anchor_set <= core_set:
        return "anchor outside the core"
    if len(anchor_set) > b:
        return f"{len(anchor_set)} anchors exceed budget {b}"
    if len(core_set) < p:
        return f"core of {len(core_set)} is below target {p}"
    inside = {v - 1 for v in core_set}
    for v in inside - {a - 1 for a in anchor_set}:
        if sum(1 for u in in_nbrs[v] if u in inside) < k:
            return f"vertex {v + 1} has in-degree below {k} in the core"
    return None
