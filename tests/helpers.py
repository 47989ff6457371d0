"""Shared generators and independent brute-force oracles for the tests.

Everything here is deliberately written against the problem definitions, not
the library's algorithms, so agreement between the two is meaningful.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import combinations, product

from dakc import solver_degree
from dakc import (
    DirectedGraph,
    Instance,
    Solution,
    Verdict,
    enumerate_important_separators,
    induced_subgraph,
    knapsack_select,
    normalize,
    oracle_solve,
    partial_set_cover,
    reach,
    search_with_coloring,
    strip_special_components,
    strongly_connected_components,
    verify_solution,
    vertices_of,
    vset,
)
from dakc.graph import lift_mask


def random_digraph(rng: random.Random, n: int, arc_prob: float) -> DirectedGraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < arc_prob
    ]
    return DirectedGraph.from_arcs(n, arcs)


def adjacency_reference(
    n: int, arcs
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Sorted out- and in-adjacency of an arc list, one list per vertex."""
    out: list[list[int]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(arcs):
        out[u].append(v)
        into[v].append(u)
    return tuple(map(tuple, out)), tuple(map(tuple, into))


def vertices_of_reference(mask: int) -> list[int]:
    """The members of a mask, bit by bit."""
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def solution_violation_reference(inst: Instance, sol: Solution) -> str | None:
    """``solution_violation`` reading each non-anchor's in-neighbour mask."""
    g = inst.graph
    if sol.core & ~g.full_mask or sol.anchors & ~g.full_mask:
        return "solution names vertices outside the graph"
    if sol.anchors & ~sol.core:
        return "anchors are not a subset of the core"
    if sol.anchors.bit_count() > inst.b:
        return f"anchor count {sol.anchors.bit_count()} exceeds budget {inst.b}"
    if sol.core.bit_count() < inst.p:
        return f"core size {sol.core.bit_count()} is below target {inst.p}"
    for v in vertices_of(sol.core & ~sol.anchors):
        if (g.in_mask[v] & sol.core).bit_count() < inst.k:
            return f"non-anchor vertex {v + 1} has in-degree below {inst.k} inside the core"
    return None


def random_digraph_degree_capped(
    rng: random.Random, n: int, delta: int, arc_prob: float
) -> DirectedGraph:
    """Random digraph whose total degree never exceeds ``delta``."""
    candidates = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(candidates)
    deg = [0] * n
    arcs = []
    for u, v in candidates:
        if deg[u] < delta and deg[v] < delta and rng.random() < arc_prob:
            arcs.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return DirectedGraph.from_arcs(n, arcs)


def random_dag_degree_capped(
    rng: random.Random, n: int, delta: int, arc_prob: float
) -> DirectedGraph:
    """Random DAG (arcs respect a random topological order) with a degree cap."""
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    candidates = [(u, v) for u in range(n) for v in range(n) if rank[u] < rank[v]]
    rng.shuffle(candidates)
    deg = [0] * n
    arcs = []
    for u, v in candidates:
        if deg[u] < delta and deg[v] < delta and rng.random() < arc_prob:
            arcs.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return DirectedGraph.from_arcs(n, arcs)


def flipped(g: DirectedGraph) -> DirectedGraph:
    """``g`` with every arc turned around, rebuilt from its arc list."""
    return DirectedGraph.from_arcs(g.n, [(v, u) for u, v in g.arcs()])


def path_graph(n: int) -> DirectedGraph:
    return DirectedGraph.from_arcs(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> DirectedGraph:
    return DirectedGraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


def cycle_with_pendants() -> DirectedGraph:
    """A 20-cycle, which survives unanchored at k = 1, plus 3 pendant sources."""
    arcs = [(i, (i + 1) % 20) for i in range(20)] + [(20, 0), (21, 5), (22, 10)]
    return DirectedGraph.from_arcs(23, arcs)


def peel_in_order(
    g: DirectedGraph, k: int, anchors: int, rng: random.Random
) -> int:
    """Reference peel that deletes one random deficient vertex at a time."""
    alive = set(range(g.n))
    while True:
        deficient = [
            v
            for v in sorted(alive)
            if not (anchors >> v) & 1
            and sum(1 for u in g.in_adj[v] if u in alive) < k
        ]
        if not deficient:
            return vset(alive)
        alive.remove(rng.choice(deficient))


def oracle_reference(inst: Instance) -> Verdict:
    """Plain enumeration of every anchor set of size at most b, smallest
    first and lexicographic within a size; the first whose peel (one random
    deficient vertex at a time) reaches p vertices is the witness.
    Degenerate parameters go through ``normalize`` exactly as in the
    library, so whole verdicts can be compared."""
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    g = nrm.graph
    rng = random.Random(0)
    for size in range(min(g.n, nrm.b) + 1):
        for combo in combinations(range(g.n), size):
            anchors = vset(combo)
            core = peel_in_order(g, nrm.k, anchors, rng)
            if core.bit_count() >= nrm.p:
                return Verdict.yes(Solution(anchors=anchors, core=core))
    return Verdict.no()


def k1_reference(inst: Instance) -> Verdict:
    """The k = 1 algorithm spelled out on explicit subgraphs: bank the
    forward closure of the cyclic strongly connected components, rebuild the
    residual DAG as an induced subgraph, run partial set cover over its
    sources' reach sets and lift the answer back to the input's ids."""
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    g, b, p = nrm.graph, nrm.b, nrm.p
    banked = cycle_closure(g)
    banked_size = banked.bit_count()
    if b >= p - banked_size:
        need = p - banked_size
        extra = vset(vertices_of(g.full_mask & ~banked)[:need]) if need > 0 else 0
        return Verdict.yes(Solution(anchors=extra, core=extra | banked))
    sub = induced_subgraph(g, g.full_mask & ~banked)
    dag = sub.graph
    sources = [v for v in range(dag.n) if dag.in_degrees[v] == 0]
    if len(sources) <= b:
        return Verdict.yes(Solution(anchors=lift_mask(vset(sources), sub.to_parent), core=g.full_mask))
    reach_sets = tuple(reach(dag, 1 << s, "forward") for s in sources)
    picked = partial_set_cover(reach_sets, b, p - banked_size)
    if picked is None:
        return Verdict.no()
    covered = 0
    for i in picked:
        covered |= reach_sets[i]
    return Verdict.yes(Solution(
        anchors=lift_mask(vset(sources[i] for i in picked), sub.to_parent),
        core=lift_mask(covered, sub.to_parent) | banked,
    ))


def cycle_closure(g: DirectedGraph) -> int:
    """Everything reachable from a cycle: the forward closure of the
    strongly connected components that carry one."""
    seeds = 0
    for comp, cyclic in strongly_connected_components(g):
        if cyclic:
            seeds |= comp
    return reach(g, seeds, "forward")


def coloring_trial_reference(
    g: DirectedGraph, k: int, b: int, p: int, red: int
) -> Solution | None:
    """One coloring trial spelled out step by step: every weak component of
    the red set, a summary of each, a knapsack over every summary that needs
    at most b anchors, and a verified assembly.  No bound and no early exit."""
    summaries = []
    remaining = red & g.full_mask
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            nxt = 0
            for v in vertices_of(frontier):
                nxt |= g.und_mask[v]
            frontier = nxt & remaining & ~comp
            comp |= frontier
        remaining &= ~comp
        deficient = vset(
            v for v in vertices_of(comp) if (g.in_mask[v] & comp).bit_count() < k
        )
        if deficient.bit_count() <= b:
            summaries.append((deficient, comp))
    picked = knapsack_select(
        [(deficient.bit_count(), comp.bit_count()) for deficient, comp in summaries], b, p
    )
    if picked is None:
        return None
    anchors = core = 0
    for i in picked:
        anchors |= summaries[i][0]
        core |= summaries[i][1]
    sol = Solution(anchors=anchors, core=core)
    assert verify_solution(Instance(graph=g, b=b, k=k, p=p), sol)
    return sol


def bounded_search_reference(inst: Instance, q: int) -> Verdict:
    """The bounded search one coloring at a time: each integer below 2^n, in
    order, goes through ``search_with_coloring`` until one hits."""
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm if nrm.is_yes else Verdict.no_up_to(q, note=nrm.note)
    g = nrm.graph
    for red in range(1 << g.n):
        sol = search_with_coloring(g, nrm.k, nrm.b, nrm.p, red)
        if sol is not None:
            return Verdict.yes(sol)
    return Verdict.no_up_to(q)


def split_graph_flow(
    g: DirectedGraph, alive: int, sources: int, sink: int, limit: int
) -> tuple[int, dict[tuple[int, int], int]]:
    """Max flow from ``sources`` to ``sink`` inside ``alive`` on an explicit
    split graph, stopped once it exceeds ``limit``: node 2v enters vertex v,
    node 2v+1 leaves it, the internal arc has capacity 1 (``limit + 3`` for
    sources and the sink) and every original arc has capacity ``limit + 3``.
    Returns the flow value and the residual capacities, a dict keyed by
    node pairs; an arc's flow is the residual capacity of its reverse.
    The sink must not be a source."""
    big = limit + 3
    super_src = 2 * g.n
    sink_node = 2 * sink
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {}

    def add_arc(a: int, b: int, c: int) -> None:
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = cap.get((b, a), 0)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        cap[(a, b)] += c

    for v in vertices_of(alive):
        protected = bool((sources >> v) & 1) or v == sink
        add_arc(2 * v, 2 * v + 1, big if protected else 1)
        for w in g.out_adj[v]:
            if (alive >> w) & 1:
                add_arc(2 * v + 1, 2 * w, big)
    for v in vertices_of(sources & alive):
        add_arc(super_src, 2 * v, big)

    flow = 0
    while flow <= limit:
        parent = {super_src: super_src}
        queue = [super_src]
        head = 0
        while head < len(queue) and sink_node not in parent:
            a = queue[head]
            head += 1
            for b in adj.get(a, ()):
                if b not in parent and cap.get((a, b), 0) > 0:
                    parent[b] = a
                    queue.append(b)
        if sink_node not in parent:
            break
        bottleneck = big
        b = sink_node
        while b != super_src:
            a = parent[b]
            bottleneck = min(bottleneck, cap[(a, b)])
            b = a
        b = sink_node
        while b != super_src:
            a = parent[b]
            cap[(a, b)] -= bottleneck
            cap[(b, a)] += bottleneck
            b = a
        flow += bottleneck
    return flow, cap


def min_vertex_cut_reference(
    g: DirectedGraph, alive: int, sources: int, sink: int, limit: int
) -> tuple[int, int] | None:
    """Minimum vertex cut closest to the sink, read off the residual graph
    of ``split_graph_flow``.  None when the cut exceeds ``limit``."""
    if (sources >> sink) & 1:
        return None
    flow, cap = split_graph_flow(g, alive, sources, sink, limit)
    if flow > limit:
        return None
    sink_node = 2 * sink
    preds: dict[int, list[int]] = {}
    for a, b in cap:
        preds.setdefault(b, []).append(a)
    sink_side = {sink_node}
    queue = [sink_node]
    head = 0
    while head < len(queue):
        b = queue[head]
        head += 1
        for a in preds.get(b, ()):
            if a not in sink_side and cap.get((a, b), 0) > 0:
                sink_side.add(a)
                queue.append(a)
    cut = 0
    for v in vertices_of(alive & ~sources):
        if v != sink and 2 * v + 1 in sink_side and 2 * v not in sink_side:
            cut |= 1 << v
    return flow, cut


def min_cut_from_source_reference(
    g: DirectedGraph, alive: int, source: int, sinks: int, limit: int
) -> tuple[int, int] | None:
    """``separators._min_vertex_cut`` from scratch: ``min_vertex_cut_reference``
    on the flipped graph, from the sinks to the source.  Flipping every arc
    keeps the minimum cuts and swaps their sides, so the cut closest to the
    reference's sink is the one closest to the source here."""
    return min_vertex_cut_reference(flipped(g), alive, sinks, source, limit)


def disjoint_paths_reference(g: DirectedGraph, s: int, t: int, limit: int) -> list[tuple[int, ...]]:
    """Internally vertex-disjoint s-t paths read off the flow of
    ``split_graph_flow``: from each flow arc out of s, follow the one flow
    arc out of each vertex until t.  As many paths as the flow value, which
    is limit + 1 when the flow exceeds the limit."""
    if g.has_arc(s, t):
        raise ValueError("s and t are adjacent")
    _, cap = split_graph_flow(g, g.full_mask, 1 << s, t, limit)

    def heads(u: int) -> list[int]:
        return [w for w in g.out_adj[u] if cap.get((2 * w, 2 * u + 1), 0) > 0]

    paths = []
    for v in heads(s):
        path = [s, v]
        while v != t:
            (v,) = heads(v)
            path.append(v)
        paths.append(tuple(path))
    return paths


def without_arcs_reference(g: DirectedGraph, deleted) -> DirectedGraph:
    """``g`` minus the arcs in ``deleted``, rebuilt from a filtered arc list."""
    return DirectedGraph.from_arcs(g.n, [a for a in g.arcs() if a not in deleted])


def cut_fits_reference(out_rows, in_rows, deleted, s, t, b, paths) -> bool:
    """``solver_degree._cut_fits`` from scratch: the graph of the rows minus
    ``deleted``, rebuilt, flipped and cut by ``min_vertex_cut_reference``
    from t to s, which has the size of the inner enumeration's first cut,
    from s to t; ``paths`` is not read."""
    n = len(out_rows)
    g = without_arcs_reference(
        DirectedGraph.from_arcs(n, [(u, w) for u in range(n) for w in vertices_of(out_rows[u])]),
        deleted,
    )
    return min_vertex_cut_reference(flipped(g), g.full_mask, 1 << t, s, b) is not None


@contextmanager
def stage3_only():
    """Run ``solve_half_k``'s stage 3 on its own: inside the block its probe
    answers ``Verdict.no_up_to(0)``, which finds no core and rules out no t."""
    probe = solver_degree.bounded_core_search
    solver_degree.bounded_core_search = lambda inst, q: Verdict.no_up_to(0)
    try:
        yield
    finally:
        solver_degree.bounded_core_search = probe


def stage3_reference(inst: Instance, delta: int):
    """Stage 3 of ``solve_half_k`` with no pruning: every deletion set of
    every boundary guess under every separator runs the inner enumeration.

    Returns the verdict, which inside ``stage3_only`` must equal the
    solver's, and every inner call in order as ``(t, deleted, separators)``.
    """
    calls: list[tuple[int, frozenset, list]] = []
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm, calls
    stripped = strip_special_components(nrm)
    if isinstance(stripped, Verdict):
        return stripped, calls
    g1, b, k = stripped.instance.graph, stripped.instance.b, stripped.instance.k
    if b == 0:
        return Verdict.no(), calls

    s = g1.n
    aug = DirectedGraph.from_arcs(
        g1.n + 1, list(g1.arcs()) + [(s, v) for v in range(g1.n) if g1.in_degrees[v] < k]
    )
    for t in range(g1.n):
        if g1.in_degrees[t] < k:
            continue
        for sep_star in enumerate_important_separators(aug, s, t, (delta * (k - 1) + 1) * b):
            inside = reach(g1, 1 << t, "backward", within=g1.full_mask & ~sep_star)
            inside |= sep_star
            d_list = [
                v for v in vertices_of(inside)
                if g1.in_degrees[v] > k or (g1.in_mask[v] & inside).bit_count() < k
            ]
            tried = set()
            for size in range(min(delta * b, len(d_list)) + 1):
                for boundary in combinations(d_list, size):
                    choice_lists = [
                        [gone for r in range(len(g1.in_adj[v]) - k + 1)
                         for gone in combinations(g1.in_adj[v], r)]
                        for v in boundary
                    ]
                    for assignment in product(*choice_lists):
                        deleted = frozenset(
                            (u, v) for v, gone in zip(boundary, assignment) for u in gone
                        )
                        if deleted in tried:
                            continue
                        tried.add(deleted)
                        f_aug = without_arcs_reference(aug, deleted)
                        seps = enumerate_important_separators(f_aug, s, t, b)
                        calls.append((t, deleted, seps))
                        for sep in seps:
                            core = reach(f_aug, 1 << t, "backward", within=f_aug.full_mask & ~sep)
                            sol = Solution(
                                anchors=lift_mask(sep, stripped.to_parent),
                                core=lift_mask(core | sep, stripped.to_parent)
                                | stripped.removed,
                            )
                            if verify_solution(nrm, sol):
                                return Verdict.yes(sol), calls
    return Verdict.no(), calls


def ring_digraph(
    rng: random.Random, n: int, delta: int, window: int, acyclic: bool = False
) -> DirectedGraph:
    """Arcs join ring vertices at most ``window`` apart, in both directions,
    added in random order while both ends have total degree below ``delta``;
    locality makes small anchored cores common.  ``acyclic`` keeps only the
    arcs that go up a random ranking of the vertices."""
    rank = list(range(n))
    if acyclic:
        rng.shuffle(rank)
    pairs = [(u, (u + d) % n) for u in range(n) for d in range(1, window + 1)]
    pairs += [(v, u) for u, v in pairs]
    if acyclic:
        pairs = [(u, v) for u, v in pairs if rank[u] < rank[v]]
    rng.shuffle(pairs)
    degree = [0] * n
    arcs = []
    for u, v in pairs:
        if degree[u] < delta and degree[v] < delta:
            arcs.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return DirectedGraph.from_arcs(n, arcs)


def largest_feasible(g: DirectedGraph, b: int, k: int) -> int:
    """The largest p the oracle answers YES for, at least b."""
    best = b
    while best < g.n and oracle_solve(Instance(graph=g, b=b, k=k, p=best + 1)).is_yes:
        best += 1
    return best


def ring_instance(rng: random.Random) -> Instance:
    """A seeded instance on which ``solve_half_k`` reaches stage 3 unforced.

    A ``ring_digraph`` of window 2 with n 22-30, max degree 4, k = 2, b = 1,
    and p is p* or p* + 1, where p* > b is the largest p the oracle answers
    YES for.  n > (4p + 1) * b, so the bounded stage cannot cover every core
    size.
    """
    b, k, delta = 1, 2, 4
    while True:
        n = rng.randint(22, 30)
        g = ring_digraph(rng, n, delta, 2)
        if g.max_degree() != delta:
            continue
        best = largest_feasible(g, b, k)
        p = best + rng.randint(0, 1)
        if best > b and n > (delta * p + 1) * b:
            return Instance(graph=g, b=b, k=k, p=p)


def solution_exists_with_core_at_most(inst: Instance, bound: int) -> bool:
    """Subset search: is there a valid core H with p <= |H| <= bound?

    A candidate H works iff its deficient vertices (in-degree below k inside
    H) fit in the anchor budget.  Independent of the peel machinery.
    """
    g, b, k, p = inst.graph, inst.b, inst.k, inst.p
    for h_mask in range(1 << g.n):
        size = h_mask.bit_count()
        if not p <= size <= bound:
            continue
        deficient = 0
        for v in vertices_of(h_mask):
            if (g.in_mask[v] & h_mask).bit_count() < k:
                deficient += 1
                if deficient > b:
                    break
        if deficient <= b:
            return True
    return False


def undirected_akc_brute_force(
    n: int, edges: list[tuple[int, int]], b: int, k: int, p: int
) -> bool:
    """Undirected anchored k-core feasibility by subset search."""
    if p > n:
        return False
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for h_mask in range(1 << n):
        if h_mask.bit_count() < p:
            continue
        members = vertices_of(h_mask)
        deficient = sum(
            1
            for v in members
            if sum(1 for u in nbrs[v] if (h_mask >> u) & 1) < k
        )
        if deficient <= b:
            return True
    return False


def sat_brute_force(num_vars: int, clauses) -> bool:
    for assignment in product((False, True), repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(
                assignment[abs(lit) - 1] == (lit > 0) for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def clique_brute_force(n: int, edges: list[tuple[int, int]], b: int) -> bool:
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    if b <= 1:
        return n >= b
    for combo in combinations(range(n), b):
        if all(
            (combo[i], combo[j]) in edge_set
            for i in range(b)
            for j in range(i + 1, b)
        ):
            return True
    return False


def cover_brute_force(universe: int, sets, budget: int) -> bool:
    full = (1 << universe) - 1
    for r in range(min(budget, len(sets)) + 1):
        for combo in combinations(range(len(sets)), r):
            mask = 0
            for i in combo:
                mask |= sets[i]
            if mask == full:
                return True
    return False


def random_restricted_cnf(rng: random.Random, num_vars: int, max_clauses: int):
    """Random CNF meeting the translation invariants: 1..3 literals per
    clause, no repeated variable in a clause, each variable 1..2 occurrences
    per polarity with at most 3 total, at least one of each polarity."""
    occurrences: list[int] = []
    for var in range(1, num_vars + 1):
        pattern = rng.choice([(1, 1), (1, 1), (2, 1), (1, 2)])
        occurrences.extend([var] * pattern[0])
        occurrences.extend([-var] * pattern[1])
    rng.shuffle(occurrences)
    clauses: list[list[int]] = [[]]
    for lit in occurrences:
        placed = False
        for clause in rng.sample(clauses, len(clauses)):
            if len(clause) < 3 and all(abs(x) != abs(lit) for x in clause):
                clause.append(lit)
                placed = True
                break
        if not placed:
            clauses.append([lit])
    clauses = [c for c in clauses if c]
    while len(clauses) > max_clauses:
        # merge the two smallest clauses when variables allow, else give up
        clauses.sort(key=len)
        merged = False
        for i in range(len(clauses)):
            for j in range(i + 1, len(clauses)):
                union = clauses[i] + clauses[j]
                if len(union) <= 3 and len({abs(x) for x in union}) == len(union):
                    clauses[i] = union
                    del clauses[j]
                    merged = True
                    break
            if merged:
                break
        if not merged:
            break
    return num_vars, tuple(tuple(c) for c in clauses)
