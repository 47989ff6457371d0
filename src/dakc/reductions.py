"""Generators that translate SAT, clique, and set-cover questions into
anchored-core instances with matching answers.

Each generator preserves the source problem's verdict exactly, so the outputs
double as a ground-truth corpus: a brute-force answer to the source question
must agree with any solver run on the generated instance.  A label sidecar
maps generated vertex ids back to gadget names for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance
from .graph import DirectedGraph, Mask, ParseError, _counts, _edge_keys, _int, _lines, _problem_line
from .solver_dag import is_acyclic


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    labels: tuple[str, ...]


@dataclass(frozen=True)
class CnfFormula:
    """CNF with DIMACS-style signed literals (variable ids are 1-based)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SetCoverInstance:
    """Cover all of a ``universe``-element ground set with at most ``budget``
    of the given sets (each set a mask over elements 0..universe-1)."""

    universe: int
    sets: tuple[Mask, ...]
    budget: int


def validate_cnf_shape(f: CnfFormula) -> None:
    """Enforce the restricted CNF shape the SAT translation needs.

    Clauses hold 1..3 literals with no repeated literal.  Every variable
    occurs at most 3 times overall and at most twice per polarity, which is
    what keeps the generated graph's maximum degree at k+2.  Variables may be
    single-polarity: the missing literal vertex is built anyway and the
    answer equivalence is unaffected.
    """
    if f.num_vars < 1:
        raise ValueError("formula must have at least one variable")
    pos = [0] * (f.num_vars + 1)
    neg = [0] * (f.num_vars + 1)
    for ci, clause in enumerate(f.clauses, start=1):
        if not 1 <= len(clause) <= 3:
            raise ValueError(f"clause {ci} has {len(clause)} literals (must be 1..3)")
        seen: set[int] = set()
        for lit in clause:
            var = abs(lit)
            if lit == 0 or var > f.num_vars:
                raise ValueError(f"clause {ci} contains invalid literal {lit}")
            if lit in seen:
                raise ValueError(f"clause {ci} repeats literal {lit}")
            seen.add(lit)
            if lit > 0:
                pos[var] += 1
            else:
                neg[var] += 1
    for var in range(1, f.num_vars + 1):
        if pos[var] + neg[var] > 3:
            raise ValueError(f"variable x{var} occurs {pos[var] + neg[var]} times (max 3)")
        if pos[var] > 2:
            raise ValueError(f"variable x{var} occurs {pos[var]} times positively (max 2)")
        if neg[var] > 2:
            raise ValueError(f"variable x{var} occurs {neg[var]} times negated (max 2)")


def gen_from_sat(f: CnfFormula, k: int = 1) -> GeneratedInstance:
    """Satisfiability as an anchored-core question, for any threshold k >= 1.

    Per variable: literal vertices feeding a collector r_i, padded by a layer
    of k-1 helpers (each fed by k private sources) so r_i sits one in-arc
    short of k; choosing which literal vertex to anchor is choosing the
    assignment.  Per clause: the same padding around a clause vertex fed by
    its literals.  The output graph is acyclic with max degree k+2, and the
    instance is YES exactly when the formula is satisfiable.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    validate_cnf_shape(f)
    n, m = f.num_vars, len(f.clauses)
    labels: list[str] = []
    arcs: list[tuple[int, int]] = []

    def fresh(label: str) -> int:
        labels.append(label)
        return len(labels) - 1

    def pad(target: int, helper: str, source: str) -> None:
        """k - 1 helpers into ``target``, labelled ``helper#1`` on, each fed
        by k private sources, labelled ``source#1`` on."""
        helpers = [fresh(f"{helper}#{a + 1}") for a in range(k - 1)]
        for y in helpers:
            arcs.append((y, target))
        for a, y in enumerate(helpers):
            for c in range(k):
                arcs.append((fresh(f"{source}#{a * k + c + 1}"), y))

    pos_vertex: dict[int, int] = {}
    neg_vertex: dict[int, int] = {}
    for i in range(1, n + 1):
        xi = fresh(f"x{i}")
        nxi = fresh(f"~x{i}")
        ri = fresh(f"r{i}")
        pos_vertex[i], neg_vertex[i] = xi, nxi
        arcs.append((xi, ri))
        arcs.append((nxi, ri))
        pad(ri, f"Y{i}", f"Z{i}")
    for j, clause in enumerate(f.clauses, start=1):
        vj = fresh(f"v{j}")
        for lit in clause:
            src = pos_vertex[lit] if lit > 0 else neg_vertex[-lit]
            arcs.append((src, vj))
        pad(vj, f"U{j}", f"W{j}")

    b = n * (k * (k - 1) + 1) + m * k * (k - 1)
    p = n * ((k + 1) * (k - 1) + 2) + m * ((k + 1) * (k - 1) + 1)
    graph = DirectedGraph.from_arcs(len(labels), arcs)
    return GeneratedInstance(
        instance=Instance(graph=graph, b=b, k=k, p=p), labels=tuple(labels)
    )


def gen_from_clique(
    n: int, edges: list[tuple[int, int]], b: int, k: int
) -> GeneratedInstance:
    """Clique-of-size-b as an anchored-core question at threshold k >= 2.

    Branch vertices copy the graph's vertices; each edge gets a sink fed by
    its two endpoints plus k-2 shared helper sources.  Anchoring the helpers
    and b branch vertices engages exactly the sinks inside the chosen vertex
    set, and only a clique yields enough of them.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    if k < 2:
        raise ValueError("k must be at least 2")
    norm_edges = _edge_keys(n, edges)
    labels = [f"u{v + 1}" for v in range(n)]
    arcs: list[tuple[int, int]] = []
    sink_of: dict[tuple[int, int], int] = {}
    for u, v in norm_edges:
        labels.append(f"w_{{{u + 1},{v + 1}}}")
        w = len(labels) - 1
        sink_of[(u, v)] = w
        arcs.append((u, w))
        arcs.append((v, w))
    for a in range(k - 2):
        labels.append(f"z{a + 1}")
        z = len(labels) - 1
        for e in norm_edges:
            arcs.append((z, sink_of[e]))
    graph = DirectedGraph.from_arcs(len(labels), arcs)
    return GeneratedInstance(
        instance=Instance(
            graph=graph, b=b + k - 2, k=k, p=b * (b + 1) // 2 + k - 2
        ),
        labels=tuple(labels),
    )


def gen_from_setcover(sc: SetCoverInstance) -> GeneratedInstance:
    """Set cover as an anchored-core question at threshold 1, max degree 3.

    Each set becomes a source chained through one vertex per member; each
    element becomes a chain of taps (one per containing set) feeding a long
    private path, so the target size is reachable only if every element's
    path is engaged, i.e. only if the anchored sources cover everything.
    """
    n, r = sc.universe, len(sc.sets)
    if n < 1:
        raise ValueError("universe must be nonempty")
    if sc.budget < 0:
        raise ValueError("budget must be nonnegative")
    members: list[list[int]] = []
    for i, mask in enumerate(sc.sets):
        if mask & ~((1 << n) - 1):
            raise ValueError(f"set {i + 1} contains elements outside the universe")
        members.append([j for j in range(n) if (mask >> j) & 1])
    containing: list[list[int]] = [[] for _ in range(n)]
    for i, elems in enumerate(members):
        for j in elems:
            containing[j].append(i)
    for j in range(n):
        if not containing[j]:
            raise ValueError(f"element u{j + 1} occurs in no set")

    length = 2 * r * n + r  # arcs per private path
    labels: list[str] = []
    arcs: list[tuple[int, int]] = []

    def fresh(label: str) -> int:
        labels.append(label)
        return len(labels) - 1

    x_vertex: dict[tuple[int, int], int] = {}
    for i in range(r):
        vi = fresh(f"v{i + 1}")
        prev = vi
        for j in members[i]:
            x = fresh(f"x{i + 1}.{j + 1}")
            x_vertex[(i, j)] = x
            arcs.append((prev, x))
            prev = x
    for j in range(n):
        taps = []
        for i in containing[j]:
            y = fresh(f"y{j + 1}.{i + 1}")
            taps.append(y)
            arcs.append((x_vertex[(i, j)], y))
        for a in range(len(taps) - 1):
            arcs.append((taps[a], taps[a + 1]))
        prev = taps[-1]
        for c in range(length - 1):
            q = fresh(f"P{j + 1}#{c + 1}")
            arcs.append((prev, q))
            prev = q
        wj = fresh(f"w{j + 1}")
        arcs.append((prev, wj))

    graph = DirectedGraph.from_arcs(len(labels), arcs)
    return GeneratedInstance(
        instance=Instance(graph=graph, b=sc.budget, k=1, p=n * length),
        labels=tuple(labels),
    )


def amplify_k(
    base: Instance,
    k: int,
    delta: int,
    base_labels: tuple[str, ...] | None = None,
) -> GeneratedInstance:
    """Raise a threshold-1 instance to threshold k >= 2 at max degree delta > 2k.

    Every base vertex gains k-1 in-arcs from a private k-vertex block, and
    consecutive blocks are fully joined so that fewer than k anchors in the
    blocks strand them all.  Answers are preserved; parameters become
    b + k and p + n*k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if delta <= 2 * k:
        raise ValueError(f"delta must exceed 2k = {2 * k}, got {delta}")
    if base.k != 1:
        raise ValueError("base instance must have threshold k = 1")
    g = base.graph
    if g.max_degree() > 3:
        raise ValueError("base graph must have max degree at most 3")
    if g.n < 3:
        raise ValueError("base graph must have at least 3 vertices")
    if not is_acyclic(g):
        raise ValueError("base graph must be acyclic")
    if base_labels is not None and len(base_labels) != g.n:
        raise ValueError("base_labels length must match the base vertex count")

    labels = list(base_labels) if base_labels is not None else [
        f"g{v + 1}" for v in range(g.n)
    ]
    arcs = list(g.arcs())
    blocks: list[list[int]] = []
    for i in range(g.n):
        block = []
        for c in range(k):
            labels.append(f"D{i + 1}#{c + 1}")
            block.append(len(labels) - 1)
        blocks.append(block)
        for d in block[: k - 1]:
            arcs.append((d, i))
    for i in range(1, g.n):
        for d_prev in blocks[i - 1]:
            for d_cur in blocks[i]:
                arcs.append((d_prev, d_cur))
    graph = DirectedGraph.from_arcs(len(labels), arcs)
    return GeneratedInstance(
        instance=Instance(graph=graph, b=base.b + k, k=k, p=base.p + g.n * k),
        labels=tuple(labels),
    )


# ---------------------------------------------------------------------------
# Source-problem input formats
# ---------------------------------------------------------------------------


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """DIMACS CNF: `p cnf <vars> <clauses>`, clauses as 0-terminated literal
    runs (line breaks inside a clause are fine), `c` comment lines."""
    num_vars = num_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line_no, line, fields in _lines(text):
        if fields[0] == "p":
            num_vars, num_clauses = _problem_line(
                num_vars, line_no, line, fields, "cnf", "variable or clause count"
            )
            continue
        if num_vars is None:
            raise ParseError(line_no, "header", "clause data before problem line")
        for tok in fields:
            lit = _int(tok, line_no, "token", "non-integer literal {token!r}")
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(
                        line_no, "vertex-range", f"literal {lit} out of range for {num_vars} variables"
                    )
                current.append(lit)
    if num_vars is None:
        raise ParseError(0, "header", "missing problem line 'p cnf <n> <m>'")
    if current:
        raise ParseError(0, "token", "unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise ParseError(
            0, "arc-count", f"problem line promises {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def parse_undirected_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Undirected edge-list format: `p ug <n> <m>` then `e <u> <v>` lines."""
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, line, fields in _lines(text):
        if fields[0] == "p":
            n, m = _problem_line(n, line_no, line, fields, "ug", "vertex or edge count")
        elif fields[0] == "e":
            if n is None:
                raise ParseError(line_no, "header", "edge line before problem line")
            if len(fields) != 3:
                raise ParseError(line_no, "token", f"expected 'e <u> <v>', got {line!r}")
            u = _int(fields[1], line_no, "token", "non-integer endpoint")
            v = _int(fields[2], line_no, "token", "non-integer endpoint")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, "vertex-range", f"vertex out of range 1..{n}")
            if u == v:
                raise ParseError(line_no, "self-loop", f"self-loop at vertex {u}")
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in seen:
                raise ParseError(line_no, "duplicate-edge", f"duplicate edge {{{u},{v}}}")
            seen.add(key)
            edges.append(key)
        else:
            raise ParseError(line_no, "token", f"unrecognized line tag {fields[0]!r}")
    if n is None:
        raise ParseError(0, "header", "missing problem line 'p ug <n> <m>'")
    if len(edges) != m:
        raise ParseError(0, "arc-count", f"problem line promises {m} edges, found {len(edges)}")
    return n, edges


def parse_setcover_text(text: str, budget: int) -> SetCoverInstance:
    """Set-cover format: `u <n>` then one `s <elem> <elem> ...` line per set
    (elements 1-based); the budget travels separately."""
    universe = None
    sets: list[Mask] = []
    for line_no, line, fields in _lines(text):
        if fields[0] == "u":
            if universe is not None:
                raise ParseError(line_no, "header", "duplicate universe line")
            if len(fields) != 2:
                raise ParseError(line_no, "header", f"expected 'u <n>', got {line!r}")
            [universe] = _counts(fields[1:], line_no, line, "universe size", "non-integer universe size")
        elif fields[0] == "s":
            if universe is None:
                raise ParseError(line_no, "header", "set line before universe line")
            mask = 0
            for tok in fields[1:]:
                e = _int(tok, line_no, "token", "non-integer element {token!r}")
                if not 1 <= e <= universe:
                    raise ParseError(line_no, "vertex-range", f"element {e} out of range 1..{universe}")
                if (mask >> (e - 1)) & 1:
                    raise ParseError(line_no, "duplicate-edge", f"element {e} repeated in set")
                mask |= 1 << (e - 1)
            sets.append(mask)
        else:
            raise ParseError(line_no, "token", f"unrecognized line tag {fields[0]!r}")
    if universe is None:
        raise ParseError(0, "header", "missing universe line 'u <n>'")
    return SetCoverInstance(universe=universe, sets=tuple(sets), budget=budget)


def parse_labels(text: str, name: str) -> tuple[str, ...]:
    """Label sidecar text, as :func:`format_labels` writes it: one
    `<id> <label>` line per vertex, in id order.  A line without a label, or
    whose id is not the next 1-based id as written, is an error that names
    the sidecar ``name``."""
    labels = []
    for vertex, (line_no, line, _) in enumerate(_lines(text), start=1):
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise ParseError(line_no, "params", f"malformed label sidecar {name}")
        if parts[0] != str(vertex):
            raise ParseError(line_no, "params", f"label id {parts[0]!r} in {name} is not the next id {vertex}")
        labels.append(parts[1])
    return tuple(labels)


def format_labels(labels: tuple[str, ...]) -> str:
    """Label sidecar text: one `<1-based id> <label>` line per vertex."""
    return "\n".join(f"{i + 1} {label}" for i, label in enumerate(labels)) + "\n"
