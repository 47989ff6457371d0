"""Directed-graph representation, instance-file parsing, and reachability primitives.

Vertices are contiguous integers ``0..n-1`` internally; the text formats are
1-based.  Vertex sets travel as plain int bitmasks (bit ``v`` set means vertex
``v`` is a member), which gives O(1) membership and word-parallel unions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


Mask = int


def vset(vertices: Iterable[int]) -> Mask:
    """Build a vertex-set mask from an iterable of vertex ids."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask: Mask) -> list[int]:
    """List the members of a vertex-set mask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_vertices(mask: Mask) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ParseError(ValueError):
    """Raised for malformed instance text; carries the offending line number.

    ``kind`` distinguishes the failure classes: ``header``, ``token``,
    ``self-loop``, ``duplicate-arc``, ``duplicate-edge``, ``vertex-range``,
    ``arc-count``, ``params``.
    """

    def __init__(self, line_no: int, kind: str, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.kind = kind


@dataclass(frozen=True)
class DirectedGraph:
    """A simple loop-free digraph with sorted in/out adjacency lists.

    Immutable after construction; instances are safe to share between
    concurrent workers.  Use :meth:`from_arcs` rather than the raw
    constructor so the invariants (no loops, no duplicate arcs, sorted
    adjacency, in/out consistency) are enforced.
    """

    n: int
    out_adj: tuple[tuple[int, ...], ...]
    in_adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "DirectedGraph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate arc ({u},{v})")
            seen.add((u, v))
        return cls._from_checked(*_sorted_adjacency(n, seen))

    @classmethod
    def _from_checked(
        cls, out_adj: Sequence[tuple[int, ...]], in_adj: Sequence[tuple[int, ...]], **tables
    ) -> "DirectedGraph":
        """Wrap adjacency lists that already hold every invariant (in range,
        no loops, no duplicates, sorted, in/out consistent), checking nothing
        again.  For callers that validated the arcs themselves.

        ``tables`` presets cached tables (``out_mask``, ``in_degrees``, ...)
        that the caller already holds for this graph, so they are not
        rebuilt.  A cached property keeps its value in the instance dict,
        which a frozen dataclass leaves writable.
        """
        g = cls(n=len(out_adj), out_adj=tuple(out_adj), in_adj=tuple(in_adj))
        g.__dict__.update(tables)
        return g

    @cached_property
    def out_mask(self) -> tuple[Mask, ...]:
        return tuple(vset(a) for a in self.out_adj)

    @cached_property
    def in_mask(self) -> tuple[Mask, ...]:
        return tuple(vset(a) for a in self.in_adj)

    @cached_property
    def und_mask(self) -> tuple[Mask, ...]:
        """Per-vertex neighbourhood in the underlying undirected graph."""
        return tuple(i | o for i, o in zip(self.in_mask, self.out_mask))

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.in_adj)

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.out_adj)

    @cached_property
    def in_degree_below(self) -> tuple[Mask, ...]:
        """Entry ``d`` is the set of vertices whose in-degree is below ``d``.

        The last entry, one past the largest in-degree, holds every vertex.
        """
        below = [0] * (max(self.in_degrees, default=0) + 2)
        for v, d in enumerate(self.in_degrees):
            below[d + 1] |= 1 << v
        for d in range(1, len(below)):
            below[d] |= below[d - 1]
        return tuple(below)

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    def arc_count(self) -> int:
        return sum(len(a) for a in self.out_adj)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.out_adj):
            for v in nbrs:
                yield (u, v)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.out_mask[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.in_degrees[v] + self.out_degrees[v]

    def max_degree(self) -> int:
        return self._max_degree

    @cached_property
    def _max_degree(self) -> int:
        return max((i + o for i, o in zip(self.in_degrees, self.out_degrees)), default=0)


def _sorted_adjacency(
    n: int, arcs: Iterable[tuple[int, int]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Sorted out- and in-adjacency lists of arcs that are already checked.

    The arcs are appended in sorted order, so every list comes out sorted;
    one sort of the arcs is linear on the sorted arcs of canonical text.
    """
    out: list[list[int]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(arcs):
        out[u].append(v)
        into[v].append(u)
    return list(map(tuple, out)), list(map(tuple, into))


def to_bidirected(n: int, edges: Iterable[tuple[int, int]]) -> DirectedGraph:
    """Model an undirected graph as a digraph: each edge becomes both arcs."""
    arcs = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {{{u},{v}}}")
        seen.add(key)
        arcs.append((u, v))
        arcs.append((v, u))
    return DirectedGraph.from_arcs(n, arcs)


_MIRRORED = (
    ("out_mask", "in_mask"),
    ("in_mask", "out_mask"),
    ("out_degrees", "in_degrees"),
    ("in_degrees", "out_degrees"),
)


def reverse(g: DirectedGraph) -> DirectedGraph:
    """The graph with every arc flipped.

    Every mask or degree table that ``g`` has already built is handed over
    swapped (the reverse's ``out_mask`` is ``g.in_mask``), not rebuilt.
    """
    built = g.__dict__
    return DirectedGraph._from_checked(
        g.in_adj,
        g.out_adj,
        **{name: built[mirror] for name, mirror in _MIRRORED if mirror in built},
    )


def reach(
    g: DirectedGraph, seeds: Mask, direction: str = "forward", within: Mask | None = None
) -> Mask:
    """Vertices connected to ``seeds`` by a directed path.

    ``forward`` follows arcs (everything reachable from the seeds),
    ``backward`` follows arcs in reverse (everything that can reach a seed).
    Every seed is included: a vertex reaches itself.  When ``within`` is
    given, the walk is confined to that vertex set (seeds outside it are
    dropped), which is how callers reach around deleted vertices.
    """
    if direction == "forward":
        step = g.out_mask
    elif direction == "backward":
        step = g.in_mask
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    alive = g.full_mask if within is None else within
    seen = seeds & alive
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_vertices(frontier):
            nxt |= step[v]
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def strongly_connected_components(g: DirectedGraph) -> list[tuple[Mask, bool]]:
    """Tarjan's algorithm, iteratively.

    Returns ``(vertices, cyclic)`` pairs ordered by smallest member.  A
    component is cyclic iff it has at least two vertices; singletons cannot
    carry a cycle because self-loops are excluded by construction.
    """
    n = g.n
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[Mask] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # explicit DFS stack of (vertex, next-child position)
        work = [(root, 0)]
        while work:
            v, ci = work[-1]
            if ci == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if ci < len(g.out_adj[v]):
                work[-1] = (v, ci + 1)
                w = g.out_adj[v][ci]
                if index[w] == -1:
                    work.append((w, 0))
                elif on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = 0
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp |= 1 << w
                        if w == v:
                            break
                    comps.append(comp)
    comps.sort(key=lambda m: (m & -m).bit_length())
    return [(m, m.bit_count() >= 2) for m in comps]


def weakly_connected_components(g: DirectedGraph, within: Mask | None = None) -> list[Mask]:
    """Connected components of the underlying undirected graph, by smallest member.

    When ``within`` is given, these are the components of the subgraph it
    induces, in parent-graph ids.
    """
    und = g.und_mask
    remaining = g.full_mask if within is None else within & g.full_mask
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= und[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph together with the index maps in both directions."""

    graph: DirectedGraph
    to_parent: tuple[int, ...]

    @cached_property
    def from_parent(self) -> dict[int, int]:
        return {old: new for new, old in enumerate(self.to_parent)}

    def lift_mask(self, mask: Mask) -> Mask:
        """Translate a vertex set of the subgraph into parent-graph ids."""
        return lift_mask(mask, self.to_parent)


def lift_mask(mask: Mask, to_parent: tuple[int, ...]) -> Mask:
    """Translate a vertex set through an index map: vertex ``v`` becomes
    ``to_parent[v]``."""
    out = 0
    for v in iter_vertices(mask):
        out |= 1 << to_parent[v]
    return out


def induced_subgraph(g: DirectedGraph, keep: Mask) -> InducedSubgraph:
    """The subgraph induced by ``keep``, with old/new index maps retained."""
    if keep & ~g.full_mask:
        raise ValueError("keep set contains vertices outside the graph")
    old_ids = vertices_of(keep)
    new_of_old = {old: new for new, old in enumerate(old_ids)}
    arcs = [
        (new_of_old[u], new_of_old[v])
        for u in old_ids
        for v in g.out_adj[u]
        if (keep >> v) & 1
    ]
    return InducedSubgraph(
        graph=DirectedGraph.from_arcs(len(old_ids), arcs),
        to_parent=tuple(old_ids),
    )


# ---------------------------------------------------------------------------
# Instance text format:
#   c <comment>            (optional, anywhere)
#   p dakc <n> <m>
#   a <u> <v>              (m arc lines, 1-based)
#   q <b> <k> <p>          (optional default parameters)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedInstance:
    graph: DirectedGraph
    params: tuple[int, int, int] | None  # (b, k, p) from a `q` line, if any


# The layout serialize_instance writes: one space between fields, "\n" line
# ends, no comments or blank lines.  Group 3 is the arc block.
_CANONICAL = re.compile(
    r"p dakc ([0-9]+) ([0-9]+)((?:\na [0-9]+ [0-9]+)*)"
    r"(?:\nq ([0-9]+) ([0-9]+) ([0-9]+))?\n?"
)
_ZERO_BASED = (-1).__add__  # a 1-based vertex id to its 0-based one


def parse_instance_text(text: str) -> ParsedInstance:
    """Parse instance text, checking every line.

    Canonical text is read by one regex match and whole-list checks; any
    other text, and any canonical text that fails a check, goes through the
    line-by-line reader, which alone raises, so each error names its line.
    """
    return _parse_canonical(text) or _parse_lines(text)


def _parse_canonical(text: str) -> ParsedInstance | None:
    """The instance, if ``text`` has the canonical layout and passes every
    check; otherwise None."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return None
    n_text, m_text, arc_block, *q_text = match.groups()
    try:
        n, m = int(n_text), int(m_text)
        tokens = arc_block.split()
        us = list(map(_ZERO_BASED, map(int, tokens[1::3])))
        vs = list(map(_ZERO_BASED, map(int, tokens[2::3])))
        params = None if q_text[0] is None else tuple(map(int, q_text))
    except ValueError:  # a digit string beyond int's limit
        return None
    if (
        len(us) != m
        or us and (min(min(us), min(vs)) < 0 or max(max(us), max(vs)) >= n)
        or any(map(int.__eq__, us, vs))
        or len(set(zip(us, vs))) != m
    ):
        return None
    graph = DirectedGraph._from_checked(*_sorted_adjacency(n, zip(us, vs)))
    return ParsedInstance(graph=graph, params=params)


def _parse_lines(text: str) -> ParsedInstance:
    n = m = -1
    arcs: list[tuple[int, int]] = []
    seen_arcs: set[tuple[int, int]] = set()
    params: tuple[int, int, int] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if n != -1:
                raise ParseError(line_no, "header", "duplicate problem line")
            if len(fields) != 4 or fields[1] != "dakc":
                raise ParseError(line_no, "header", f"expected 'p dakc <n> <m>', got {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(line_no, "header", f"non-integer counts in {line!r}") from None
            if n < 0 or m < 0:
                raise ParseError(line_no, "header", "negative vertex or arc count")
        elif tag == "a":
            if n == -1:
                raise ParseError(line_no, "header", "arc line before problem line")
            if len(fields) != 3:
                raise ParseError(line_no, "token", f"expected 'a <u> <v>', got {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, "token", f"non-integer endpoint in {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, "vertex-range", f"vertex out of range 1..{n} in {line!r}")
            if u == v:
                raise ParseError(line_no, "self-loop", f"self-loop at vertex {u}")
            if (u, v) in seen_arcs:
                raise ParseError(line_no, "duplicate-arc", f"duplicate arc {u}->{v}")
            seen_arcs.add((u, v))
            arcs.append((u - 1, v - 1))
        elif tag == "q":
            if n == -1:
                raise ParseError(line_no, "header", "parameter line before problem line")
            if params is not None:
                raise ParseError(line_no, "params", "duplicate parameter line")
            if len(fields) != 4:
                raise ParseError(line_no, "params", f"expected 'q <b> <k> <p>', got {line!r}")
            try:
                params = (int(fields[1]), int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError(line_no, "params", f"non-integer parameter in {line!r}") from None
        else:
            raise ParseError(line_no, "token", f"unrecognized line tag {tag!r}")
    if n == -1:
        raise ParseError(0, "header", "missing problem line 'p dakc <n> <m>'")
    if len(arcs) != m:
        raise ParseError(0, "arc-count", f"problem line promises {m} arcs, found {len(arcs)}")
    # every arc line was checked above, so no check runs a second time
    graph = DirectedGraph._from_checked(*_sorted_adjacency(n, arcs))
    return ParsedInstance(graph=graph, params=params)


def parse_digraph(text: str) -> DirectedGraph:
    return parse_instance_text(text).graph


def serialize_instance(
    g: DirectedGraph, params: tuple[int, int, int] | None = None
) -> str:
    """Canonical instance text: header, sorted arc lines, optional `q` line."""
    lines = [f"p dakc {g.n} {g.arc_count()}"]
    lines.extend(f"a {u + 1} {v + 1}" for u, v in g.arcs())
    if params is not None:
        b, k, p = params
        lines.append(f"q {b} {k} {p}")
    return "\n".join(lines) + "\n"
