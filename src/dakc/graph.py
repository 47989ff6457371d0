"""Directed-graph representation, instance-file parsing, and reachability primitives.

Vertices are contiguous integers ``0..n-1`` internally; the text formats are
1-based.  Vertex sets travel as plain int bitmasks (bit ``v`` set means vertex
``v`` is a member), which gives O(1) membership and word-parallel unions.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, eq, lt, mul, sub
from typing import Iterable, Iterator, Sequence


Mask = int


def vset(vertices: Iterable[int]) -> Mask:
    """Build a vertex-set mask from an iterable of vertex ids."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


# bytes.translate table taking the digits "0" and "1" to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# the largest mask of one 64-bit word
_WORD = (1 << 64) - 1


def _member_bytes(mask: Mask, width: int = 0) -> bytes:
    """Byte ``v`` is 1 if ``v`` is a member of ``mask`` and 0 if not, read
    off the mask's binary digits, lowest bit first, in one linear pass; at
    least ``width`` bytes."""
    return format(mask, f"0{width}b")[::-1].encode().translate(_BIT_BYTES)


def vertices_of(mask: Mask) -> list[int]:
    """List the members of a vertex-set mask in increasing order.

    Each step of the bit loop costs time in the length of the mask, so a
    mask longer than one word with at least one member per 16 bits is read
    in one linear pass over its binary digits instead, lowest bit first.  On
    a 3,000-bit mask that pass measured faster than the loop from about 200
    members on.  A one-word mask takes the loop without counting its
    members, since there the loop's steps are cheap whatever the count.
    """
    if mask > _WORD and mask.bit_count() * 16 > mask.bit_length():
        bits = _member_bytes(mask)
        return list(compress(range(len(bits)), bits))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ParseError(ValueError):
    """Raised for malformed instance text; carries the offending line number.

    ``kind`` distinguishes the failure classes: ``header``, ``token``,
    ``self-loop``, ``duplicate-arc``, ``duplicate-edge``, ``vertex-range``,
    ``arc-count``, ``params``, ``encoding``.
    """

    def __init__(self, line_no: int, kind: str, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.kind = kind


@dataclass(frozen=True)
class DirectedGraph:
    """A simple loop-free digraph held as its arcs, ascending by (tail, head).

    Arc ``i`` runs from ``tails[i]`` to ``heads[i]``.  Immutable after
    construction; instances are safe to share between concurrent workers.
    Use :meth:`from_arcs` rather than the raw constructor so the invariants
    (ids in range, no loops, no duplicate arcs, ascending order) are
    enforced.  The arcs fix the graph, so equality and hashing cover ``(n,
    tails, heads)``; the adjacency lists and every other table are built
    from them on first use.
    """

    n: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "DirectedGraph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arcs = list(arcs)
        ordered = sorted(arcs)
        tails, heads = zip(*ordered) if ordered else ((), ())
        # sorted, the tails run from least to greatest and duplicates are neighbours
        if ordered and (
            tails[0] < 0
            or tails[-1] >= n
            or min(heads) < 0
            or max(heads) >= n
            or any(map(eq, tails, heads))
            or any(map(eq, ordered, islice(ordered, 1, None)))
        ):
            raise ValueError(_first_bad_arc(n, arcs))
        return cls._from_checked(n, tails, heads, in_degrees=tuple(_tally(n, heads)))

    @classmethod
    def _from_checked(
        cls, n: int, tails: tuple[int, ...], heads: tuple[int, ...], **tables
    ) -> "DirectedGraph":
        """Wrap arc arrays that already hold every invariant (in range, no
        loops, no duplicates, ascending by (tail, head)), checking nothing
        again.  For callers that validated the arcs themselves.

        ``tables`` presets cached tables (``in_degrees``, ``out_mask``, ...)
        that the caller already holds for this graph, so they are not
        rebuilt.  A cached property keeps its value in the instance dict,
        which a frozen dataclass leaves writable.
        """
        g = cls(n=n, tails=tails, heads=heads)
        g.__dict__.update(tables)
        return g

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted out-adjacency lists: slices of ``heads``, cut at the
        running sums of the out-degrees, so no list is made per vertex."""
        ends = list(accumulate(self.out_degrees, initial=0))
        return tuple(map(self.heads.__getitem__, map(slice, ends, islice(ends, 1, None))))

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted in-adjacency lists.  The arcs are read by ascending tail, so
        each head's tails arrive in ascending order.  One list per head,
        filled by appends, measured three times as fast as a stable sort of
        the arcs by head cut into slices."""
        into: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in zip(self.tails, self.heads):
            into[v].append(u)
        return tuple(map(tuple, into))

    @cached_property
    def out_mask(self) -> tuple[Mask, ...]:
        return _rows(self.n, self.tails, self.heads)

    @cached_property
    def in_mask(self) -> tuple[Mask, ...]:
        return _rows(self.n, self.heads, self.tails)

    @cached_property
    def und_mask(self) -> tuple[Mask, ...]:
        """Per-vertex neighbourhood in the underlying undirected graph."""
        return tuple(i | o for i, o in zip(self.in_mask, self.out_mask))

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        return tuple(_tally(self.n, self.heads))

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(_tally(self.n, self.tails))

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
        return len(self.tails)

    def arcs(self) -> Iterator[tuple[int, int]]:
        return zip(self.tails, self.heads)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.out_mask[u] >> v) & 1)

    def max_degree(self) -> int:
        return self._max_degree

    @cached_property
    def _max_degree(self) -> int:
        return max(map(add, self.in_degrees, self.out_degrees), default=0)


def _rows(n: int, keys: Iterable[int], members: Iterable[int]) -> tuple[Mask, ...]:
    """Per id ``0..n-1``, the mask of the ``members`` paired with it in
    ``keys``."""
    rows = [0] * n
    for key, member in zip(keys, members):
        rows[key] |= 1 << member
    return tuple(rows)


def _tally(n: int, keys: Iterable[int]) -> list[int]:
    """How often each id ``0..n-1`` occurs among ``keys``.  A plain loop:
    ``Counter`` plus a lookup per id measured twice as slow."""
    counts = [0] * n
    for key in keys:
        counts[key] += 1
    return counts


def _first_bad_arc(n: int, arcs: Iterable[tuple[int, int]]) -> str:
    """What is wrong with the first arc, in the given order, that is out of
    range, a loop, or a repeat."""
    seen: set[tuple[int, int]] = set()
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            return f"arc ({u},{v}) out of range for n={n}"
        if u == v:
            return f"self-loop at vertex {u}"
        if (u, v) in seen:
            return f"duplicate arc ({u},{v})"
        seen.add((u, v))
    raise AssertionError("every arc is valid")


def to_bidirected(n: int, edges: Iterable[tuple[int, int]]) -> DirectedGraph:
    """Model an undirected graph as a digraph: each edge becomes both arcs."""
    keys = _edge_keys(n, edges)
    return DirectedGraph.from_arcs(n, chain(keys, ((v, u) for u, v in keys)))


def _edge_keys(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The undirected edges as sorted ``(low, high)`` pairs.  Each edge, in
    the given order, is checked for range, then loop, then repeat."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {{{u},{v}}}")
        seen.add(key)
    return sorted(seen)


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
    return _closure(step, seeds, g.full_mask if within is None else within)


def _closure(step: Sequence[Mask], seeds: Mask, alive: Mask) -> Mask:
    """The members of ``alive`` that ``seeds`` reach by ``step`` rows through
    ``alive`` alone, the seeds in ``alive`` included."""
    seen = frontier = seeds & alive
    while frontier:
        nxt = 0
        for v in vertices_of(frontier):
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
    out_adj = g.out_adj
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
            if ci < len(out_adj[v]):
                work[-1] = (v, ci + 1)
                w = out_adj[v][ci]
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
    remaining = g.full_mask if within is None else within & g.full_mask
    comps = []
    while remaining:
        comp = _closure(g.und_mask, remaining & -remaining, remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph together with its map to parent-graph ids."""

    graph: DirectedGraph
    to_parent: tuple[int, ...]


def lift_mask(mask: Mask, to_parent: tuple[int, ...]) -> Mask:
    """Translate a vertex set through an index map: vertex ``v`` becomes
    ``to_parent[v]``."""
    out = 0
    for v in vertices_of(mask):
        out |= 1 << to_parent[v]
    return out


def induced_subgraph(g: DirectedGraph, keep: Mask) -> InducedSubgraph:
    """The subgraph induced by ``keep``, with its map to parent-graph ids."""
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
# Text readers.  Every format dakc reads is line based: blank lines and `c`
# comment lines are skipped, and a count is a non-negative integer no larger
# than sys.maxsize.  The instance format:
#   c <comment>            (optional, anywhere)
#   p dakc <n> <m>
#   a <u> <v>              (m arc lines, 1-based)
#   q <b> <k> <p>          (optional default parameters)
# ---------------------------------------------------------------------------


def _lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line_no, line, fields)`` for each line of ``text`` that is neither
    blank nor a `c` comment, with ``line`` stripped and 1-based numbers."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield line_no, line, line.split()


def _int(token: str, line_no: int, kind: str, message: str, line: str = "") -> int:
    """``token`` as an int.  Any other token raises a ParseError of ``kind``
    at ``line_no``, whose message is ``message`` formatted with ``line`` and
    ``token``."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, kind, message.format(line=line, token=token)) from None


def _counts(tokens: Sequence[str], line_no: int, line: str, what: str, message: str) -> list[int]:
    """The header counts ``tokens``, read by :func:`_int` with ``message``.
    Each must be non-negative and fit a list length; ``what`` names them."""
    counts = [_int(token, line_no, "header", message, line) for token in tokens]
    if min(counts) < 0:
        raise ParseError(line_no, "header", f"negative {what}")
    if max(counts) > sys.maxsize:
        raise ParseError(line_no, "header", f"{what} above {sys.maxsize}")
    return counts


def _problem_line(seen: int | None, line_no: int, line: str, fields: list[str], fmt: str, what: str) -> list[int]:
    """The two counts of a `p <fmt> <n> <m>` line.  ``seen`` is the first
    count of an earlier problem line, or None if there was none."""
    if seen is not None:
        raise ParseError(line_no, "header", "duplicate problem line")
    if len(fields) != 4 or fields[1] != fmt:
        raise ParseError(line_no, "header", f"expected 'p {fmt} <n> <m>', got {line!r}")
    return _counts(fields[2:], line_no, line, what, "non-integer counts in {line!r}")


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


def parse_instance_text(text: str) -> ParsedInstance:
    """Parse instance text, checking every line.

    Canonical text is read by one regex match, one JSON decode of the arc
    block's ids and whole-list checks.  Any other text, and any canonical
    text that fails a check, goes through the line-by-line reader, which
    alone raises, so each error names its line.  JSON refuses ids with
    leading zeros, so arc lines with such ids take the line reader too.
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
        # the block is "\na u v" per arc, so with commas for its separators
        # it is one JSON array of the 1-based ids, decoded in one call
        ids = json.loads("[" + arc_block.replace("\na ", ",").replace(" ", ",")[1:] + "]")
        params = None if q_text[0] is None else tuple(map(int, q_text))
    except ValueError:  # an id JSON refuses, or a digit string beyond int's limit
        return None
    tails, heads = ids[0::2], ids[1::2]
    # serialize_instance writes the arcs in strictly ascending order, which
    # also rules out repeats.  Other orders, a vertex count too large for a
    # list of n entries and failed checks are left to the line reader,
    # which sorts the arcs and names the line of an error.  The q line's
    # fields are digit strings, so only its p can be out of range.
    if n > sys.maxsize or len(tails) != m or params and params[2] < 1 or tails and (
        min(heads) < 1 or max(heads) > n or any(map(eq, tails, heads))
    ):
        return None
    # with every head in 1..n, u * n + v orders the arcs as (u, v) does, so
    # ascending keys also put the least and greatest tail first and last
    keys = list(map(add, map(mul, tails, repeat(n)), heads))
    if not all(map(lt, keys, islice(keys, 1, None))) or tails and (tails[0] < 1 or tails[-1] > n):
        return None
    # the 1-based ids less one each: sub over a repeat measured about 40%
    # quicker per id than a bound int.__add__ of -1
    heads = tuple(map(sub, heads, repeat(1)))
    graph = DirectedGraph._from_checked(
        n, tuple(map(sub, tails, repeat(1))), heads, in_degrees=tuple(_tally(n, heads))
    )
    return ParsedInstance(graph=graph, params=params)


def _parse_lines(text: str) -> ParsedInstance:
    n = m = None
    arcs: list[tuple[int, int]] = []
    seen_arcs: set[tuple[int, int]] = set()
    params: tuple[int, int, int] | None = None
    for line_no, line, fields in _lines(text):
        tag = fields[0]
        if tag == "p":
            n, m = _problem_line(n, line_no, line, fields, "dakc", "vertex or arc count")
        elif tag == "a":
            if n is None:
                raise ParseError(line_no, "header", "arc line before problem line")
            if len(fields) != 3:
                raise ParseError(line_no, "token", f"expected 'a <u> <v>', got {line!r}")
            # two calls, not a generator over the fields: measured twice as fast
            u = _int(fields[1], line_no, "token", "non-integer endpoint in {line!r}", line)
            v = _int(fields[2], line_no, "token", "non-integer endpoint in {line!r}", line)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, "vertex-range", f"vertex out of range 1..{n} in {line!r}")
            if u == v:
                raise ParseError(line_no, "self-loop", f"self-loop at vertex {u}")
            if (u, v) in seen_arcs:
                raise ParseError(line_no, "duplicate-arc", f"duplicate arc {u}->{v}")
            seen_arcs.add((u, v))
            arcs.append((u - 1, v - 1))
        elif tag == "q":
            if n is None:
                raise ParseError(line_no, "header", "parameter line before problem line")
            if params is not None:
                raise ParseError(line_no, "params", "duplicate parameter line")
            if len(fields) != 4:
                raise ParseError(line_no, "params", f"expected 'q <b> <k> <p>', got {line!r}")
            params = tuple(_int(f, line_no, "params", "non-integer parameter in {line!r}", line) for f in fields[1:])
            if min(params[:2]) < 0 or params[2] < 1:
                raise ParseError(line_no, "params", f"expected b >= 0, k >= 0 and p >= 1, got {line!r}")
        else:
            raise ParseError(line_no, "token", f"unrecognized line tag {tag!r}")
    if n is None:
        raise ParseError(0, "header", "missing problem line 'p dakc <n> <m>'")
    if len(arcs) != m:
        raise ParseError(0, "arc-count", f"problem line promises {m} arcs, found {len(arcs)}")
    return ParsedInstance(graph=DirectedGraph.from_arcs(n, arcs), params=params)


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
