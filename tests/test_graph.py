import random
import sys
from collections import Counter
from itertools import chain

import pytest

from dakc import (
    DirectedGraph,
    ParseError,
    SetCoverInstance,
    gen_from_setcover,
    graph,
    induced_subgraph,
    parse_instance_text,
    reach,
    serialize_instance,
    strongly_connected_components,
    to_bidirected,
    vertices_of,
    vset,
    weakly_connected_components,
)
from dakc.graph import lift_mask
from dakc.solver_degree import _without_arcs
from helpers import adjacency_reference, flipped, random_digraph, vertices_of_reference


def test_parse_path():
    g = parse_instance_text("p dakc 3 2\na 1 2\na 2 3\n").graph
    assert g.n == 3
    assert list(g.arcs()) == [(0, 1), (1, 2)]


def test_parse_comments_and_q_line():
    parsed = parse_instance_text("c hello\np dakc 2 1\na 1 2\nq 1 1 2\n")
    assert parsed.graph.n == 2
    assert parsed.params == (1, 1, 2)


@pytest.mark.parametrize(
    "text,kind",
    [
        ("p dakc 2 1\na 1 1\n", "self-loop"),
        ("p dakc 2 2\na 1 2\na 1 2\n", "duplicate-arc"),
        ("p dakc 2 1\na 1 3\n", "vertex-range"),
        ("p dakc 2 1\na 1\n", "token"),
        ("p wrong 2 1\na 1 2\n", "header"),
        ("p dakc 2 2\na 1 2\n", "arc-count"),
        ("a 1 2\n", "header"),
        ("p dakc 2 1\na 1 2\nq 1 1\n", "params"),
    ],
)
def test_parse_errors(text, kind):
    with pytest.raises(ParseError) as exc:
        parse_instance_text(text)
    assert exc.value.kind == kind


@pytest.mark.parametrize("n", [sys.maxsize - 1, sys.maxsize])
def test_parse_vertex_count_past_memory_raises_memory_error(n):
    # no list of n entries fits, and asking for one fails before anything is
    # allocated; the CLI turns the MemoryError into exit 4, where an
    # OverflowError from a list of n + 1 entries would crash with exit 1
    with pytest.raises(MemoryError):
        parse_instance_text(f"p dakc {n} 0\n")


def _canonical_texts(rng, count):
    for _ in range(count):
        n = rng.randint(0, 40)
        g = random_digraph(rng, n, rng.uniform(0, 0.2))
        params = (rng.randint(0, 5), rng.randint(0, 3), rng.randint(1, 50)) if rng.random() < 0.5 else None
        text = serialize_instance(g, params)
        yield text if rng.random() < 0.5 else text[:-1]


def _setcover_texts(rng, count):
    # serialized set-cover gadgets of about 0.85k and 3.3k vertices, as the
    # k1-setcover benchmark's smallest and largest schedule entries build
    for i in range(count):
        universe, size = ((6, 10), (10, 15))[i % 2]
        sets = tuple(rng.getrandbits(universe) | 1 << rng.randrange(universe) for _ in range(size))
        inst = gen_from_setcover(SetCoverInstance(universe, sets, 3)).instance
        yield serialize_instance(inst.graph, (inst.b, inst.k, inst.p))


def test_parse_fast_path_matches_line_reader():
    rng = random.Random(83)
    texts = list(_canonical_texts(rng, 500))
    assert any(not t.endswith("\n") for t in texts) and any("\nq " in t for t in texts)
    for text in texts:
        parsed = parse_instance_text(text)
        assert parsed == graph._parse_lines(text)
        # the reader hands over the in-degrees, so they are not rebuilt
        g = parsed.graph
        tally = Counter(chain.from_iterable(g.out_adj))
        assert g.__dict__["in_degrees"] == tuple(tally[v] for v in range(g.n))


def test_parse_fast_path_serves_canonical_text(monkeypatch):
    rng = random.Random(89)
    # a leading zero in a count is read by int, which the fast path still uses
    texts = [*_canonical_texts(rng, 200), *_setcover_texts(rng, 4), CANONICAL.replace("p dakc 4 3", "p dakc 04 3")]
    expected = [(t, graph._parse_lines(t)) for t in texts]
    assert max(parsed.graph.n for _, parsed in expected) > 2000

    def refuse(text):
        raise AssertionError("canonical text reached the line reader")

    monkeypatch.setattr(graph, "_parse_lines", refuse)
    for text, parsed in expected:
        assert parse_instance_text(text) == parsed


CANONICAL = "p dakc 4 3\na 1 2\na 2 3\na 3 4\nq 1 1 3\n"


@pytest.mark.parametrize(
    "text,expect",
    [
        ("c note\n" + CANONICAL, None),
        (CANONICAL.replace("a 2 3\n", "a 2 3\n\n"), None),
        (CANONICAL.replace("\n", "\r\n"), None),
        (CANONICAL.replace("a 1 2", "a\t1\t2"), None),
        (CANONICAL.replace("a 1 2", "  a 1 2"), None),
        (CANONICAL.replace("a 2 3", "a 2 +3"), None),
        (CANONICAL.replace("q 1 1 3", "q -1 1 3"), (5, "params")),
        (CANONICAL.replace("a 1 2", "a 0 2"), (2, "vertex-range")),
        (CANONICAL.replace("a 3 4", "a 3 5"), (4, "vertex-range")),
        (CANONICAL.replace("a 2 3", "a 2 2"), (3, "self-loop")),
        (CANONICAL.replace("a 2 3", "a 1 2"), (3, "duplicate-arc")),
        (CANONICAL.replace("p dakc 4 3", "p dakc 4 4"), (0, "arc-count")),
        (CANONICAL.replace("p dakc 4 3", "p dakc 4 2"), (0, "arc-count")),
        (CANONICAL.replace("q 1 1 3", "a 1 2\nq 1 1 3"), (5, "duplicate-arc")),
        (CANONICAL.replace("a 1 2\na 2 3", "a 2 3\na 1 2"), None),
        ("p dakc 3 3\na 1 3\na 1 2\na 3 2\n", None),
        (CANONICAL.replace("p dakc 4 3\na 1 2", "p dakc 4 4\na 1 2\na 1 2"), (3, "duplicate-arc")),
        (CANONICAL.replace("p dakc 4 3\na 1 2\na 2 3", "p dakc 4 4\na 2 3\na 1 2\na 2 3"), (4, "duplicate-arc")),
        (CANONICAL.replace("a 1 2\n", "a 1 2\np dakc 4 3\n"), (3, "header")),
        (CANONICAL + "q 1 1 3\n", (6, "params")),
        ("q 1 1 3\n" + CANONICAL[:-8], (1, "header")),
        (CANONICAL.replace("a 3 4", "x 3 4"), (4, "token")),
        (CANONICAL.replace("q 1 1 3", "q 1 1 0"), (5, "params")),
        # JSON refuses leading zeros, so such ids take the line reader
        (CANONICAL.replace("a 2 3", "a 02 3"), None),
        (CANONICAL.replace("a 2 3", "a 2 03"), None),
        (CANONICAL.replace("p dakc 4 3", "p dakc 04 3"), None),
        # past int's digit limit, which JSON keeps too
        (CANONICAL.replace("a 2 3", "a 2 " + "3" * 5000), (3, "token")),
        ("p dakc 4 0\nq 1 1 3\n", None),
        ("p dakc 4 0\n", None),
        # a head of 0 and a tail past n
        (CANONICAL.replace("a 3 4", "a 3 0"), (4, "vertex-range")),
        (CANONICAL.replace("a 3 4", "a 5 4"), (4, "vertex-range")),
    ],
)
def test_parse_off_canonical_text_matches_line_reader(text, expect):
    def outcome(parse):
        try:
            return parse(text)
        except ParseError as exc:
            return (exc.line_no, exc.kind, str(exc))

    got = outcome(parse_instance_text)
    assert got == outcome(graph._parse_lines)
    if expect is None:
        assert not isinstance(got, tuple)
    else:
        assert got[:2] == expect


def test_lazy_tables_match_arc_list_reference():
    # every way to build a graph yields the arc arrays, adjacency and degrees
    # of its arc list, and the adjacency lists are built on first use only
    rng = random.Random(131)
    for _ in range(150):
        n = rng.randint(0, 14)
        arcs = list(random_digraph(rng, n, rng.uniform(0.0, 0.5)).arcs())
        rng.shuffle(arcs)
        lines = "".join(f"a {u + 1} {v + 1}\n" for u, v in arcs)
        text = f"p dakc {n} {len(arcs)}\n{lines}"
        g = DirectedGraph.from_arcs(n, arcs)
        deleted = frozenset(a for a in arcs if rng.random() < 0.3)
        built = [
            (g, arcs),
            (parse_instance_text(serialize_instance(g)).graph, arcs),
            (parse_instance_text(text).graph, arcs),
            (graph._parse_lines("c line reader\n" + text).graph, arcs),
            (_without_arcs(g, deleted), [a for a in arcs if a not in deleted]),
        ]
        for h, h_arcs in built:
            ordered = sorted(h_arcs)
            assert h.tails == tuple(u for u, _ in ordered) and h.heads == tuple(v for _, v in ordered)
            assert type(h.tails) is tuple and type(h.heads) is tuple
            assert list(h.arcs()) == ordered and h.arc_count() == len(ordered)
            out_adj, in_adj = adjacency_reference(n, h_arcs)
            assert h.n == n and h.out_adj == out_adj and h.in_adj == in_adj
            assert h.out_mask == tuple(map(vset, out_adj)) and h.in_mask == tuple(map(vset, in_adj))
            assert h.in_degrees == tuple(map(len, in_adj))
            assert h.out_degrees == tuple(map(len, out_adj))
            assert h.max_degree() == max(map(len, map(tuple.__add__, in_adj, out_adj)), default=0)
            same = DirectedGraph.from_arcs(n, h_arcs)
            assert h == same and hash(h) == hash(same)
        fresh = (
            DirectedGraph.from_arcs(n, arcs),
            parse_instance_text(text).graph,
            parse_instance_text(serialize_instance(g)).graph,
            _without_arcs(DirectedGraph.from_arcs(n, arcs), deleted),
        )
        assert all("in_adj" not in h.__dict__ and "out_adj" not in h.__dict__ for h in fresh)


def test_from_arcs_names_the_first_bad_arc():
    def old_message(n, arcs):
        seen = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                return f"arc ({u},{v}) out of range for n={n}"
            if u == v:
                return f"self-loop at vertex {u}"
            if (u, v) in seen:
                return f"duplicate arc ({u},{v})"
            seen.add((u, v))
        return None

    rng = random.Random(137)
    bad = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        arcs = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 8))]
        expect = old_message(n, arcs)
        if expect is None:
            assert DirectedGraph.from_arcs(n, arcs).out_adj == adjacency_reference(n, arcs)[0]
        else:
            bad += 1
            with pytest.raises(ValueError) as exc:
                DirectedGraph.from_arcs(n, arcs)
            assert str(exc.value) == expect
    assert bad >= 200


def test_vertices_of_matches_bit_loop():
    rng = random.Random(139)
    # one full word takes the loop, one bit more the linear pass
    masks = [0, 1, 1 << 4999, (1 << 64) - 1, (1 << 65) - 1]
    for count in (1, 15, 16, 17, 63, 64, 65, 66):
        masks.append(vset(rng.sample(range(count + 5), count)))
        masks.append(vset(rng.sample(range(5000), count)))
    for density in (0.5, 0.9, 1.0):
        masks.append(vset(v for v in range(5000) if rng.random() < density))
    for count in (30, 65, 200, 2000):
        # the top bit far above the rest
        masks.append(vset(rng.sample(range(3000), count)) | 1 << rng.randint(10_000, 20_000))
    for mask in masks:
        assert vertices_of(mask) == vertices_of_reference(mask)


def test_parse_error_names_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_instance_text("p dakc 3 2\na 1 2\na 2 2\n")


def test_reach_examples():
    g = parse_instance_text("p dakc 3 2\na 1 2\na 2 3\n").graph
    assert reach(g, vset([0]), "forward") == vset([0, 1, 2])
    assert reach(g, vset([2]), "forward") == vset([2])
    assert reach(g, vset([2]), "backward") == vset([0, 1, 2])


def test_scc_examples():
    cycle = DirectedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert strongly_connected_components(cycle) == [(vset([0, 1, 2]), True)]
    path = DirectedGraph.from_arcs(3, [(0, 1), (1, 2)])
    comps = strongly_connected_components(path)
    assert [c for c, _ in comps] == [1, 2, 4]
    assert not any(flag for _, flag in comps)
    mixed = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert strongly_connected_components(mixed) == [
        (vset([0, 1, 2]), True),
        (vset([3]), False),
    ]


def test_scc_matches_mutual_reachability():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.5))
        comps = strongly_connected_components(g)
        assert sum(c.bit_count() for c, _ in comps) == n
        same = {}
        for idx, (comp, _) in enumerate(comps):
            for v in vertices_of(comp):
                same[v] = idx
        for u in range(n):
            for v in range(n):
                mutual = bool(
                    (reach(g, 1 << u, "forward") >> v) & 1
                    and (reach(g, 1 << v, "forward") >> u) & 1
                )
                assert (same[u] == same[v]) == mutual


def test_wcc_examples():
    g = DirectedGraph.from_arcs(4, [(0, 1), (2, 3)])
    assert weakly_connected_components(g) == [vset([0, 1]), vset([2, 3])]
    empty = DirectedGraph.from_arcs(3, [])
    assert weakly_connected_components(empty) == [1, 2, 4]
    diamond = DirectedGraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert weakly_connected_components(diamond) == [vset([0, 1, 2, 3])]


def test_wcc_within_matches_induced_subgraph():
    rng = random.Random(227)
    for _ in range(300):
        n = rng.randint(0, 12)
        g = random_digraph(rng, n, rng.uniform(0.0, 0.4))
        keep = rng.getrandbits(n) if n else 0
        sub = induced_subgraph(g, keep)
        comps = weakly_connected_components(sub.graph)
        lifted = sorted(lift_mask(c, sub.to_parent) for c in comps)
        got = weakly_connected_components(g, within=keep)
        assert sorted(got) == lifted
        assert got == sorted(got, key=lambda m: (m & -m).bit_length())
        # bits outside the graph are ignored
        assert weakly_connected_components(g, within=keep | (1 << n)) == got
    assert weakly_connected_components(g, within=g.full_mask) == weakly_connected_components(g)


def test_induced_subgraph():
    path = DirectedGraph.from_arcs(3, [(0, 1), (1, 2)])
    sub = induced_subgraph(path, vset([0, 2]))
    assert sub.graph.n == 2 and sub.graph.arc_count() == 0
    assert sub.to_parent == (0, 2)
    full = induced_subgraph(path, path.full_mask)
    assert full.graph == path
    cycle = DirectedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    two = induced_subgraph(cycle, vset([0, 1]))
    assert list(two.graph.arcs()) == [(0, 1)]
    assert lift_mask(vset([0, 1]), two.to_parent) == vset([0, 1])


def test_to_bidirected():
    tri = to_bidirected(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.arc_count() == 6
    single = to_bidirected(2, [(0, 1)])
    assert sorted(single.arcs()) == [(0, 1), (1, 0)]
    empty = to_bidirected(4, [])
    assert empty.arc_count() == 0
    with pytest.raises(ValueError, match="duplicate edge"):
        to_bidirected(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="self-loop"):
        to_bidirected(3, [(1, 1)])
    # range comes first, per edge in order, as in gen_from_clique
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        to_bidirected(3, [(0, 3), (1, 1)])


def test_reach_self_membership_and_reverse_relation():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.4))
        rev = flipped(g)
        for v in range(n):
            assert (reach(g, 1 << v, "forward") >> v) & 1
            assert (reach(g, 1 << v, "backward") >> v) & 1
        seeds = vset(v for v in range(n) if rng.random() < 0.3)
        assert reach(g, seeds, "backward") == reach(rev, seeds, "forward")


def test_degree_sums_match_arc_count():
    rng = random.Random(13)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(0, 9), 0.3)
        assert sum(g.in_degrees) == sum(g.out_degrees) == g.arc_count()


def test_parse_serialize_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(1, 9), 0.3)
        params = (rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 9))
        text = serialize_instance(g, params)
        parsed = parse_instance_text(text)
        assert parsed.graph == g
        assert parsed.params == params
        assert serialize_instance(parsed.graph, parsed.params) == text


def test_graph_constructor_rejects():
    with pytest.raises(ValueError, match="self-loop"):
        DirectedGraph.from_arcs(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate arc"):
        DirectedGraph.from_arcs(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        DirectedGraph.from_arcs(2, [(0, 2)])
