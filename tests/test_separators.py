import random
from itertools import combinations

import pytest

from dakc import (
    DirectedGraph,
    enumerate_important_separators,
    is_important,
    is_separator,
    vertices_of,
    vset,
)
from dakc.separators import _is_important_std, _max_flow, _min_vertex_cut, disjoint_paths
from helpers import (
    disjoint_paths_reference,
    flipped,
    min_vertex_cut_reference,
    random_digraph,
    random_digraph_degree_capped,
)


def _enumerate_by_definition(g, s, t, h):
    """Exhaustive filter over all subsets: the definitional ground truth."""
    others = [v for v in range(g.n) if v != s and v != t]
    out = set()
    for r in range(min(h, len(others)) + 1):
        for combo in combinations(others, r):
            cand = vset(combo)
            if is_important(g, s, t, cand, h):
                out.add(cand)
    return out


def test_is_separator_examples():
    chain = DirectedGraph.from_arcs(3, [(0, 1), (1, 2)])
    assert is_separator(chain, 0, 2, vset([1]))
    assert not is_separator(chain, 0, 2, 0)
    diamond = DirectedGraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert not is_separator(diamond, 0, 3, vset([1]))


def test_is_separator_contract_errors():
    chain = DirectedGraph.from_arcs(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="adjacent"):
        is_separator(chain, 0, 1, 0)
    with pytest.raises(ValueError, match="distinct"):
        is_separator(chain, 0, 0, 0)
    with pytest.raises(ValueError, match="may not contain"):
        is_separator(chain, 0, 2, vset([0]))


@pytest.mark.parametrize("s, t", [(3, 0), (0, 3)])
def test_endpoints_equal_to_n_are_out_of_range(s, t):
    # the id n names no vertex; each entry point refuses it before reading
    # any adjacency row
    chain = DirectedGraph.from_arcs(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        is_separator(chain, s, t, 0)
    with pytest.raises(ValueError, match="out of range"):
        disjoint_paths(chain, s, t, 1)
    with pytest.raises(ValueError, match="out of range"):
        enumerate_important_separators(chain, s, t, 1)


def test_is_important_examples():
    four_chain = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    assert is_important(four_chain, 0, 3, vset([1]), 2)
    assert not is_important(four_chain, 0, 3, vset([2]), 2)
    two_paths = DirectedGraph.from_arcs(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert is_important(two_paths, 0, 3, vset([1, 2]), 2)
    funnel = DirectedGraph.from_arcs(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert not is_important(funnel, 0, 4, vset([2, 3]), 2)


def test_is_important_size_cap():
    g = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="cap"):
        is_important(g, 0, 3, vset([1, 2]), 1)


def test_enumerate_examples():
    four_chain = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    seps = enumerate_important_separators(four_chain, 0, 3, 2)
    assert seps == [vset([1])]
    two_paths = DirectedGraph.from_arcs(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert enumerate_important_separators(two_paths, 0, 3, 1) == []
    seps = enumerate_important_separators(two_paths, 0, 3, 2)
    assert seps == [vset([1, 2])]


def test_enumerate_rejects_adjacent_endpoints():
    g = DirectedGraph.from_arcs(2, [(0, 1)])
    with pytest.raises(ValueError, match="adjacent"):
        enumerate_important_separators(g, 0, 1, 3)


def test_enumerate_when_already_separated():
    g = DirectedGraph.from_arcs(3, [(1, 0), (1, 2)])  # t=2 unreachable from s=0
    seps = enumerate_important_separators(g, 0, 2, 2)
    assert seps == [0]
    assert is_important(g, 0, 2, 0, 2)


def _random_separable_pair(rng, g):
    # any s != t with no arc s -> t; an arc t -> s plays no part in
    # separating s from t, so pairs with one are drawn too
    pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t and not g.has_arc(s, t)]
    return rng.choice(pairs) if pairs else None


def test_enumeration_matches_definition_on_random_graphs():
    rng = random.Random(43)
    checked = back_arc = 0
    while checked < 120:
        n = rng.randint(3, 8)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.45))
        pair = _random_separable_pair(rng, g)
        if pair is None:
            continue
        s, t = pair
        h = rng.randint(0, 4)
        got = set(enumerate_important_separators(g, s, t, h))
        assert got == _enumerate_by_definition(g, s, t, h)
        assert len(got) <= 4 ** h
        for sep in got:
            assert is_separator(g, s, t, sep)
            for v in vertices_of(sep):
                assert not is_separator(g, s, t, sep & ~(1 << v))
        checked += 1
        back_arc += g.has_arc(t, s)
    assert back_arc >= 20


def test_one_cut_importance_check_matches_definition():
    # the enumerator's filter against the brute-force definition on every
    # set of at most 3 vertices, separators that are not minimal included:
    # a min cut equal to S already rules out a smaller separator inside S
    rng = random.Random(47)
    important = non_minimal = back_arc = 0
    for _ in range(300):
        n = rng.randint(4, 8)
        g = random_digraph(rng, n, rng.uniform(0.15, 0.5))
        pair = _random_separable_pair(rng, g)
        if pair is None:
            continue
        s, t = pair
        back_arc += g.has_arc(t, s)
        others = [v for v in range(n) if v != s and v != t]
        for r in range(min(3, len(others)) + 1):
            for combo in combinations(others, r):
                sep = vset(combo)
                got = _is_important_std(g, s, t, sep)
                assert got == is_important(g, s, t, sep, 3)
                important += got
                non_minimal += is_separator(g, s, t, sep) and any(
                    is_separator(g, s, t, sep & ~(1 << v)) for v in combo
                )
    assert important >= 250
    assert non_minimal >= 2500
    assert back_arc >= 60


def test_min_vertex_cut_walks_back_through_used_vertices():
    # the cut runs forward from its source, so each case is cut on the
    # flipped graph from the reference's sink to its sources.  Flipped, the
    # shortest path 5-4-3-2-1-0 takes the first unit; the second unit must
    # enter 2 from the chain 12-10 and undo the flow through 3, back to 4's
    # exit, which leaves over 9-6
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 8), (8, 9),
            (9, 4), (2, 10), (10, 11), (11, 12), (12, 5)]
    g = DirectedGraph.from_arcs(13, arcs)
    got = _min_vertex_cut(flipped(g), g.full_mask, 5, vset([0]), 3)
    assert got == min_vertex_cut_reference(g, g.full_mask, vset([0]), 5, 3)
    assert got[0] == 2
    # flipped, one unit along 4-3-2-1-0; the detour 7-6-5 reaches 1's
    # entry, and 3's exit only back through 2's used internal arc, so the
    # one cut vertex is 1, not {1, 3}
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (7, 4)]
    g = DirectedGraph.from_arcs(8, arcs)
    expect = (1, vset([1]))
    assert min_vertex_cut_reference(g, g.full_mask, vset([0]), 4, 3) == expect
    assert _min_vertex_cut(flipped(g), g.full_mask, 4, vset([0]), 3) == expect


def test_min_vertex_cut_matches_split_graph_reference():
    # the adjacency-walking flow against max flow on an explicit split
    # graph, cut on the flipped graph from the reference's sink to its
    # sources, which are the cut's sinks.  Every draw meets the cut's
    # preconditions: its source is alive and not a sink, and every sink is
    # alive
    rng = random.Random(223)
    draws = 2000
    over_limit = adjacent = cuts = 0
    for _ in range(draws):
        n = rng.randint(2, 12)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        sink = rng.randrange(n)
        others = [v for v in range(n) if v != sink]
        sources = vset(rng.sample(others, rng.randint(1, min(3, n - 1))))
        alive = g.full_mask if rng.random() < 0.7 else rng.getrandbits(n) | sources | 1 << sink
        limit = rng.randint(0, 4)
        got = _min_vertex_cut(flipped(g), alive, sink, sources, limit)
        assert got == min_vertex_cut_reference(g, alive, sources, sink, limit)
        adjacent += bool(g.in_mask[sink] & sources)
        over_limit += bool(got is None and not g.in_mask[sink] & sources)
        cuts += got is not None and got[0] > 0
    assert min(over_limit, adjacent, cuts) >= draws // 20


def test_disjoint_paths_are_a_maximum_flow():
    # the paths read off the shared flow step: s-t paths of the graph,
    # internally vertex-disjoint, as many as the flow value of the split-graph
    # reference, or limit + 1 when the flow exceeds the limit
    rng = random.Random(227)
    draws = 2000
    done = several = 0
    while done < draws:
        n = rng.randint(3, 12)
        g = random_digraph_degree_capped(rng, n, rng.randint(3, 6), rng.uniform(0.3, 0.9))
        s, t = rng.sample(range(n), 2)
        if g.has_arc(s, t):
            with pytest.raises(ValueError, match="adjacent"):
                disjoint_paths(g, s, t, 3)
            continue
        done += 1
        limit = rng.randint(0, 4)
        paths = disjoint_paths(g, s, t, limit)
        inner = [v for path in paths for v in path[1:-1]]
        assert len(inner) == len(set(inner)) and s not in inner and t not in inner
        for path in paths:
            assert path[0] == s and path[-1] == t
            assert all(g.has_arc(u, v) for u, v in zip(path, path[1:]))
        ref = min_vertex_cut_reference(g, g.full_mask, 1 << s, t, limit)
        assert len(paths) == (limit + 1 if ref is None else ref[0])
        several += len(paths) >= 2
    assert several >= draws // 10


def _check_flow_state(g, alive, sources, sinks, state):
    """The mask flow state is a feasible flow: each flow arc is an arc of
    the graph inside ``alive``, the per-vertex tail and head masks agree
    (so an arc carries at most one unit), an unprotected vertex has at most
    one unit in, as much out, and is in ``through`` exactly when it carries
    one, and the value leaves the sources and enters the sinks, and no flow
    enters a source or leaves a sink."""
    flow, through, out_flow, in_flow, _ = state
    protected = sources | sinks
    assert through & ~alive == 0 and through & protected == 0
    for v in range(g.n):
        assert out_flow[v] & ~(g.out_mask[v] & alive) == 0
        assert in_flow[v] & ~(g.in_mask[v] & alive) == 0
        assert in_flow[v] == vset(u for u in range(g.n) if (out_flow[u] >> v) & 1)
        if not (protected >> v) & 1:
            assert in_flow[v].bit_count() == out_flow[v].bit_count() == (through >> v) & 1
    assert flow == sum(out_flow[v].bit_count() for v in vertices_of(sources))
    assert flow == sum(in_flow[v].bit_count() for v in vertices_of(sinks))
    assert all(in_flow[v] == 0 for v in vertices_of(sources))
    assert all(out_flow[v] == 0 for v in vertices_of(sinks))


def test_max_flow_state_is_a_unit_flow_of_the_reference_value():
    # random alive sets, and either one to three sources and one sink or
    # one source and one to three sinks; the caller of the flow step keeps
    # the sources and the sinks alive and rules out an arc from a source
    # straight to a sink.  The reference takes one sink, so a sink set is
    # checked on the flipped graph, from the sinks to the source.  From one
    # source, the returned cut is the flipped reference's: the cut closest
    # to the reference's sink is the one closest to the source here
    rng = random.Random(229)
    draws = 2000
    done = several = stopped = sink_sets = cut = 0
    while done < draws:
        n = rng.randint(3, 12)
        g = random_digraph(rng, n, rng.uniform(0.2, 0.7))
        one = rng.randrange(n)
        many = vset(rng.sample([v for v in range(n) if v != one], min(n - 1, rng.randint(1, 3))))
        to_sinks = rng.random() < 0.5
        sources, sinks = (1 << one, many) if to_sinks else (many, 1 << one)
        if any(g.out_mask[v] & sinks for v in vertices_of(sources)):
            continue
        done += 1
        alive = rng.getrandbits(n) | sources | sinks if rng.random() < 0.7 else g.full_mask
        limit = rng.randint(0, 4)
        state = _max_flow(g.out_mask, g.in_mask, alive, sources, sinks, limit)
        _check_flow_state(g, alive, sources, sinks, state)
        if to_sinks:
            ref = min_vertex_cut_reference(flipped(g), alive, sinks, one, limit)
        else:
            ref = min_vertex_cut_reference(g, alive, sources, one, limit)
        assert state[0] == (limit + 1 if ref is None else ref[0])
        assert (state[4] is None) == (ref is None)
        if sources.bit_count() == 1:
            source = sources.bit_length() - 1
            back = min_vertex_cut_reference(flipped(g), alive, sinks, source, limit)
            assert state[4] == (None if back is None else back[1])
            cut += back is not None and back[0] > 0
        several += state[0] >= 2
        stopped += ref is None
        sink_sets += to_sinks and sinks.bit_count() >= 2
    assert several >= draws // 8 and stopped >= draws // 8
    assert sink_sets >= draws // 5 and cut >= draws // 8


def test_max_flow_from_disjoint_paths_reaches_the_reference_value():
    # started from any subset of the disjoint paths, with random arcs off
    # those paths taken out, the flow step repairs them into a unit flow of
    # the value the split-graph reference finds from scratch
    rng = random.Random(233)
    draws = 2000
    done = started = repaired = stopped = 0
    while done < draws:
        n = rng.randint(3, 12)
        g = random_digraph_degree_capped(rng, n, rng.randint(3, 6), rng.uniform(0.3, 0.9))
        s, t = rng.sample(range(n), 2)
        if g.has_arc(s, t):
            continue
        done += 1
        paths = disjoint_paths(g, s, t, rng.randint(0, 4))
        start = [path for path in paths if rng.random() < 0.6]
        on_paths = {arc for path in start for arc in zip(path, path[1:])}
        kept = [a for a in g.arcs() if a in on_paths or rng.random() < 0.8]
        h = DirectedGraph.from_arcs(n, kept)
        limit = rng.randint(len(start), 4)
        state = _max_flow(h.out_mask, h.in_mask, h.full_mask, 1 << s, 1 << t, limit, start)
        _check_flow_state(h, h.full_mask, 1 << s, 1 << t, state)
        ref = min_vertex_cut_reference(h, h.full_mask, 1 << s, t, limit)
        assert state[0] == (limit + 1 if ref is None else ref[0])
        started += len(start) >= 1
        repaired += len(start) >= 1 and state[0] > len(start)
        stopped += ref is None
    assert started >= draws // 8 and repaired >= draws // 16 and stopped >= draws // 20


def test_second_path_cancels_flow_on_an_arc_into_vertex_zero():
    # s = 1, t = 7.  The one shortest path 1-2-0-7 takes the first unit; the
    # second enters 0 over 1-3-6-0, goes back along the used arc 2 -> 0 to
    # 2's exit and leaves over 2-4-5-7.  The cancelled arc ends in vertex 0,
    # the id that an encoding of backward steps as ~v would confuse with a
    # -1 sentinel
    arcs = [(1, 2), (2, 0), (0, 7), (1, 3), (3, 6), (6, 0), (2, 4), (4, 5), (5, 7)]
    g = DirectedGraph.from_arcs(8, arcs)
    state = _max_flow(g.out_mask, g.in_mask, g.full_mask, 1 << 1, 1 << 7, 3)
    _check_flow_state(g, g.full_mask, 1 << 1, 1 << 7, state)
    flow, through, out_flow, in_flow, _ = state
    assert flow == 2 and through == vset([0, 2, 3, 4, 5, 6])
    assert out_flow[2] == vset([4]) and in_flow[0] == vset([6])
    assert disjoint_paths(g, 1, 7, 3) == [(1, 2, 4, 5, 7), (1, 3, 6, 0, 7)]
    assert disjoint_paths_reference(g, 1, 7, 3) == disjoint_paths(g, 1, 7, 3)
    assert _min_vertex_cut(flipped(g), g.full_mask, 7, 1 << 1, 3) == min_vertex_cut_reference(
        g, g.full_mask, 1 << 1, 7, 3
    )
