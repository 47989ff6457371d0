import random
from itertools import combinations

import pytest

from dakc import (
    Instance,
    SearchConfig,
    bounded_core_search,
    coloring_stream,
    knapsack_select,
    red_components,
    search_with_coloring,
    verify_solution,
    vset,
)
from helpers import (
    coloring_trial_reference,
    cycle_graph,
    path_graph,
    random_digraph_degree_capped,
    solution_exists_with_core_at_most,
)

EXH = SearchConfig(mode="exhaustive")


def test_bounded_search_examples():
    path = path_graph(3)
    v = bounded_core_search(Instance(graph=path, b=1, k=1, p=3), 3, EXH)
    assert v.is_yes
    assert v.solution.anchors == vset([0]) and v.solution.core == vset([0, 1, 2])

    v = bounded_core_search(Instance(graph=path, b=0, k=1, p=1), 3, EXH)
    assert v.kind == "no_up_to" and v.bound == 3

    v = bounded_core_search(Instance(graph=cycle_graph(3), b=0, k=1, p=3), 3, EXH)
    assert v.is_yes and v.solution.anchors == 0


def test_bounded_search_requires_q_at_least_p():
    with pytest.raises(ValueError, match="at least the target"):
        bounded_core_search(Instance(graph=path_graph(3), b=1, k=1, p=3), 2, EXH)


def test_exhaustive_mode_refuses_large_graphs():
    g = path_graph(6)
    cfg = SearchConfig(mode="exhaustive", exhaustive_limit=5)
    with pytest.raises(ValueError, match="refused"):
        bounded_core_search(Instance(graph=g, b=1, k=1, p=2), 6, cfg)


def test_knapsack_examples():
    assert knapsack_select([(1, 3), (2, 5), (1, 2)], 2, 5) == {1}
    assert knapsack_select([(1, 3)], 0, 1) is None
    assert knapsack_select([], 5, 0) == set()


def test_knapsack_matches_subset_search():
    rng = random.Random(61)
    for _ in range(150):
        r = rng.randint(0, 10)
        items = [(rng.randint(0, 3), rng.randint(0, 5)) for _ in range(r)]
        b = rng.randint(0, 5)
        p = rng.randint(0, 12)
        got = knapsack_select(items, b, p)
        feasible = any(
            sum(items[i][0] for i in combo) <= b
            and sum(items[i][1] for i in combo) >= p
            for size in range(r + 1)
            for combo in combinations(range(r), size)
        )
        if got is None:
            assert not feasible
        else:
            assert sum(items[i][0] for i in got) <= b
            assert sum(items[i][1] for i in got) >= p


def test_red_components_respect_coloring():
    g = path_graph(5)
    comps = red_components(g, vset([0, 1, 3]))
    assert sorted(comps) == sorted([vset([0, 1]), vset([3])])


def test_exhaustive_mode_is_exact_for_bounded_cores():
    rng = random.Random(67)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_digraph_degree_capped(rng, n, 4, rng.uniform(0.2, 0.7))
        b = rng.randint(0, 2)
        k = rng.randint(1, 2)
        p = rng.randint(1, n)
        q = rng.randint(p, n + 2)
        inst = Instance(graph=g, b=b, k=k, p=p)
        verdict = bounded_core_search(inst, q, EXH)
        exists_small = solution_exists_with_core_at_most(inst, q)
        if verdict.is_yes:
            assert verify_solution(inst, verdict.solution)
            # a YES may exceed q, but if a small core exists YES is mandatory
        else:
            assert verdict.kind == "no_up_to"
            assert not exists_small
        if exists_small:
            assert verdict.is_yes


def test_coloring_stream_is_reproducible_and_documented():
    a = coloring_stream(12345, 10)
    b = coloring_stream(12345, 10)
    first = [next(a) for _ in range(50)]
    assert first == [next(b) for _ in range(50)]
    assert all(0 <= m < 1 << 10 for m in first)
    # the documented splitmix64 scheme, replayed by hand for one draw
    state = (12345 + 0x9E3779B97F4A7C15) % (1 << 64)
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    z ^= z >> 31
    assert first[0] == z % (1 << 10)


def test_seeded_mode_soundness_and_trial_cap_note():
    path = path_graph(3)
    inst = Instance(graph=path, b=1, k=1, p=3)
    cfg = SearchConfig(mode="seeded", seed=7, failure_prob=0.5, trial_cap=10_000)
    v = bounded_core_search(inst, 3, cfg)
    assert v.is_yes and verify_solution(inst, v.solution)
    # a hopeless instance exhausts its trials and reports the cap when hit
    hopeless = Instance(graph=path, b=0, k=1, p=2)
    capped = SearchConfig(mode="seeded", seed=7, failure_prob=1e-9, trial_cap=20)
    v = bounded_core_search(hopeless, 2, capped)
    assert v.kind == "no_up_to" and v.trials == 20 and "cap" in v.note


def test_per_trial_never_emits_unverified_yes():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_digraph_degree_capped(rng, n, 4, 0.5)
        k = rng.randint(1, 3)
        b = rng.randint(0, 2)
        p = rng.randint(1, n)
        red = rng.getrandbits(n)
        sol = search_with_coloring(g, k, b, p, red)
        if sol is not None:
            assert verify_solution(Instance(graph=g, b=b, k=k, p=p), sol)


def test_search_with_coloring_matches_reference_trial():
    # the fused trial (red-count exit, two assembly bounds, deficiency taken
    # over the whole red set) against the plain summarize-then-knapsack trial
    rng = random.Random(211)
    draws = 5000
    hits = misses = 0
    for _ in range(draws):
        n = rng.randint(1, 14)
        g = random_digraph_degree_capped(rng, n, rng.randint(1, 5), rng.uniform(0.2, 0.9))
        k, b, p = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, n)
        red = rng.getrandbits(n + 1)  # half the draws set a bit past the graph
        got = search_with_coloring(g, k, b, p, red)
        assert got == coloring_trial_reference(g, k, b, p, red)
        hits += got is not None
        misses += got is None and (red & g.full_mask).bit_count() >= p
    assert hits >= draws // 20
    assert misses >= draws // 20  # misses that get past the red-count exit
