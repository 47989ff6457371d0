"""Important s-t separators: few enough to enumerate, strong enough to guide search.

A separator is important when it is minimal and no equal-or-smaller separator
leaves strictly more vertices able to reach t.  At most 4^h of them have size
at most h, and the enumeration below confirms the bound while the brute-force
definition check confirms each member.
"""

from dakc import DirectedGraph, enumerate_important_separators, is_important, vertices_of


def show(g, s, t, h):
    seps = enumerate_important_separators(g, s, t, h)
    print(f"  important separators (size <= {h}): ", [
        [v + 1 for v in vertices_of(sep)] for sep in seps
    ])
    print(f"  count {len(seps)} <= 4^{h} = {4 ** h}")
    for sep in seps:
        assert is_important(g, s, t, sep, h)
    print("  every member passes the brute-force definition check")


print("chain 1 -> 2 -> 3 -> 4, s = 1, t = 4:")
print("  both middle vertices separate, but only {2} is important:")
print("  cutting at 2 leaves {3} still able to reach t, cutting at 3 does not")
chain = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
show(chain, 0, 3, 2)

print("\ntwo disjoint routes 1 -> 2 -> 4 and 1 -> 3 -> 4:")
two = DirectedGraph.from_arcs(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
print("  nothing of size 1 separates;", end=" ")
print("the only important separator is the full cut")
show(two, 0, 3, 2)

print("\na funnel: 1 -> 2, then 2 -> 3 and 2 -> 4, both into 5:")
funnel = DirectedGraph.from_arcs(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
print("  {3,4} separates but {2} is smaller with a larger reach toward t")
show(funnel, 0, 4, 2)
