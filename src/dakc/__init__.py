"""dakc: exact solvers for the Directed Anchored k-Core decision problem.

Given a digraph and integers b, k, p, the question is whether anchoring at
most b vertices leaves an induced subgraph of at least p vertices in which
every non-anchor has in-degree at least k.  The package provides the
iterated-withdrawal core machinery, an exhaustive oracle, specialized exact
solvers (threshold 1, degree-bounded regimes, DAGs), important-separator
enumeration, and generators that translate SAT / clique / set-cover questions
into equivalent instances.
"""

from .core import (
    Instance,
    OracleBudgetError,
    Solution,
    Verdict,
    normalize,
    oracle_solve,
    peel,
    solution_violation,
    verify_solution,
)
from .graph import (
    DirectedGraph,
    InducedSubgraph,
    Mask,
    ParseError,
    ParsedInstance,
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
from .reductions import (
    CnfFormula,
    GeneratedInstance,
    SetCoverInstance,
    amplify_k,
    gen_from_clique,
    gen_from_sat,
    gen_from_setcover,
    parse_dimacs_cnf,
    parse_setcover_text,
    parse_undirected_text,
)
from .separators import (
    enumerate_important_separators,
    is_important,
    is_separator,
)
from .solver_bounded import (
    SearchBudgetError,
    bounded_core_search,
    coloring_stream,
    knapsack_select,
    red_components,
    search_with_coloring,
)
from .solver_dag import CyclicGraphError, solve_dag
from .solver_degree import (
    Stripped,
    solve,
    solve_by_degree,
    solve_half_k,
    solve_high_k,
    strip_special_components,
)
from .solver_k1 import partial_set_cover, solve_k1

__all__ = [
    "CnfFormula",
    "CyclicGraphError",
    "DirectedGraph",
    "GeneratedInstance",
    "InducedSubgraph",
    "Instance",
    "Mask",
    "OracleBudgetError",
    "ParseError",
    "ParsedInstance",
    "SearchBudgetError",
    "SetCoverInstance",
    "Solution",
    "Stripped",
    "Verdict",
    "amplify_k",
    "bounded_core_search",
    "coloring_stream",
    "enumerate_important_separators",
    "gen_from_clique",
    "gen_from_sat",
    "gen_from_setcover",
    "induced_subgraph",
    "is_important",
    "is_separator",
    "knapsack_select",
    "normalize",
    "oracle_solve",
    "parse_dimacs_cnf",
    "parse_instance_text",
    "parse_setcover_text",
    "parse_undirected_text",
    "partial_set_cover",
    "peel",
    "reach",
    "red_components",
    "search_with_coloring",
    "serialize_instance",
    "solution_violation",
    "solve",
    "solve_by_degree",
    "solve_dag",
    "solve_half_k",
    "solve_high_k",
    "solve_k1",
    "strip_special_components",
    "strongly_connected_components",
    "to_bidirected",
    "verify_solution",
    "vertices_of",
    "vset",
    "weakly_connected_components",
]
