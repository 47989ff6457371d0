"""Per-layer tracing of the ``dakc`` modules, from outside the program.

Each traced function is wrapped and the wrapper is bound under every name
that any loaded ``dakc`` module holds for it, so calls between modules are
seen as well as calls from the benchmark.  A span records the function, its
parent span, the op it belongs to, start and end, and one integer outcome.
Spans stay in compact arrays in memory; metrics are computed once, at the
end, with self time = duration minus the time covered by child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# layer (module) -> traced public functions; class methods as "Class.method"
TRACED = {
    "cli": ("main",),
    "graph": (
        "parse_instance_text",
        "DirectedGraph.from_arcs",
        "strongly_connected_components",
        "weakly_connected_components",
        "reach",
        "induced_subgraph",
    ),
    "core": ("peel", "oracle_solve", "verify_solution", "normalize"),
    "solver_bounded": ("bounded_core_search", "search_with_coloring", "red_components", "knapsack_select"),
    "solver_degree": ("solve_by_degree", "solve_high_k", "solve_half_k", "strip_special_components"),
    "separators": ("enumerate_important_separators",),
    "solver_dag": ("solve_dag",),
    "solver_k1": ("solve_k1", "partial_set_cover"),
    "reductions": ("gen_from_sat", "gen_from_clique", "gen_from_setcover", "amplify_k"),
}

# the integer a span keeps from the traced function's result
OUTCOMES = {
    "solver_bounded.search_with_coloring": lambda sol: sol is not None,
    "solver_bounded.bounded_core_search": lambda verdict: "trial cap" in (verdict.note or ""),
    "separators.enumerate_important_separators": len,
}

# entry points of a whole solve; the outermost one per call chain is one solve
SOLVERS = (
    "core.oracle_solve",
    "solver_degree.solve_by_degree",
    "solver_degree.solve_high_k",
    "solver_degree.solve_half_k",
    "solver_dag.solve_dag",
    "solver_k1.solve_k1",
)

NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
FID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Records spans inside a ``with`` block; the caller sets ``op`` before each op."""

    def __init__(self) -> None:
        self.fid = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.outcome = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, func, outcome):
        def traced(*args, **kwargs):
            i = len(self.fid)
            self.fid.append(fid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_of.append(self.op)
            self.outcome.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            start = perf_counter()
            self.start.append(start)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if outcome is not None:
                self.outcome[i] = int(outcome(result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name == "dakc" or name.startswith("dakc.")]
        for layer, fns in TRACED.items():
            home = sys.modules[f"dakc.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(FID[name], original.__func__, OUTCOMES.get(name)))
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(home, fn)
                wrapped = self._wrap(FID[name], original, OUTCOMES.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def _has_ancestor(self, i: int, fids: set[int]) -> bool:
        j = self.parent[i]
        while j >= 0:
            if self.fid[j] in fids:
                return True
            j = self.parent[j]
        return False

    def summary(self, op_kinds: list[str]) -> dict:
        """Counts, self times and outcome sums per traced function, plus the
        derived per-layer ratios.  ``op_kinds[i]`` is the command of op i."""
        total = len(NAMES)
        calls = [0] * total
        self_s = [0.0] * total
        outcome_sum = [0] * total
        child = [0.0] * len(self.fid)
        for i in range(len(self.fid)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(len(self.fid)):
            f = self.fid[i]
            calls[f] += 1
            self_s[f] += self.end[i] - self.start[i] - child[i]
            outcome_sum[f] += self.outcome[i]

        solver_fids = {FID[s] for s in SOLVERS}
        solves = {kind: 0 for kind in set(op_kinds)}
        for i in range(len(self.fid)):
            if self.fid[i] in solver_fids and self.op_of[i] >= 0 and not self._has_ancestor(i, solver_fids):
                solves[op_kinds[self.op_of[i]]] += 1
        dag_rounds = sum(
            1
            for i in range(len(self.fid))
            if self.fid[i] == FID["solver_bounded.bounded_core_search"]
            and self._has_ancestor(i, {FID["solver_dag.solve_dag"]})
        )

        def n(name: str) -> int:
            return calls[FID[name]]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            if not name.startswith("reductions."):
                metrics[f"{name}.calls"] = (calls[FID[name]], "count")
                if name != "core.normalize":
                    metrics[f"{name}.self_s"] = (self_s[FID[name]], "s")
        metrics["cli.solves_per_op"] = (ratio(sum(solves.values()), len(op_kinds)), "count")
        metrics["core.peels_per_oracle_solve"] = (ratio(n("core.peel"), n("core.oracle_solve")), "count")
        metrics["solver_bounded.hit_ratio"] = (
            ratio(outcome_sum[FID["solver_bounded.search_with_coloring"]], n("solver_bounded.search_with_coloring")),
            "ratio",
        )
        metrics["solver_bounded.capped_searches"] = (outcome_sum[FID["solver_bounded.bounded_core_search"]], "count")
        metrics["separators.found_per_call"] = (
            ratio(
                outcome_sum[FID["separators.enumerate_important_separators"]],
                n("separators.enumerate_important_separators"),
            ),
            "count",
        )
        metrics["solver_dag.rounds_per_solve"] = (ratio(dag_rounds, n("solver_dag.solve_dag")), "count")
        metrics["reductions.self_s"] = (
            sum(self_s[FID[name]] for name in NAMES if name.startswith("reductions.")),
            "s",
        )
        kinds = {kind: op_kinds.count(kind) for kind in solves}
        solves_per_kind = {kind: ratio(solves[kind], kinds[kind]) for kind in solves}
        return {"metrics": metrics, "solves_per_op_by_kind": solves_per_kind}
