"""Command-line front end: solve, oracle, verify, gen, seps, and max.

solve, oracle and max answer through ``dakc.solve``, which leaves every
witness unchecked; each YES is verified here, once, before it is reported.
Reports are JSON on stdout with vertex ids rendered 1-based to match the
instance files.  Exit codes are a stable contract: 0 yes / valid, 1 no /
invalid, 2 unsupported regime, 3 input or parse failure, 4 usage or runtime
failure (bad flags, contract violations, enumeration caps).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .core import (
    Instance,
    OracleBudgetError,
    Solution,
    Verdict,
    solution_violation,
    verify_solution,
)
from .graph import (
    ParseError,
    parse_instance_text,
    serialize_instance,
    vertices_of,
    vset,
)
from .reductions import (
    amplify_k,
    format_labels,
    gen_from_clique,
    gen_from_sat,
    gen_from_setcover,
    parse_dimacs_cnf,
    parse_setcover_text,
    parse_undirected_text,
)
from .separators import enumerate_important_separators
from .solver_bounded import SearchConfig
from .solver_degree import solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNSUPPORTED = 2
EXIT_INPUT = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which would collide with the
    # "unsupported" exit code; route usage failures to 4 instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@cache
def _build_parser() -> _Parser:
    # built once per process: construction costs far more than parsing, and
    # parse_args leaves the parser unchanged
    parser = _Parser(prog="dakc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser, with_p: bool = True) -> None:
        p.add_argument("instance", help="instance file (p dakc format)")
        p.add_argument("--b", type=int, default=None, help="anchor budget")
        p.add_argument("--k", type=int, default=None, help="in-degree threshold")
        if with_p:
            p.add_argument("--p", type=int, default=None, help="target core size")

    def add_search(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("seeded", "exhaustive"), default="exhaustive")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=0.01, help="seeded-mode failure probability")
        p.add_argument("--trial-cap", type=int, default=100_000)
        p.add_argument("--allow-oracle", action="store_true", help="let auto dispatch fall back to the exhaustive oracle")
        p.add_argument("--cap", type=int, default=10_000_000, help="oracle anchor-subset cap")

    ps = sub.add_parser("solve", help="solve an instance with a chosen or auto-dispatched solver")
    add_params(ps)
    ps.add_argument("--solver", choices=("auto", "k1", "degree", "dag", "oracle"), default="auto")
    add_search(ps)

    po = sub.add_parser("oracle", help="solve by exhaustive anchor enumeration")
    add_params(po)
    po.add_argument("--cap", type=int, default=10_000_000)

    pv = sub.add_parser("verify", help="check a solution JSON against an instance")
    add_params(pv)
    pv.add_argument("solution", help="JSON file with 1-based 'anchors' and 'core' lists")

    pg = sub.add_parser("gen", help="generate an instance from a source problem")
    pg.add_argument("kind", choices=("sat", "clique", "setcover", "amplify"))
    pg.add_argument("source", help="source problem file")
    pg.add_argument("-o", "--out", required=True, help="output instance path")
    pg.add_argument("--k", type=int, default=None)
    pg.add_argument("--b", type=int, default=None)
    pg.add_argument("--p", type=int, default=None, help="amplify only: override the base target size")
    pg.add_argument("--delta", type=int, default=None, help="amplify only: target max degree")

    pse = sub.add_parser("seps", help="enumerate important s-t separators")
    pse.add_argument("instance")
    pse.add_argument("--s", type=int, required=True, help="source vertex (1-based)")
    pse.add_argument("--t", type=int, required=True, help="target vertex (1-based)")
    pse.add_argument("--h", type=int, required=True, help="maximum separator size")

    pm = sub.add_parser("max", help="largest feasible target size by binary search")
    add_params(pm, with_p=False)
    pm.add_argument("--solver", choices=("auto", "k1", "degree", "dag", "oracle"), default="auto")
    add_search(pm)

    return parser


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_instance(args, need_p: bool = True) -> Instance:
    parsed = parse_instance_text(_read_text(args.instance))
    qb, qk, qp = parsed.params if parsed.params is not None else (None, None, None)
    b = args.b if args.b is not None else qb
    k = args.k if args.k is not None else qk
    p = getattr(args, "p", None)
    if p is None:
        p = qp
    missing = [
        name
        for name, val in (("--b", b), ("--k", k), ("--p", p if need_p else 0))
        if val is None
    ]
    if missing:
        raise _UsageError(
            f"missing {' '.join(missing)} (no q-line defaults in {args.instance})"
        )
    return Instance(graph=parsed.graph, b=b, k=k, p=p if need_p else parsed.graph.n or 1)


def _config(args) -> SearchConfig:
    return SearchConfig(
        mode=args.mode,
        seed=args.seed,
        failure_prob=args.eps,
        trial_cap=args.trial_cap,
    )


def _mask_list(mask) -> list[int]:
    return [v + 1 for v in vertices_of(mask)]


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` at nesting ``indent``, the same text.
    ``indent=2`` runs the pure-Python encoder, so each list or dict that
    holds no list or dict goes to the C encoder in one call, with the line
    break and the indent in its item separator."""
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return json.dumps(value)
    if not value:
        return json.dumps(value)
    inner = indent + "  "
    if not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, items))):
        text = json.dumps(value, separators=(",\n" + inner, ": "))
    elif isinstance(value, dict):
        # '{"key": null}' less its last five characters is '{"key": ', so
        # every key is written exactly as json writes it
        text = "{" + (",\n" + inner).join(
            json.dumps({key: None})[1:-5] + _json_text(item, inner)
            for key, item in value.items()
        ) + "}"
    else:
        text = "[" + (",\n" + inner).join(_json_text(item, inner) for item in value) + "]"
    return text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1]


def _emit(report: dict) -> None:
    print(_json_text(report))


def _check_witness(inst: Instance, sol: Solution) -> None:
    """Verify a YES witness before anything reports it.  Solvers do not
    check their own witnesses, so this is the one check each printed YES
    gets, and it runs under ``python -O`` too."""
    if not verify_solution(inst, sol):
        raise RuntimeError("internal error: solver returned an unverifiable solution")


def _emit_answer(inst: Instance, verdict: Verdict, seed: int | None) -> int:
    if verdict.kind == "unsupported":
        answer, code = "unsupported", EXIT_UNSUPPORTED
    elif verdict.is_yes:
        answer, code = "yes", EXIT_YES
    else:
        answer, code = "no", EXIT_NO
    if verdict.is_yes:
        _check_witness(inst, verdict.solution)
        anchors = _mask_list(verdict.solution.anchors)
        core = _mask_list(verdict.solution.core)
    else:
        anchors = core = None
    report = {
        "answer": answer,
        "anchors": anchors,
        "core": core,
        "solver": verdict.solver,
        "seed": seed,
        "trials": verdict.trials,
        "note": verdict.note,
    }
    _emit(report)
    return code


def _cmd_solve(args) -> int:
    inst = _load_instance(args)
    verdict = solve(inst, _config(args), solver=args.solver, allow_oracle=args.allow_oracle, cap=args.cap)
    return _emit_answer(inst, verdict, args.seed)


def _cmd_oracle(args) -> int:
    inst = _load_instance(args)
    verdict = solve(inst, solver="oracle", cap=args.cap)
    return _emit_answer(inst, verdict, None)


def _cmd_verify(args) -> int:
    inst = _load_instance(args)
    try:
        payload = json.loads(_read_text(args.solution))
        anchors = list(payload["anchors"])
        core = list(payload["core"])
        # a JSON boolean is an int in Python, but it names no vertex
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in anchors + core):
            raise TypeError("vertex ids must be integers")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(0, "params", f"malformed solution JSON: {exc}") from exc
    if any(v < 1 for v in anchors + core):
        violation = "solution names vertices outside the graph"
    else:
        sol = Solution(
            anchors=vset(v - 1 for v in anchors), core=vset(v - 1 for v in core)
        )
        violation = solution_violation(inst, sol)
    _emit({"valid": violation is None, "violation": violation})
    return EXIT_YES if violation is None else EXIT_NO


def _cmd_gen(args) -> int:
    source = _read_text(args.source)
    if args.kind == "sat":
        generated = gen_from_sat(parse_dimacs_cnf(source), k=args.k if args.k is not None else 1)
    elif args.kind == "clique":
        if args.b is None:
            raise _UsageError("gen clique requires --b (clique size)")
        n, edges = parse_undirected_text(source)
        generated = gen_from_clique(n, edges, b=args.b, k=args.k if args.k is not None else 2)
    elif args.kind == "setcover":
        if args.b is None:
            raise _UsageError("gen setcover requires --b (cover budget)")
        generated = gen_from_setcover(parse_setcover_text(source, budget=args.b))
    else:  # amplify
        parsed = parse_instance_text(source)
        params = parsed.params
        b = args.b if args.b is not None else (params[0] if params else None)
        p = args.p if args.p is not None else (params[2] if params else None)
        if b is None or p is None:
            raise _UsageError("gen amplify needs a base q-line or explicit --b/--p")
        k = args.k if args.k is not None else 2
        delta = args.delta if args.delta is not None else 2 * k + 1
        labels_path = Path(args.source + ".labels")
        base_labels = None
        if labels_path.exists():
            lines = [
                line.split(maxsplit=1)
                for line in labels_path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
            if any(len(parts) != 2 for parts in lines):
                raise ParseError(0, "params", f"malformed label sidecar {labels_path}")
            base_labels = tuple(parts[1] for parts in lines)
        base = Instance(graph=parsed.graph, b=b, k=1, p=p)
        generated = amplify_k(base, k=k, delta=delta, base_labels=base_labels)
    inst = generated.instance
    out_path = Path(args.out)
    out_path.write_text(
        serialize_instance(inst.graph, (inst.b, inst.k, inst.p)), encoding="utf-8"
    )
    labels_out = Path(args.out + ".labels")
    labels_out.write_text(format_labels(generated.labels), encoding="utf-8")
    _emit(
        {
            "instance": str(out_path),
            "labels": str(labels_out),
            "n": inst.graph.n,
            "m": inst.graph.arc_count(),
            "b": inst.b,
            "k": inst.k,
            "p": inst.p,
        }
    )
    return EXIT_YES


def _cmd_seps(args) -> int:
    g = parse_instance_text(_read_text(args.instance)).graph
    # checked here, where the ids are still the 1-based ones the user typed
    if not (1 <= args.s <= g.n and 1 <= args.t <= g.n):
        raise ValueError(f"s={args.s}, t={args.t} out of range 1..{g.n}")
    seps = enumerate_important_separators(g, args.s - 1, args.t - 1, args.h)
    _emit(
        {
            "s": args.s,
            "t": args.t,
            "h": args.h,
            "count": len(seps),
            "separators": [_mask_list(sep.vertices) for sep in seps],
        }
    )
    return EXIT_YES


def _cmd_max(args) -> int:
    inst = _load_instance(args, need_p=False)
    g, b, k = inst.graph, inst.b, inst.k
    cfg = _config(args)
    # the bisection steps verify nothing; only the best YES is checked
    best, best_yes = 0, None
    lo, hi = 1, g.n
    while lo <= hi:
        mid = (lo + hi) // 2
        step = Instance(graph=g, b=b, k=k, p=mid)
        verdict = solve(step, cfg, solver=args.solver, allow_oracle=args.allow_oracle, cap=args.cap)
        if verdict.kind == "unsupported":
            _emit({"answer": "unsupported", "note": verdict.note})
            return EXIT_UNSUPPORTED
        if verdict.is_yes:
            best, best_yes = mid, verdict
            lo = mid + 1
        else:
            hi = mid - 1
    if best_yes is not None:
        _check_witness(Instance(graph=g, b=b, k=k, p=best), best_yes.solution)
    _emit({"max_p": best})
    return EXIT_YES


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "solve": _cmd_solve,
            "oracle": _cmd_oracle,
            "verify": _cmd_verify,
            "gen": _cmd_gen,
            "seps": _cmd_seps,
            "max": _cmd_max,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"dakc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"dakc: parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"dakc: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OracleBudgetError as exc:
        print(f"dakc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"dakc: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
