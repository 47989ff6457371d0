"""End-to-end and per-layer benchmark of the dakc command line.

Usage, from the repository root:

    python3 bench/run.py --workload oracle-corpus --seed 1 --seconds 30 --trace 0

The workload's corpus is generated from ``--seed`` (see corpus.py), every op
is one ``dakc`` command run in-process through ``dakc.cli.main(argv)`` with
stdout captured, and every answer is checked against ground truth that does
not come from the solver under test.  One client runs one op at a time
(closed loop).

``--trace 0`` runs every op once, then repeats the corpus from the start until
``--seconds`` are spent, and reports the end-to-end metrics; an op's time is
the median of its runs.  Times are reported at a fixed reference machine speed
(see reference.py); the context line just before the result holds them
unscaled, with the run's other facts.

``--trace 1`` traces one set-up and two passes (see layers.py), reports the
per-layer metrics and the tracing overhead against an untraced pass run
between them, and exits non-zero without a result if the two traced passes
disagree on any count or if the workload no longer reaches the code it
exists to measure.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``attempted`` counts the corpus's ops, each once however often it
ran, and ``failed`` counts those with a run that gave a wrong verdict, a
witness that fails the benchmark's checker, a raise or an exit code that does
not match the answer.  Every op runs at least once and the solvers are
seeded, so both depend on the seed alone, not on how many repeats fit in
``--seconds``.
``correct`` is false when any op fails other than by a seeded search that
hit its trial cap and answered NO where the oracle says YES, a known defect
that is counted and listed but does not invalidate the run.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import reference
import truth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
STARTUP_EVERY_S = 1.0
STARTUP_MIN = 5
TAIL_BEYOND = 10
# exit code per reported answer; "unknown" is the code the roadmap reserves
# for a capped search that declines to answer
EXIT_OF_ANSWER = {"yes": 0, "no": 1, "unsupported": 2, "unknown": 5}


@dataclass(frozen=True)
class Outcome:
    ok: bool
    got: str
    code: int | None
    capped: bool = False
    why: str = ""


def check(op, code: int | None, out: str, err: str) -> Outcome:
    """Judge one op's exit code and JSON report against its ground truth."""
    if code is None:
        return Outcome(False, "raised", None, why=err.strip().splitlines()[-1] if err.strip() else "")
    try:
        report = json.loads(out)
    except ValueError:
        return Outcome(False, "no report", code, why=err.strip())
    if op.kind == "max":
        best = report.get("max_p")
        if code != 0 or not isinstance(best, int):
            return Outcome(False, f"max_p={best}", code, why=report.get("note", ""))
        if (best >= op.p) != op.expect_yes or not 0 <= best <= len(op.in_nbrs):
            return Outcome(False, f"max_p={best}", code, why=f"p={op.p}")
        return Outcome(True, f"max_p={best}", code)
    answer = report.get("answer")
    note = report.get("note") or ""
    if EXIT_OF_ANSWER.get(answer) != code:
        return Outcome(False, str(answer), code, why="exit code does not match the answer")
    if answer != op.expected:
        capped = op.expect_yes and answer in ("no", "unknown") and "trial cap" in note
        return Outcome(False, str(answer), code, capped=capped, why=note)
    if answer == "yes":
        bad = truth.witness_violation(op.in_nbrs, op.b, op.k, op.p, report.get("anchors") or [], report.get("core") or [])
        if bad is not None:
            return Outcome(False, "invalid witness", code, why=bad)
    return Outcome(True, answer, code)


def run_op(cli, op) -> tuple[float, float, Outcome]:
    """Run one op in-process; returns its start time, wall seconds and outcome."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # a raising op is a failed op, not a failed benchmark
        elapsed = perf_counter() - start
        err.write(f"{type(exc).__name__}: {exc}\n")
        code = None
    else:
        elapsed = perf_counter() - start
    return start, elapsed, check(op, code, out.getvalue(), err.getvalue())


def one_pass(cli, ops, before=None, after=None, until=float("inf")) -> tuple[list[tuple[float, float]], list[Outcome]]:
    """Run the ops in order, once each, stopping early at time ``until``;
    returns ``(midpoint, seconds)`` per op run and the outcomes."""
    gc.collect()
    timed, outcomes = [], []
    for i, op in enumerate(ops):
        if perf_counter() >= until:
            break
        if before is not None:
            before(i)
        start, elapsed, outcome = run_op(cli, op)
        timed.append((start + elapsed / 2, elapsed))
        outcomes.append(outcome)
        if after is not None:
            after()
    return timed, outcomes


def startup_runs(op, speed, count: int) -> list[tuple[float, float]]:
    """Time ``python -m dakc.cli solve`` on one instance file ``count`` times;
    returns ``(dakc seconds, baseline seconds)`` pairs (see reference.py)."""
    argv = list(op.argv)
    if argv[0] != "solve":
        argv = ["solve", argv[1], "--solver", "oracle"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = ([sys.executable, "-m", "dakc.cli", *argv], [sys.executable, *reference.BASELINE_ARGV])
    pairs = []
    for _ in range(count):
        pair = []
        for cmd in commands:
            start = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
            pair.append(perf_counter() - start)
            if proc.returncode not in (0, 1, 2):
                raise RuntimeError(f"start-up run failed with exit {proc.returncode}: {proc.stderr.strip()}")
        pairs.append((pair[0], pair[1]))
        speed.sample()
    return pairs


def failed_ops(ops, outcomes_by_pass) -> int:
    """Number of ops with at least one failed run; a partial last pass counts
    for the ops it reached."""
    return sum(
        any(i < len(outcomes) and not outcomes[i].ok for outcomes in outcomes_by_pass) for i in range(len(ops))
    )


def failures(workload: str, ops, outcomes_by_pass) -> list[dict]:
    """Distinct failed ops across passes, in corpus order."""
    seen, listed = set(), []
    for outcomes in outcomes_by_pass:
        for op, o in zip(ops, outcomes):
            key = (op.ident, o.got, o.code)
            if not o.ok and key not in seen:
                seen.add(key)
                listed.append(
                    {
                        "workload": workload,
                        "instance": op.ident,
                        "expected": op.expected,
                        "got": o.got,
                        "exit": o.code,
                        "capped": o.capped,
                        "why": o.why,
                    }
                )
    return listed


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure(args, build, cli, workdir: Path) -> tuple[dict, dict, list, list]:
    speed = reference.Speed()
    setups = []
    for r in range(SETUP_REPEATS):
        target = workdir / f"setup{r}"
        target.mkdir()
        gc.collect()
        speed.sample()
        start = perf_counter()
        ops = build(random.Random(args.seed), target)
        elapsed = perf_counter() - start
        setups.append((start + elapsed / 2, elapsed))
    speed.sample()

    # startup runs are spread over the timed passes, one every STARTUP_EVERY_S,
    # so that their median does not hang on one moment's machine speed; they
    # use the instance of the op that was quickest in the first pass
    timed_by_pass, outcomes_by_pass, startups = [], [], []
    startup_op, next_startup = None, 0.0

    def between_ops() -> None:
        nonlocal next_startup
        speed.sample()
        if startup_op is not None and perf_counter() >= next_startup:
            startups.extend(startup_runs(startup_op, speed, 1))
            next_startup = perf_counter() + STARTUP_EVERY_S

    # every op runs at least once; repeats fill the rest of the run
    deadline = perf_counter() + args.seconds
    while not timed_by_pass or perf_counter() < deadline:
        timed, outcomes = one_pass(cli, ops, after=between_ops, until=deadline if timed_by_pass else float("inf"))
        timed_by_pass.append(timed)
        outcomes_by_pass.append(outcomes)
        if startup_op is None:
            startup_op = ops[min(range(len(ops)), key=lambda i: timed[i][1])]
            startup_runs(startup_op, speed, 1)  # warms the file cache
    if len(startups) < STARTUP_MIN:
        startups += startup_runs(startup_op, speed, STARTUP_MIN - len(startups))

    def per_op(times_by_pass):
        runs: list[list[float]] = [[] for _ in ops]
        for times in times_by_pass:
            for i, t in enumerate(times):
                runs[i].append(t)
        return [statistics.median(r) for r in runs]

    wall_op_s = per_op([[s for _, s in timed] for timed in timed_by_pass])

    op_s = per_op([speed.scaled(timed) for timed in timed_by_pass])
    tail_s, tail_pct = tail(op_s)
    failed = failed_ops(ops, outcomes_by_pass)
    metrics = {
        "ops_per_s": (len(ops) / sum(op_s), "1/s"),
        "op_p50_ms": (statistics.median(op_s) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "success_ratio": (1 - failed / len(ops), "ratio"),
        "setup_s": (statistics.median(speed.scaled(setups)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "startup_ms": (statistics.median(s / base for s, base in startups) * reference.BASELINE_NOMINAL_S * 1000, "ms"),
    }
    context = {
        "passes": round(sum(map(len, outcomes_by_pass)) / len(ops), 2),
        "op_tail_percentile": round(tail_pct, 1),
        "op_tail_samples": len(op_s),
        "op_samples_are": "per-op medians over the op's timed runs",
        "reference_kernel_s": statistics.median(speed.durations),
        "reference_samples": len(speed.durations),
        "unscaled": {
            "ops_per_s": len(ops) / sum(wall_op_s),
            "op_p50_ms": statistics.median(wall_op_s) * 1000,
            "op_tail_ms": tail(wall_op_s)[0] * 1000,
            "setup_s": statistics.median(s for _, s in setups),
            "startup_ms": statistics.median(s for s, _ in startups) * 1000,
            "startup_baseline_ms": statistics.median(base for _, base in startups) * 1000,
        },
        "startup_runs": len(startups),
        "startup_instance": startup_op.ident,
    }
    return metrics, context, ops, outcomes_by_pass


PATH_CHECKS = {
    "oracle-corpus": (("core.peel.calls", "core.oracle_solve is peeling"),),
    "bounded-regimes": (
        ("separators.enumerate_important_separators.calls", "half-k stage 3 enumerates separators"),
        ("solver_degree.solve_high_k.calls", "the high-k solver is reached"),
        ("solver_degree.solve_half_k.calls", "the half-k solver is reached"),
        ("solver_dag.solve_dag.calls", "the DAG solver is reached"),
    ),
    "k1-setcover": (),
}


def trace_run(args, build, cli, workdir: Path) -> tuple[dict, dict, list, list]:
    with layers.Tracer() as setup_tracer:
        ops = build(random.Random(args.seed), workdir)
    kinds = [op.kind for op in ops]
    speed = reference.Speed()

    def traced_pass():
        tracer = layers.Tracer()
        with tracer:
            timed, outcomes = one_pass(cli, ops, before=lambda i: setattr(tracer, "op", i), after=speed.sample)
        return timed, outcomes, tracer.summary(kinds)

    # the untraced pass sits between the traced ones so that warm-up and
    # drift fall on both sides of the overhead comparison
    passes = [traced_pass()]
    untraced, untraced_outcomes = one_pass(cli, ops, after=speed.sample)
    passes.append(traced_pass())

    summaries = [s for _, _, s in passes]
    metrics = dict(summaries[0]["metrics"])
    metrics["reductions.self_s"] = setup_tracer.summary([])["metrics"]["reductions.self_s"]

    def fingerprint(summary, outcomes):
        m = summary["metrics"]
        keep = {k: v[0] for k, v in m.items() if k.endswith(".calls")}
        keep["solver_bounded.hit_ratio"] = m["solver_bounded.hit_ratio"][0]
        keep["solver_bounded.capped_searches"] = m["solver_bounded.capped_searches"][0]
        keep["failed_ratio"] = sum(not o.ok for o in outcomes) / len(outcomes)
        return keep

    first, second = (fingerprint(s, o) for _, o, s in passes)
    problems = [f"determinism: {k} was {first[k]} then {second[k]}" for k in first if first[k] != second[k]]
    for name, what in PATH_CHECKS[args.workload]:
        if metrics[name][0] <= 0:
            problems.append(f"path: {name} is 0, so no longer {what}")
    max_solves = summaries[0]["solves_per_op_by_kind"].get("max")
    if args.workload == "k1-setcover" and not (max_solves and max_solves > 1):
        problems.append(f"path: cli.solves_per_op on max ops is {max_solves}, so max no longer bisects")

    traced_s = statistics.mean(sum(speed.scaled(timed)) for timed, _, _ in passes)
    untraced_s = sum(speed.scaled(untraced))
    context = {
        "passes": 1 + len(passes),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "tracing_overhead": traced_s / untraced_s - 1,
        "solves_per_op_by_kind": summaries[0]["solves_per_op_by_kind"],
        "spans_per_pass": sum(v[0] for k, v in metrics.items() if k.endswith(".calls")),
        "problems": problems,
    }
    return metrics, context, ops, [passes[0][1], untraced_outcomes, passes[1][1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle-corpus", "bounded-regimes", "k1-setcover"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dakc" / "cli.py").is_file():
        print(f"bench: no dakc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus
    from dakc import cli

    build = corpus.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        run = trace_run if args.trace else measure
        metrics, context, ops, outcomes_by_pass = run(args, build, cli, Path(tmp))

    listed = failures(args.workload, ops, outcomes_by_pass)
    attempted = len(ops)
    failed = failed_ops(ops, outcomes_by_pass)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": len(ops),
        "op_runs": sum(map(len, outcomes_by_pass)),
        "op_kinds": {kind: sum(op.kind == kind for op in ops) for kind in sorted({op.kind for op in ops})},
        **context,
        "failed_ops": listed,
    }
    for entry in listed:
        print("FAILED " + " ".join(f"{k}={v}" for k, v in entry.items() if k != "why"))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed / attempted:.6g} ratio")
    print(json.dumps({"context": context}))
    problems = context.get("problems")
    if problems:
        for line in problems:
            print(f"bench: {line}", file=sys.stderr)
        return 3
    result = {
        "correct": all(o.ok or o.capped for outcomes in outcomes_by_pass for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
