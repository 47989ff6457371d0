"""Paired benchmark runs of two revisions, written as one BENCH JSON file.

Usage, from the repository root:

    python3 tools/pairs.py --base 676cbbb --head HEAD --seconds 30 \\
        --workload oracle-corpus --seeds 401 402 403 --out BENCH_17.json

Each revision is unpacked with ``git archive`` into a fresh temporary
directory, so neither copy holds ``.git`` metadata or ``__pycache__``, and
every run has bytecode writing off, so each starts as from a clean checkout.
Any tree-ish works as a revision: to measure uncommitted work, stage it and
pass ``--head $(git write-tree)``.

For each workload and seed, one pair is one ``bench/run.py --workload W
--seed S --seconds T`` run in each copy.  The side that runs first
alternates from pair to pair, starting with the base.  After the pairs, each
side runs one ``--trace 1`` pass on the first seed, whose per-layer counts and
self times go into the file as they are.

For each end-to-end metric of ``BENCHMARK.json`` the file holds every pair's
value on each side, each side's median and [Q1, Q3], the head's wins (pairs
where it reads strictly better in the metric's ``better`` direction), the
change of the medians, and whether the head stays inside the metric's bound:
its median may be worse than the base's by at most ``bound`` times the base's
median.  Each run keeps its result fields and, from the context line before
them, its pass count, the op it timed for start-up (a traced run times
none), its median reference kernel time and its times before scaling to the
reference speed.  A run that exits non-zero or ends without a result is kept
with its exit code and the last lines of its stderr, and its pair is left
out of the statistics.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")

# runner(side, bench arguments) -> (exit code, stdout, stderr)
Runner = Callable[[str, list], tuple]
# stderr lines kept for a run that gives no result
STDERR_LINES = 20


def unpack(rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` into ``dest``, and nothing else."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def bench_runner(roots: dict[str, Path]) -> Runner:
    """Run ``bench/run.py`` in the copy of each side with this interpreter."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)

    def run(side: str, argv: list) -> tuple:
        done = subprocess.run(
            [sys.executable, "bench/run.py", *argv], cwd=roots[side], env=env, capture_output=True, text=True
        )
        return done.returncode, done.stdout, done.stderr

    return run


def parse_run(code: int, stdout: str, stderr: str) -> dict:
    """The exit code and, when the run ended with a result line, its fields,
    with the pass count, start-up op, reference kernel time and unscaled
    times of the context line before it.
    Otherwise the last ``STDERR_LINES`` lines of stderr say why."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if code != 0 or not isinstance(result, dict) or "metrics" not in result:
        return {"exit": code, "correct": False, "metrics": None, "stderr": stderr.splitlines()[-STDERR_LINES:]}
    # bench/run.py prints its context line just before the result
    context = json.loads(lines[-2])["context"]
    return {
        "exit": code,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "passes": context.get("passes"),
        "startup_instance": context.get("startup_instance"),
        "reference_kernel_s": context.get("reference_kernel_s"),
        "unscaled": context.get("unscaled"),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, pairs: list[dict]) -> dict:
    """One end-to-end metric over the pairs where both sides gave a result."""
    name, higher = metric["name"], metric["better"] == "higher"
    kept = [p for p in pairs if all(p[s]["metrics"] and name in p[s]["metrics"] for s in SIDES)]
    if not kept:
        return {"pairs": 0}
    values = {s: [p[s]["metrics"][name] for p in kept] for s in SIDES}
    stats = {s: spread(values[s]) for s in SIDES}
    base, head = stats["base"]["median"], stats["head"]["median"]
    sign = 1 if higher else -1
    # how much worse the head's median is, as a share of the base's
    if base:
        worse = sign * (base - head) / base
    else:
        worse = 0.0 if head == base else float("inf")
    gain = sign * (head - base)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "pairs": len(kept),
        "values": values,
        **{s: stats[s] for s in SIDES},
        "change": head / base - 1 if base else None,
        "wins": sum(sign * (h - b) > 0 for b, h in zip(values["base"], values["head"])),
        "within_bound": worse <= metric["bound"],
        "gain_beyond_base_iqr": gain > stats["base"]["q3"] - stats["base"]["q1"],
    }


def run_workload(workload: str, seeds: list[int], seconds: float, runner: Runner, spec: dict) -> dict:
    """The pairs of one workload, their statistics and one traced count set
    per side."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = parse_run(*runner(side, argv))
        pairs.append(pair)
    trace_argv = ["--workload", workload, "--seed", str(seeds[0]), "--seconds", "0", "--trace", "1"]
    return {
        "seeds": seeds,
        "pairs": pairs,
        "metrics": {m["name"]: compare(m, pairs) for m in spec["end_to_end"]},
        "trace": {"seed": seeds[0], **{side: parse_run(*runner(side, trace_argv)) for side in SIDES}},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision (any tree-ish)")
    parser.add_argument("--head", required=True, help="the changed revision (any tree-ish)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    if not set(args.workload) <= known:
        parser.error(f"workloads must be among {sorted(known)}")
    revs = {"base": args.base, "head": args.head}
    report = {
        "revisions": {
            side: subprocess.run(
                ["git", "rev-parse", "--verify", rev], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
            for side, rev in revs.items()
        },
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            unpack(revs[side], roots[side])
        runner = bench_runner(roots)
        for workload in args.workload:
            report["workloads"][workload] = run_workload(workload, args.seeds, args.seconds, runner, spec)
            print(f"pairs: {workload} done", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
