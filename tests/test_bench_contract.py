"""What the benchmark reads of the program by name: every corpus op's argv
must parse with the CLI's parser, and every name the tracer rebinds must
resolve in its ``dakc`` module.  A traced ``bounded-regimes`` run must also
exit 0 with no wrong answer.  The ``bench`` modules are imported from the
source tree and write nothing there; the corpus goes into a temporary
directory."""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dakc import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module(name)


@pytest.mark.parametrize("workload", ["oracle-corpus", "bounded-regimes", "k1-setcover"])
def test_bench_corpus_argv_parses(monkeypatch, tmp_path, workload):
    corpus = _bench_module(monkeypatch, "corpus")
    ops = corpus.WORKLOADS[workload](random.Random(1), tmp_path)
    assert ops
    parser = cli._build_parser()
    for op in ops:
        args = parser.parse_args(list(op.argv))
        assert args.command == op.kind, op.ident


def test_bench_traced_names_resolve(monkeypatch):
    layers = _bench_module(monkeypatch, "layers")
    for layer, names in layers.TRACED.items():
        home = importlib.import_module(f"dakc.{layer}")
        for name in names:
            target = home
            for part in name.split("."):
                target = getattr(target, part)
            assert callable(target), f"{layer}.{name}"


@pytest.mark.parametrize("seed", [1, 2])
def test_traced_bounded_regimes_run_exits_0(seed):
    # a traced run exits 3 when its two traced passes disagree on a count or
    # a path check reads 0 (separator, high-k, half-k or DAG calls), and
    # prints a FAILED line for each op answered wrongly
    argv = ["--workload", "bounded-regimes", "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert not [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
