import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

SPEC = {
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
}


class StubRunner:
    """Stands in for ``bench/run.py``: records each call and prints a result
    line whose metrics depend on the side and the seed only."""

    def __init__(self, fail=()):
        self.calls = []
        self.fail = set(fail)

    def __call__(self, side, argv):
        self.calls.append((side, argv))
        seed = int(argv[argv.index("--seed") + 1])
        if (side, seed) in self.fail:
            return 1, "FAILED op=x\n", "Traceback (most recent call last):\nRuntimeError: x\n"
        i = seed - 100
        metrics = {
            # the head is faster in every pair but the tie at seed 100
            "ops_per_s": 100 + i if side == "base" else 100 + 2 * i,
            # the head's median sits 20% above the base's: inside the bound
            "op_p50_ms": 10.0 if side == "base" else 12.0,
            # the head's median sits 20% above the base's: outside the bound
            "peak_rss_mb": 20.0 + i if side == "base" else 24.0 + i,
        }
        result = {
            "correct": True,
            "attempted": 5,
            "failed": 0,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()},
        }
        # bench/run.py's context line: a traced run times no start-up op
        if "--trace" in argv:
            context = {"passes": 3}
        else:
            context = {
                "passes": 1.5,
                "startup_instance": f"op-{seed}",
                "reference_kernel_s": 0.005,
                "unscaled": {"ops_per_s": metrics["ops_per_s"] / 2},
            }
        out = "ops_per_s = 1 1/s\n" + json.dumps({"context": context}) + "\n" + json.dumps(result) + "\n"
        return 0, out, "pairs: a warning\n"


def test_pairs_alternate_which_side_runs_first():
    runner = StubRunner()
    seeds = [100, 101, 102, 103, 104]
    out = pairs.run_workload("oracle-corpus", seeds, 30, runner, SPEC)
    timed, traced = runner.calls[:10], runner.calls[10:]
    assert [side for side, _ in timed] == ["base", "head", "head", "base"] * 2 + ["base", "head"]
    assert [p["first"] for p in out["pairs"]] == ["base", "head", "base", "head", "base"]
    for n, (_, argv) in enumerate(timed):
        assert argv == ["--workload", "oracle-corpus", "--seed", str(seeds[n // 2]), "--seconds", "30"]
    # one traced pass per side, on the first seed
    assert traced == [
        (side, ["--workload", "oracle-corpus", "--seed", "100", "--seconds", "0", "--trace", "1"])
        for side in ("base", "head")
    ]
    assert out["trace"]["seed"] == 100
    assert out["trace"]["head"]["metrics"]["ops_per_s"] == 100


def test_pairs_statistics_and_bounds():
    out = pairs.run_workload("oracle-corpus", [100, 101, 102, 103, 104], 30, StubRunner(), SPEC)
    assert set(out) == {"seeds", "pairs", "metrics", "trace"}
    assert set(out["pairs"][0]) == {"seed", "first", "base", "head"}
    assert out["pairs"][1]["head"] == {
        "exit": 0,
        "correct": True,
        "failed": 0,
        "attempted": 5,
        "passes": 1.5,
        "startup_instance": "op-101",
        "reference_kernel_s": 0.005,
        "unscaled": {"ops_per_s": 51.0},
        "metrics": {"ops_per_s": 102, "op_p50_ms": 12.0, "peak_rss_mb": 25.0},
    }
    assert out["trace"]["base"]["passes"] == 3
    assert out["trace"]["base"]["startup_instance"] is None
    assert out["trace"]["base"]["unscaled"] is None
    ops = out["metrics"]["ops_per_s"]
    assert ops["values"] == {"base": [100, 101, 102, 103, 104], "head": [100, 102, 104, 106, 108]}
    assert ops["base"] == {"median": 102, "q1": 101, "q3": 103}
    assert ops["head"] == {"median": 104, "q1": 102, "q3": 106}
    # the tie at seed 100 counts for neither side
    assert ops["wins"] == 4 and ops["pairs"] == 5
    assert abs(ops["change"] - 2 / 102) < 1e-12
    assert ops["within_bound"]
    # a gain of 2 against the base's spread of 103 - 101 = 2 is not beyond it
    assert not ops["gain_beyond_base_iqr"]
    p50 = out["metrics"]["op_p50_ms"]
    # lower is better: the head reads worse in every pair, by 20% < 0.24
    assert p50["wins"] == 0 and p50["within_bound"] and not p50["gain_beyond_base_iqr"]
    rss = out["metrics"]["peak_rss_mb"]
    assert abs(rss["change"] - 4 / 22) < 1e-12
    assert rss["wins"] == 0 and not rss["within_bound"]
    assert (rss["unit"], rss["better"], rss["bound"]) == ("MB", "lower", 0.1)


def test_pairs_leave_failed_runs_out_of_the_statistics():
    out = pairs.run_workload("k1-setcover", [100, 101, 102], 30, StubRunner(fail={("head", 101)}), SPEC)
    assert out["pairs"][1]["head"] == {
        "exit": 1,
        "correct": False,
        "metrics": None,
        "stderr": ["Traceback (most recent call last):", "RuntimeError: x"],
    }
    ops = out["metrics"]["ops_per_s"]
    assert ops["pairs"] == 2
    assert ops["values"] == {"base": [100, 102], "head": [100, 104]}
    assert ops["base"] == {"median": 101, "q1": 100.5, "q3": 101.5}
    assert ops["wins"] == 1
    # every pair failed: no statistics at all
    out = pairs.run_workload("k1-setcover", [101], 30, StubRunner(fail={("base", 101)}), SPEC)
    assert out["metrics"]["ops_per_s"] == {"pairs": 0}


def test_pairs_keep_the_stderr_tail_of_runs_without_a_result():
    # a run that exits non-zero, or exits 0 but prints no result line, keeps
    # the last 20 lines of its stderr; a run with a result keeps none
    err = "".join(f"line {i}\n" for i in range(30))
    outcomes = {
        ("base", 100): (1, "", err),
        ("head", 100): (0, "ops_per_s = 1 1/s\n", "only line\n"),
    }
    stub = StubRunner()

    def runner(side, argv):
        seed = int(argv[argv.index("--seed") + 1])
        if "--trace" in argv:
            return stub(side, argv)
        return outcomes.get((side, seed)) or stub(side, argv)

    out = pairs.run_workload("bounded-regimes", [100, 101], 30, runner, SPEC)
    first = out["pairs"][0]
    assert first["base"] == {
        "exit": 1,
        "correct": False,
        "metrics": None,
        "stderr": [f"line {i}" for i in range(10, 30)],
    }
    assert first["head"] == {"exit": 0, "correct": False, "metrics": None, "stderr": ["only line"]}
    assert "stderr" not in out["pairs"][1]["base"] and "stderr" not in out["trace"]["base"]
    assert out["metrics"]["ops_per_s"]["pairs"] == 1
