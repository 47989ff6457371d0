"""Every benchmark op's exit code, report and diagnostics stay as recorded:
``tools/outputs.py`` fingerprints the seed-1 corpus of each workload and
compares it with the seed-1 column of its ``RECORDED`` table.  The CI job
runs the tool itself, which checks the other seeds as well."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_seed_1_outputs_match_the_recorded_fingerprints(monkeypatch):
    # the tool imports bench/corpus.py from the source tree, which must
    # write nothing there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for folder in ("src", "bench"):
        monkeypatch.syspath_prepend(str(ROOT / folder))
    spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    assert outputs.SEEDS[0] == 1 and set(outputs.RECORDED) == set(outputs.corpus.WORKLOADS)
    recorded = {workload: digests[0] for workload, digests in outputs.RECORDED.items()}
    assert {workload: outputs.fingerprint(workload, 1) for workload in recorded} == recorded
