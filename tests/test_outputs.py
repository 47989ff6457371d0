"""Every benchmark op's exit code, report and diagnostics stay as recorded:
``tools/outputs.py`` fingerprints the seed-1 corpus of each workload.  A
change that means to alter an answer or a message updates the fingerprint
here and says why."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RECORDED = {
    "k1-setcover": "c63d8d391262c8e9",
    "oracle-corpus": "771dac4b19aab5ff",
    "bounded-regimes": "ba2e4dcfeb18cc9f",
}


def test_seed_1_outputs_match_the_recorded_fingerprints(monkeypatch):
    # the tool imports bench/corpus.py from the source tree, which must
    # write nothing there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for folder in ("src", "bench"):
        monkeypatch.syspath_prepend(str(ROOT / folder))
    spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    assert {workload: outputs.fingerprint(workload, 1) for workload in RECORDED} == RECORDED
