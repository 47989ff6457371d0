"""Output fingerprints of the benchmark workloads, for checking that a change
leaves every answer byte-identical.

Usage, from the repository root:

    python3 tools/outputs.py

For each workload of ``bench/corpus.py`` and each of the seeds 1, 2 and 101,
the corpus is written into a fresh temporary directory and every op runs
once in-process through ``dakc.cli.main``.  One sha256 runs over the ops in
corpus order, each fed as ``repr((ident, exit, stdout, stderr))`` with the
temporary directory's path replaced by ``W``.  One line per workload prints
the first 16 hex digits of each seed's digest.  Two trees whose lines agree
answered every op with the same exit code, report and diagnostics.

``RECORDED`` holds the digests this tree is expected to print, which
``tests/test_outputs.py`` checks for seed 1.  The tool exits 1, naming each
digest that differs, unless all of them match.  A change that means to alter
an answer or a message updates the table and says why.  Standard library
only.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 101)
# per workload, the digest of each seed in SEEDS
RECORDED = {
    "oracle-corpus": ("771dac4b19aab5ff", "91fe392da9f995a4", "24e1b8b5cb52c0a0"),
    "bounded-regimes": ("ba2e4dcfeb18cc9f", "6bf034ac0fac1fd7", "af1c65a42b7c30c7"),
    "k1-setcover": ("c63d8d391262c8e9", "e3fdca0424c83041", "ecbcdb7bbc0b0ead"),
}


# the corpus is read from the source tree, which gets no bytecode files
sys.dont_write_bytecode = True
for path in (ROOT / "src", ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import corpus  # noqa: E402
from dakc import cli  # noqa: E402


def fingerprint(workload: str, seed: int) -> str:
    """The first 16 hex digits of the digest of ``workload`` on ``seed``."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        ops = corpus.WORKLOADS[workload](random.Random(seed), Path(tmp))
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(op.argv))
            record = repr((op.ident, code, out.getvalue(), err.getvalue()))
            digest.update(record.replace(tmp, "W").encode())
    return digest.hexdigest()[:16]


def main() -> int:
    differ = 0
    for workload in corpus.WORKLOADS:
        digests = [fingerprint(workload, seed) for seed in SEEDS]
        print(workload, *digests)
        for seed, got, want in zip(SEEDS, digests, RECORDED[workload]):
            if got != want:
                differ += 1
                print(f"{workload} seed {seed}: {got}, recorded {want}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
