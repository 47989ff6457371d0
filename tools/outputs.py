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
answered every op with the same exit code, report and diagnostics.  Standard
library only.
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
    for workload in corpus.WORKLOADS:
        print(workload, *(fingerprint(workload, seed) for seed in SEEDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
