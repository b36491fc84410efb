"""Record the output digests of kernel-q's seed-independent ops.

    python3 perfbench/record_expected.py

Run from the root of a checkout.  It writes perfbench/expected.json, which
the kernel-q check compares every `schur-avg` and `kernel expand` output
against.  Re-record only when an output format is meant to change.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

import workloads as wl  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from schurkernels.cli import main  # noqa: E402

runner = CliRunner()
expected = {}
for op in wl.q_fixed_ops():
    res = runner.invoke(main, list(op.argv))
    if res.exit_code != 0:
        sys.exit(f"{' '.join(op.argv)} failed: {res.output}")
    expected[" ".join(op.argv)] = hashlib.sha256(res.stdout.encode()).hexdigest()
wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
print(f"recorded {len(expected)} digests in {wl.EXPECTED_PATH}")
