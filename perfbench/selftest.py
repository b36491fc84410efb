"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few minutes.  For every workload it
makes a one-pass run untraced and traced and requires: exit code 0, a last
line with exactly the result keys, no failed op, exactly the metric names
and units that BENCHMARK.json declares for the mode, and the same op list
and outputs in both runs.  It also checks that op lists depend on the seed
only through their seeded parts, and that the benchmark exits non-zero
without a result in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import workloads as wl  # noqa: E402

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(cond: bool, msg: str) -> None:
    if not cond:
        failures.append(msg)
        print(f"FAIL {msg}", flush=True)


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([*BENCH["command"], "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def comment(lines, prefix):
    return next((ln.split()[-1] for ln in lines if ln.startswith(prefix)), None)


def check_workload(workload: str) -> None:
    seen = {}
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        code, lines, err = run(workload, trace)
        tag = f"{workload} --trace {trace}"
        expect(code == 0, f"{tag}: exit code {code}: {err[-500:]}")
        if code != 0 or not lines:
            return
        res = json.loads(lines[-1])
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"{tag}: result keys {sorted(res)}")
        expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
               f"{tag}: correct={res['correct']} failed={res['failed']}")
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == want, f"{tag}: metric names/units differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}")
        seen[trace] = (comment(lines, "# workload"), comment(lines, "# outputs"))
        print(f"ok   {tag}: {res['attempted']} ops", flush=True)
    if len(seen) == 2:
        expect(seen[0][0] == seen[1][0], f"{workload}: op list differs traced/untraced")
        expect(seen[0][1] == seen[1][1], f"{workload}: outputs differ traced/untraced")


def check_op_lists() -> None:
    for w in wl.WORKLOADS:
        a = [op for p in wl.make_ops(w, 1, 20) for op in p]
        b = [op for p in wl.make_ops(w, 1, 20) for op in p]
        c = [op for p in wl.make_ops(w, 2, 20) for op in p]
        expect(wl.digest(a) == wl.digest(b), f"{w}: op list not deterministic")
        expect(wl.digest(a) != wl.digest(c), f"{w}: op list ignores the seed")
    for w in ("kernel-rational", "kernel-q", "kernel-real"):
        n = len([op for p in wl.make_ops(w, 1, BENCH["run_seconds"]) for op in p])
        expect(n * 0.1 >= 10, f"{w}: {n} ops leave fewer than ten beyond p90")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines, _ = run(wl.WORKLOADS[0], 0, cwd=bare)
        expect(code != 0, "bare directory: exit code 0")
        expect(not any(ln.startswith("{") for ln in lines),
               "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory fails cleanly", flush=True)


def main() -> None:
    check_op_lists()
    check_bare_directory()
    for w in wl.WORKLOADS:
        check_workload(w)
    if failures:
        print(f"{len(failures)} self-test failure(s)")
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
