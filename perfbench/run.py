"""Benchmark of the schurkernels CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload kernel-rational --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One single-threaded closed-loop client drives the CLI's own parse -> compute
-> serialize path in process (click's CliRunner), one op in flight at a
time.  Set-up is timed in fresh interpreters; the op list is generated from
the seed; every output is checked after the timed region.  `--trace 0`
reports the end-to-end metrics; `--trace 1` runs the same op list once more
with per-layer spans installed (see spans.py) and reports the per-layer
metrics.  The last line of stdout is the JSON result; earlier lines give
each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_RUNS = 9
SETUP_TICKS = 3  # probes between two set-up runs
WARMUP_ARGV = ["schur-avg", "--ensemble", "gue", "--m", "2", "--partition", "2"]
TRACE_DIR = ".perfbench"
PROBE_PERIOD_S = 0.1
PROBE_WINDOW_S = 0.3
# Mean duration of one probe on the 2-vCPU machine the baseline was taken
# on; reported times are scaled to a machine running the probe this fast.
PROBE_REF_S = 0.0012


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _source_root() -> Path:
    """The checkout's src/ directory; the benchmark builds nothing else."""
    src = Path.cwd() / "src"
    if not (src / "schurkernels" / "cli.py").is_file():
        _fail(f"no schurkernels sources under {src}; run from a checkout root")
    return src


# A fixed 8x8 rational matrix for the speed probe.
_PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1)
                  for j in range(8)] for i in range(8)]


def _probe_work() -> None:
    """Fixed work for the speed probe: a fraction-free (Bareiss) elimination
    of _PROBE_MATRIX, about 1.2 ms, written here so that no change to
    schurkernels can change the probe."""
    n = len(_PROBE_MATRIX)
    m = [row[:] for row in _PROBE_MATRIX]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]


class SpeedProbe:
    """Samples the machine's speed while the benchmark runs.

    The host's speed drifts by tens of percent over seconds (shared cores),
    which no affordable run length averages away.  A probe times a fixed
    pure-Python Fraction elimination (_probe_work, no schurkernels code):
    every PROBE_PERIOD_S from a SIGALRM handler inside the `with` block, and
    by explicit tick() calls elsewhere.  An interval's time is its wall time
    minus the time spent in probes, scaled by PROBE_REF_S over the mean probe
    time within PROBE_WINDOW_S of the interval: the seconds it would take on
    a machine running the probe at the reference speed.  Raw seconds are
    printed alongside.
    """

    def __init__(self):
        self.times: list[float] = []
        self.log: list[float] = []
        self.spent = 0.0
        _probe_work()  # the first call pays one-time allocation costs

    def tick(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t0)
        self.log.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.tick()

    def mark(self):
        return time.perf_counter(), self.spent

    def raw(self, m0, m1) -> float:
        """Seconds between two marks, probes excluded."""
        return (m1[0] - m0[0]) - (m1[1] - m0[1])

    def scaled(self, m0, m1) -> float:
        """raw(), scaled to the reference speed (read after the last tick)."""
        lo = bisect.bisect_left(self.times, m0[0] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, m1[0] + PROBE_WINDOW_S)
        around = self.log[lo:hi] or self.log
        return self.raw(m0, m1) * PROBE_REF_S / statistics.fmean(around)


def measure_setup(src: Path, probe: SpeedProbe):
    """Marks around each of SETUP_RUNS fresh-interpreter runs of the lightest
    CLI call: interpreter start, `import schurkernels.cli`, the warm-up op.
    Probes run between the calls, never beside one."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("SCHURKERNELS_PRECISION", None)
    marks = []
    for _ in range(SETUP_RUNS):
        for _ in range(SETUP_TICKS):
            probe.tick()
        m0 = probe.mark()
        proc = subprocess.run([sys.executable, "-m", "schurkernels.cli", *WARMUP_ARGV],
                              env=env, capture_output=True, text=True, timeout=120)
        marks.append((m0, probe.mark()))
        if proc.returncode != 0:
            _fail(f"set-up call failed: {proc.stderr.strip()[-400:]}")
    for _ in range(SETUP_TICKS):
        probe.tick()
    return marks


class Client:
    """Closed-loop in-process CLI client."""

    def __init__(self):
        from click.testing import CliRunner
        from schurkernels import cli
        self.cli = cli
        self.runner = CliRunner()

    def invoke(self, argv):
        res = self.runner.invoke(self.cli.main, list(argv), catch_exceptions=True)
        return res.exit_code, res.stdout

    def run(self, passes, probe=None, tracer=None):
        """Run every pass; returns (per-op (code, stdout), per-op mark pairs,
        per-pass mark pairs).  Without a probe, marks are plain clock reads."""
        mark = probe.mark if probe else time.perf_counter
        results, op_marks, pass_marks = [], [], []
        for ops in passes:
            p0 = mark()
            for op in ops:
                m0 = mark()
                if tracer is None:
                    r = self.invoke(op.argv)
                else:
                    r = tracer.run_span(f"op.{op.kind}", self.invoke, (op.argv,))
                op_marks.append((m0, mark()))
                results.append(r)
            pass_marks.append((p0, mark()))
        return results, op_marks, pass_marks


def _m(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    src = _source_root()
    os.environ.pop("SCHURKERNELS_PRECISION", None)
    sys.path.insert(0, str(src))
    passes = wl.make_ops(workload, seed, seconds)
    flat = [op for ops in passes for op in ops]
    print(f"# workload {workload} seed {seed}: {len(passes)} pass(es), "
          f"{len(flat)} ops, op-list sha256 {wl.digest(flat)}")

    probe = SpeedProbe()
    setup_marks = measure_setup(src, probe)
    with probe:
        client = Client()
        if client.invoke(WARMUP_ARGV)[0] != 0:
            _fail("warm-up op failed")
        results, op_marks, pass_marks = client.run(passes, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# outputs sha256 {wl.output_digest(results)}")

    metrics = {}
    if trace:
        from spans import Tracer
        from schurkernels.verify import SUITES
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, tpass = client.run(passes, tracer=tracer)
        finally:
            tracer.restore()
        for i, (a, b) in enumerate(zip(results, traced)):
            if a != b:
                results[i] = (1, "traced output differs from untraced output")
        metrics = tracer.metrics(list(SUITES), sum(b - a for a, b in tpass),
                                 sum(probe.raw(a, b) for a, b in pass_marks))
        out_dir = Path.cwd() / TRACE_DIR
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.txt")

    verdict = wl.check(workload, flat, results)
    failed = sum(1 for ok, _ in verdict if not ok)
    if not trace:
        for label, timer in (("raw", probe.raw), ("scaled", probe.scaled)):
            setup = [timer(a, b) for a, b in setup_marks]
            lat = [timer(a, b) for a, b in op_marks]
            walls = [timer(a, b) for a, b in pass_marks]
            q = (statistics.quantiles(lat, n=10, method="inclusive")
                 if len(lat) > 1 else [lat[0]] * 9)
            metrics = {
                "setup_s": _m(statistics.median(setup), "s"),
                "wall_s": _m(statistics.median(walls), "s"),
                "ops_per_s": _m(len(flat) / sum(walls), "1/s"),
                "op_p50_ms": _m(statistics.median(lat) * 1e3, "ms"),
                "op_p90_ms": _m(q[8] * 1e3, "ms"),
            }
            if label == "raw":
                print("# raw (unscaled): " + ", ".join(
                    f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()))
        print(f"# speed probe: {len(probe.log)} samples, median "
              f"{statistics.median(probe.log) * 1e3:.4g} ms (reference "
              f"{PROBE_REF_S * 1e3:.4g} ms)")
        metrics["peak_rss_mb"] = _m(peak_rss_mb, "MB")
        metrics["real_digits_min"] = _m(min(d for _, d in verdict), "digits")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_ratio = {failed}/{len(flat)} = {failed / len(flat):.6g}")
    return {"correct": failed == 0, "attempted": len(flat), "failed": failed,
            "metrics": metrics}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return
    # every workload, each in its own interpreter so no cache is shared
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in wl.WORKLOADS:
        print(f"## {w}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            sys.exit(proc.returncode or 1)
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
