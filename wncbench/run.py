"""Benchmark of the `wnc` pipeline, driven from outside the package.

    python3 wncbench/run.py --workload dense|sparse|census|probes|all
                            [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: `wnc` is imported from `src/` there.
The seed draws one pass of `wnc` command lines from the workload's pool
(see pool.py). Each command runs in a fresh child process under its own
deadline and address-space limit, one at a time, and its output goes
through the correctness gate (gate.py).

--trace 0 repeats the pass for --seconds and reports the end-to-end
metrics: pass_s (the sum over the operations of each one's median time,
measured in the child after `import wnc`; an overrun is charged its
deadline), rings_per_s (rings completed per second of pass_s), peak_rss_mb
(the highest median ru_maxrss of an operation that finished), ok_ratio
(operations that passed the gate, over those attempted) and setup_s (the
median time for a fresh child to start the interpreter and `import wnc`).

Measured times are scaled to a fixed reference speed. Right before and
right after each operation (and each batch of set-up samples) the parent
times a fixed pure-Python loop that does not touch `wnc`, and the
operation's time is multiplied by REFERENCE_S over the mean of the two.
The CPU speed of a shared machine drifts by a fifth or more within a
minute, and it drifts alike for the loop and for `wnc`; the scaling takes
most of that drift out. Charged deadlines are not scaled. The unscaled
figures are printed too.

--trace 1 makes one ring-operation counting pass, then repeats an
untraced pass and a traced pass (spans.py) for --seconds, and reports the
per-layer metrics as medians over the traced passes. Their times are
unscaled, so that self times plus trace.untraced_s add up to the traced
pass; trace.overhead_s, the traced pass_s minus the untraced one, is
scaled.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import gate
import pool
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_SAMPLES_PER_PASS = 5
# The reference loop: about REFERENCE_S seconds on the machine the pools
# were chosen on (2 vCPU, Python 3.11).
REFERENCE_LOOPS = 120_000
REFERENCE_S = 0.05
# Beyond its own deadline a child gets this long for start-up and for the
# alarm to fire before the parent kills it.
KILL_GRACE_S = 5.0
SETUP_LIMIT_S = 60.0

END_TO_END = [("pass_s", "s"), ("rings_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("ok_ratio", "ratio"), ("setup_s", "s")]
TRACE_ONLY = [("trace.untraced_s", "s"), ("trace.overhead_s", "s")]


@dataclass
class OpResult:
    op: pool.Op
    mode: str               # how the child ran: "plain", "spans" or "count"
    verdict: str            # "ok", "charted" or "failed" (see gate.check)
    reason: str
    op_s: float             # measured, or the deadline charged when the
                            # child overran or left no result
    charged: bool
    scale: float            # REFERENCE_S over the reference loop around it
    rss_mb: float | None    # None unless the child finished
    trace: dict | None
    ring_ops: dict


class Runner:
    """Runs operations in child processes inside one scratch directory."""

    def __init__(self, workdir: str, expected: dict):
        self.workdir = workdir
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

    def setup_samples(self, count: int) -> tuple[list[float], float]:
        """Times to start the interpreter and import wnc, each in a fresh
        child, and the speed scale around them."""
        before = reference_loop()
        samples = []
        for _ in range(count):
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", "import wnc"],
                                    env=self.env, cwd=ROOT)
            returncode, _ = _wait(proc, SETUP_LIMIT_S)
            samples.append(time.perf_counter() - started)
            if returncode != 0:
                raise RuntimeError(f"`import wnc` failed with exit {returncode}")
        return samples, _scale(before, reference_loop())

    def run_pass(self, ops: list[pool.Op], mode: str) -> list[OpResult]:
        return [self.run_op(op, mode) for op in ops]

    def run_op(self, op: pool.Op, mode: str) -> OpResult:
        before = reference_loop()
        outcome, result, rusage = self.execute(op, mode)
        scale = _scale(before, reference_loop())
        verdict, reason = gate.check(op, outcome, self.expected)
        charged = result is None or outcome.status == "overrun"
        return OpResult(
            op, mode, verdict, reason,
            op.deadline_s if charged else result["op_s"], charged, scale,
            rusage.ru_maxrss / 1024 if outcome.status == "done" else None,
            result and result["trace"], result["ops"] if result else {})

    def execute(self, op: pool.Op, mode: str):
        """Run one operation; (gate.Outcome, the child's result or None,
        the child's rusage)."""
        out_path, err_path, result_path = (
            os.path.join(self.workdir, name) for name in ("out", "err", "result"))
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = [sys.executable, CHILD, result_path, repr(op.deadline_s),
               str(op.mem_bytes), mode, "--", *op.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
        returncode, rusage = _wait(proc, op.deadline_s + KILL_GRACE_S)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except FileNotFoundError:
            result = None
        if result is not None:
            status, exit_code = result["status"], result["exit"]
        elif returncode in (-signal.SIGKILL, -signal.SIGXCPU):
            status, exit_code = "overrun", None
        else:
            status, exit_code = "crash", returncode
        return gate.Outcome(status, exit_code, stdout, stderr), result, rusage


def reference_loop() -> float:
    """Time the fixed loop: small-integer arithmetic, big-integer bit
    operations and list appends, like the work of `wnc`."""
    started = time.perf_counter()
    acc, mask, items = 0, 0, []
    for i in range(REFERENCE_LOOPS):
        acc = (acc + i * i) % 1_000_003
        mask |= 1 << (i & 4095)
        if not i & 63:
            items.append(mask.bit_count())
    return time.perf_counter() - started


def _scale(before_s: float, after_s: float) -> float:
    return 2 * REFERENCE_S / (before_s + after_s)


def _wait(proc: subprocess.Popen, limit_s: float):
    """Wait for the child, killing it after limit_s; (returncode, rusage).

    The child is waited for without reaping first, so the kill can never
    reach a recycled pid; it is then reaped with its own resource usage.
    """
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(limit_s, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited = True
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def end_to_end(passes: list[list[OpResult]], scaled=True) -> dict[str, float]:
    """End-to-end metrics of repeated passes over the same operations.

    Each operation's time and peak memory is its median over the passes,
    so one disturbed pass moves no metric; pass_s is the sum of those
    medians.
    """
    by_op = list(zip(*passes))
    pass_s = sum(statistics.median(r.op_s if r.charged or not scaled
                                   else r.op_s * r.scale for r in runs)
                 for runs in by_op)
    ok_rings = sum(r.op.rings for p in passes for r in p if r.verdict == "ok")
    finished = [[r.rss_mb for r in runs if r.rss_mb is not None] for runs in by_op]
    results = [r for p in passes for r in p]
    return {
        "pass_s": pass_s,
        "rings_per_s": ok_rings / len(passes) / pass_s,
        "peak_rss_mb": max((statistics.median(m) for m in finished if m),
                           default=0.0),
        "ok_ratio": sum(r.verdict == "ok" for r in results) / len(results),
    }


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def _repeat(seconds: float, step) -> list:
    """Call step() at least once, and again while the next call is
    expected to end within `seconds` of the first."""
    started = time.perf_counter()
    done = [step()]
    while True:
        elapsed = time.perf_counter() - started
        if elapsed * (len(done) + 1) / len(done) > seconds:
            return done
        done.append(step())


def timed_run(runner: Runner, ops, seconds: float):
    runner.setup_samples(1)  # fills the file cache and wnc's bytecode cache
    setup, passes = [], []

    def step():
        samples, scale = runner.setup_samples(SETUP_SAMPLES_PER_PASS)
        setup.extend((t, scale) for t in samples)
        passes.append(runner.run_pass(ops, "plain"))

    _repeat(seconds, step)
    values = end_to_end(passes)
    values["setup_s"] = statistics.median(t * scale for t, scale in setup)
    scales = [r.scale for p in passes for r in p]
    print(f"  unscaled: pass_s {end_to_end(passes, scaled=False)['pass_s']:.6f} s, "
          f"setup_s {statistics.median(t for t, _ in setup):.6f} s; "
          f"speed scale {min(scales):.3f}..{max(scales):.3f}")
    return passes, values, END_TO_END


def traced_run(runner: Runner, ops, seconds: float):
    counted = runner.run_pass(ops, "count")
    ring_ops: dict[str, int] = {}
    for r in counted:
        for name, n in r.ring_ops.items():
            ring_ops[name] = ring_ops.get(name, 0) + n
    passes = [counted]

    def step():
        plain = runner.run_pass(ops, "plain")
        traced = runner.run_pass(ops, "spans")
        passes.extend([plain, traced])
        summaries = [r.trace for r in traced if r.trace]
        row = spans.layer_values(summaries, ring_ops)
        row["trace.untraced_s"] = (sum(r.op_s for r in traced)
                                   - sum(s["root_s"] for s in summaries))
        row["trace.overhead_s"] = (end_to_end([traced])["pass_s"]
                                   - end_to_end([plain])["pass_s"])
        return row

    values = _medians(_repeat(seconds, step))
    units = [(name, unit) for name, unit, _, _ in spans.LAYER_METRICS] + TRACE_ONLY
    return passes, values, units


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(runner: Runner, workload: str, seed: int, seconds: float,
                 trace: bool):
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"commit {_commit()}  python {sys.version.split()[0]}  "
          f"nproc {len(os.sched_getaffinity(0))}")
    ops = pool.draw(workload, seed)
    run = traced_run if trace else timed_run
    passes, values, units = run(runner, ops, seconds)
    results = [r for p in passes for r in p]
    failed = [r for r in results if r.verdict == "failed"]
    charted = [r for r in results if r.verdict == "charted"]

    plain = [p for p in passes if p[0].mode == "plain"]
    print(f"  {len(plain)} untraced passes took " + "  ".join(
        f"{sum(r.op_s for r in p):.3f}" for p in plain) + " s unscaled")
    for i, op in enumerate(ops):
        took = statistics.median(p[i].op_s for p in plain)
        print(f"  op {took:9.3f} s unscaled  wnc {op.key}")
    moves = {name: m for name, _, _, m in spans.LAYER_METRICS}
    for name, unit in units:
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"  {name:30s} {values[name]:16.6f} {unit}{note}")
    print(f"  {'fail_ratio':30s} {(len(failed) + len(charted)) / len(results):16.6f} "
          f"ratio  ({len(charted)} overruns of charted hangs, "
          f"{len(failed)} failures)")
    tally: dict[tuple, int] = {}
    for r in charted + failed:
        key = (r.verdict, r.op.key, r.reason)
        tally[key] = tally.get(key, 0) + 1
    for (verdict, key, reason), times in tally.items():
        print(f"  {verdict} x{times}: wnc {key}: {reason}")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*pool.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wnc", "__init__.py")):
        print(f"error: no wnc sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)

    workloads = list(pool.WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix=".wncbench-", dir=ROOT) as workdir:
        runner = Runner(workdir, expected)
        docs = {w: run_workload(runner, w, args.seed, args.seconds, bool(args.trace))
                for w in workloads}
    if len(docs) == 1:
        doc = docs[args.workload]
    else:
        doc = {"correct": all(d["correct"] for d in docs.values()),
               "attempted": sum(d["attempted"] for d in docs.values()),
               "failed": sum(d["failed"] for d in docs.values()),
               "metrics": {f"{w}.{name}": m for w, d in docs.items()
                           for name, m in d["metrics"].items()}}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
