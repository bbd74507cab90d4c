"""riskspan benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload body_lp --seed 1 --seconds 10 --trace 0

Single process, single thread, closed loop with one caller: the next op
starts when the previous one returns.  A run is whole rounds of seeded op
slots; round r's inputs come from (workload, seed, r), are built between
rounds outside the timed region, and are checked against independent
computations after the round.

Times are reported at reference host speed.  On shared 2-vCPU Xeon hosts
every process runs at 1x to about 2x slowdown in phases lasting from
seconds to about a minute, so whole runs land in one phase or another.  A
fixed calibration kernel (exact elimination in the benchmark's own code)
runs between ops, and each time is scaled by CALIBRATION_REFERENCE_S over
the kernel time measured around it.  The timed pass ends at the first round
boundary after ``--seconds`` of scaled op time, or after ``BUSY_CAP`` times
that in raw op time.  With ``--trace 1`` the run wraps riskspan's layers
(tracing.py) and reports per-layer metrics instead.  See README.md.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15
BUSY_CAP = 3.5
# Kernel time at full host speed (Intel Xeon vCPU, Python 3.11).
CALIBRATION_REFERENCE_S = 0.0008
WORKLOAD_NAMES = ("body_lp", "market_tree", "risk_desk", "cli_batch")


def _calibration_matrix() -> list:
    rng = random.Random(0)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)] for _ in range(7)]


def _rank(rows: list) -> int:
    """Exact rank by elimination: the calibration kernel.

    Kept apart from riskspan and from oracle.py, so that no change to the
    program or to the checks can move the reference it is scaled against.
    """
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][col] != 0:
                factor = work[i][col] / work[rank][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


CALIBRATION_MATRIX = _calibration_matrix()


def calibrate() -> float:
    """Seconds for a fixed pair of exact eliminations on a 7x7 rational matrix."""
    t = time.perf_counter()
    _rank(CALIBRATION_MATRIX)
    _rank(CALIBRATION_MATRIX)
    return time.perf_counter() - t


def at_reference(seconds: float, before: float, after: float) -> float:
    """Scale a time to reference host speed by the kernel times around it."""
    return seconds * 2 * CALIBRATION_REFERENCE_S / (before + after)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import riskspan from this checkout's src/, never from elsewhere.

    The import is timed in SETUP_REPEATS fresh interpreters, from process
    start to exit, so that interpreter start-up and every module riskspan
    pulls in are paid each time; the median at reference speed is returned.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "riskspan", "__init__.py")):
        raise SystemExit(f"perfbench: no riskspan sources under {src}")
    child = [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); import riskspan.cli"]
    seconds = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t = time.perf_counter()
        subprocess.run(child, cwd=ROOT, check=True)
        seconds.append(at_reference(time.perf_counter() - t, before, calibrate()))
    sys.path[:0] = [src, HERE]
    import riskspan
    import riskspan.cli  # noqa: F401  (the CLI layer is part of set-up)

    if os.path.dirname(os.path.dirname(os.path.abspath(riskspan.__file__))) != src:
        raise SystemExit(f"perfbench: riskspan imported from {riskspan.__file__}, not {src}")
    return riskspan, statistics.median(seconds)


class LPCounter:
    """A record_outcomes sink that counts instead of keeping the pairs."""

    def __init__(self) -> None:
        self.solved = 0

    def append(self, _pair) -> None:
        self.solved += 1


def tail(latencies_ms):
    """The highest percentile with at least ten ops beyond it, and its level."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n


def round_rng(name: str, seed: int, label) -> random.Random:
    return random.Random(f"{name}/{seed}/{label}")


def main(argv=None) -> int:
    args = parse_args(argv)
    riskspan, import_s = import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return run(args, riskspan, import_s, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, riskspan, import_s, wl, work) -> int:
    builds = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t = time.perf_counter()
        insts = wl.build(round_rng(wl.name, args.seed, 0), round_dir(work, 0))
        builds.append(at_reference(time.perf_counter() - t, before, calibrate()))
    setup_s = import_s + statistics.median(builds)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # Warm-up on other instances: the program's caches are keyed by value, so
    # no timed op is served from them, and each timed op finds the interpreter
    # and allocator already warm.
    for inst in wl.build(round_rng(wl.name, args.seed, "warmup"), round_dir(work, "warmup")):
        wl.op(inst)
    origin_ns = time.perf_counter_ns()

    counter = tracer if tracer is not None else LPCounter()
    raw_ms = []
    scaled_ms = []
    attempted = failed = 0
    busy = 0.0
    r = 0
    while True:
        outputs = []
        before = calibrate()
        for inst in insts:
            if tracer is not None:
                tracer.begin_op(attempted + len(outputs))
            with riskspan.record_outcomes(counter):
                t = time.perf_counter()
                try:
                    result = wl.op(inst)
                except Exception:  # the op fails; the run goes on
                    result = traceback.format_exc()
                elapsed = time.perf_counter() - t
            if tracer is not None:
                tracer.end_op()
            after = calibrate()
            busy += elapsed
            raw_ms.append(elapsed * 1000.0)
            scaled_ms.append(1000.0 * at_reference(elapsed, before, after))
            before = after
            outputs.append(result)
        for inst, result in zip(insts, outputs):
            problems = [result] if isinstance(result, str) else safe_check(wl, inst, result)
            if problems:
                failed += 1
                print(f"op {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            attempted += 1
        shutil.rmtree(round_dir(work, r), ignore_errors=True)
        if sum(scaled_ms) >= 1000.0 * args.seconds or busy >= BUSY_CAP * args.seconds:
            break
        r += 1
        insts = wl.build(round_rng(wl.name, args.seed, r), round_dir(work, r))

    p50 = statistics.median(scaled_ms)
    print(f"{attempted} ops in {r + 1} rounds, {busy:.2f} s raw op time;"
          f" raw op p50 {statistics.median(raw_ms):.2f} ms,"
          f" median host slowdown {statistics.median(s / x for s, x in zip(raw_ms, scaled_ms)):.3f}")
    if tracer is not None:
        fired = tracer.fired()
        missing = [name for name in tracing.EXPECTED[wl.name] if name not in fired]
        if missing:
            raise SystemExit(f"perfbench: wrappers never fired on {wl.name}: {missing}")
        metrics = tracer.metrics(attempted, p50, sum(scaled_ms) / sum(raw_ms))
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"trace-{wl.name}-{args.seed}.tsv")
        tracer.write(spans, origin_ns)
        print(f"spans: {len(tracer.name)} written to {os.path.relpath(spans, ROOT)}")
    else:
        tail_ms, level = tail(scaled_ms)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / (sum(scaled_ms) / 1000.0), "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "lps_per_op": (counter.solved / attempted, "count"),
            "peak_rss_mb": (peak_mib, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        print(f"op_tail_ms is p{level:.1f} of {attempted} ops")
    print(f"workload {wl.name} seed {args.seed}: {attempted} ops attempted, {failed} failed")
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def round_dir(work: str, label) -> str:
    path = os.path.join(work, f"round-{label}")
    os.makedirs(path, exist_ok=True)
    return path


def safe_check(wl, inst, result) -> list:
    try:
        return wl.check(inst, result)
    except Exception:  # a check that raises counts the op as failed
        return [traceback.format_exc()]


if __name__ == "__main__":
    sys.exit(main())
