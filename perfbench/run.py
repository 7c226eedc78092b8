"""Benchmark of jcham's verdict paths.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: jcham is imported from ``src/``.
One process, one thread.  After set-up, one warm-up pass over the
workload's inputs is made and its outputs are checked; then whole passes
repeat until ``--seconds`` have gone by.  Set-up, pass and operation
times are reported in reference seconds (``hostspeed.py``), which the
host's speed phases do not move; only the interpreter's own start, before
this file runs, is in wall seconds.  With ``--trace 0`` the last line of stdout is the
end-to-end result; with ``--trace 1`` passes alternate between untraced
and traced ones and the result holds the per-module metrics of the traced
passes and the tracing overhead.  The full record, per-pass times included,
is also written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.  Without
``src/jcham`` next to this directory the benchmark exits with code 2.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402


def _process_age() -> float:
    """Seconds from this process's start to now, read from /proc (in clock
    ticks, so to about 10 ms); 0.0 where that is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


STARTUP_S = _process_age()

import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from hostspeed import HostClock  # noqa: E402

# From here on, set-up is timed in reference seconds, like the passes.
CLOCK = HostClock()
CLOCK.start()
CLOCK.sample()
T1 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

SOUP_SAMPLE = 24
WALK_STEPS = 12


def run_pass(ops, clock):
    """One pass: every operation once, in order.  Returns the pass's wall
    time and reference time, each operation's output and reference time,
    and the operations that raised."""
    outputs, spans, failures = {}, {}, []
    start = perf_counter()
    for label, fn in ops:
        clock.sample()
        t = perf_counter()
        try:
            outputs[label] = fn()
        except Exception:
            failures.append((label, traceback.format_exc()))
        spans[label] = (t, perf_counter())
    wall = perf_counter() - start
    clock.sample()
    times = {label: clock.ref_seconds(a, b) for label, (a, b) in spans.items()}
    return wall, sum(times.values()), outputs, times, failures


def soup_sample(starts, rng, size):
    """Configurations met on seeded random walks from ``starts``."""
    from jcham.engine import enabled_redexes, reduce

    pool = []
    for cur in starts:
        pool.append(cur)
        for _ in range(WALK_STEPS):
            redexes = enabled_redexes(cur)
            if not redexes:
                break
            cur = reduce(cur, rng.choice(redexes))
            pool.append(cur)
    return rng.sample(pool, min(size, len(pool)))


def invariance_errors(soups, rng):
    from jcham.canon import canonicalize
    from oracles import congruent_copy

    errors = []
    for i, soup in enumerate(soups):
        copy = congruent_copy(soup, rng)
        if canonicalize(copy).digest != canonicalize(soup).digest:
            errors.append(f"soup sample {i}: digest changed under renaming and reordering")
    return errors


def measure(args, workdir, clock):
    import workloads
    from tracer import METRICS, Tracer

    wl = workloads.build(args.workload, args.seed, workdir)
    ready = perf_counter()
    clock.sample()
    setup_s = STARTUP_S + (T1 - T0) + clock.ref_seconds(T1, ready)

    errors = []
    try:
        _, _, reference, _, failures = run_pass(wl.ops, clock)
        attempted, failed = len(wl.ops), len(failures)
        tracer = Tracer() if args.trace else None
        walls = {False: [], True: []}  # traced? -> pass wall times
        refs = {False: [], True: []}  # traced? -> pass reference times
        largest = []
        layers = []
        begin = perf_counter()
        k = 0
        while True:
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                wall, ref, outputs, times, fails = run_pass(wl.ops, clock)
            finally:
                if traced:
                    tracer.uninstall()
            k += 1
            attempted += len(wl.ops)
            failed += len(fails)
            failures += fails
            walls[traced].append(wall)
            refs[traced].append(ref)
            if traced:
                # the wrappers time in wall seconds; the pass's own ratio turns them into reference seconds
                scale = ref / wall
                layers.append({name: value * scale if METRICS[name][0] in ("s", "us") else value
                               for name, value in tracer.metrics().items()})
            else:
                largest.append(times[wl.largest])
            for label, out in outputs.items():
                if label in reference and wl.signature(out) != wl.signature(reference[label]):
                    errors.append(f"{label}: output differs from the warm-up pass")
            if perf_counter() - begin >= args.seconds and (tracer is None or k >= 2):
                break
    finally:
        clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for label, tb in failures:
        print(f"operation {label} raised:\n{tb}", file=sys.stderr)
    if failures:
        errors.append("outputs left unchecked because operations raised")
    else:
        errors += wl.check(reference)
    rng = random.Random(args.seed)
    errors += invariance_errors(soup_sample(wl.soup_starts(), rng, SOUP_SAMPLE), rng)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(refs[False]), "s"),
            "largest_case_s": (statistics.median(largest), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: (statistics.median(m[name] for m in layers), METRICS[name][0]) for name in METRICS}
        traced_s, untraced_s = statistics.median(refs[True]), statistics.median(refs[False])
        metrics["trace.traced_pass_s"] = (traced_s, "s")
        metrics["trace.untraced_pass_s"] = (untraced_s, "s")
        metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
        metrics["host.ref_loop_us"] = (clock.median_loop_s() * 1e6, "us")
        if args.workload in ("corpus", "viral_scaling"):
            for m in layers:
                if m["canon.calls"] < m["detector.states"] + m["detector.dedup_hits"]:
                    errors.append(
                        f"canon.calls {m['canon.calls']:.0f} < detector.states {m['detector.states']:.0f}"
                        f" + detector.dedup_hits {m['detector.dedup_hits']:.0f}"
                    )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, errors=errors, checks=wl.notes, passes={"untraced": refs[False], "traced": refs[True]},
                  wall_passes={"untraced": walls[False], "traced": walls[True]},
                  largest_case=wl.largest, largest_case_times=largest, ref_loop_us=clock.median_loop_s() * 1e6)
    return result, record


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        CLOCK.stop()


def _main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "viral_scaling", "petri"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jcham", "__init__.py")):
        print(f"perfbench: no jcham sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workroot = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=workroot)
    try:
        result, record = measure(args, workdir, CLOCK)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass  # another run still uses it

    for error in record["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if record["checks"]:
        print("checks covered: " + ", ".join(f"{k}={v}" for k, v in record["checks"].items()), file=sys.stderr)
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
