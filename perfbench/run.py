"""Pipeline benchmark for parkrank: train, eval and recommend workloads.

Usage:
    python3 perfbench/run.py --workload {c8-train,c8-eval,city120-recommend}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; parkrank is imported from the ``src/`` next to this
directory. ``--trace 0`` sets the workload up five times, then runs its
operation in a closed loop for S seconds (longer where the workload needs a
full pass), checks every output, and prints each end-to-end metric.
``--trace 1`` wraps parkrank's public functions from outside, runs each
operation twice in a row for S seconds, untraced then traced, and prints
the per-layer metrics of the traced ones, each next to the end-to-end
metric it should move, plus the tracing overhead. ``--smoke`` swaps every
workload's data for the criterion-9 shape (9 meters x 150 intervals). The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import bootstrap  # pins BLAS threads; must precede numpy

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import metrics
import reference
import tracer as tracing

SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


class Run:
    """Counts attempts and failures; prints failures as they happen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for line in failures:
                print(f"FAILED: {line}", file=sys.stderr)


def set_up(wl, run):
    """SETUP_REPEATS set-ups; the (start, end) of each and the last state."""
    spans, state = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup()
        spans.append((t0, time.perf_counter()))
        run.record(wl.setup_failures(state))
    return spans, state


def timed_op(wl, state, i, run, tracer=None):
    """Run and check operation i; (start, end, units), or None if it raised.
    With a tracer, the spans are installed around the operation only."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        units, result = wl.op(state, i)
        t1 = time.perf_counter()
    except Exception:
        traceback.print_exc()
        run.record(["operation raised"])
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.units += units
    run.record(wl.check(state, i, result))
    return t0, t1, units


def measure(wl, state, seconds, min_ops, run):
    """Closed loop until the time is up; (start, end, units) of each op."""
    done = []
    end = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < end:
        op = timed_op(wl, state, i, run)
        if op is not None:
            done.append(op)
        i += 1
    if not done:
        raise RuntimeError("every operation failed")
    return done


def measure_paired(wl, state, seconds, run, tracer):
    """Each operation twice in a row, untraced then traced, until the time
    is up; wall ms per unit of each. Pairing keeps drift in machine speed
    out of the tracing overhead."""
    plain, traced = [], []
    end = time.perf_counter() + seconds
    i = 0
    while i < 1 or time.perf_counter() < end:
        for out, spans in ((plain, None), (traced, tracer)):
            op = timed_op(wl, state, i, run, spans)
            if op is not None:
                t0, t1, units = op
                out.append(1e3 * (t1 - t0) / units)
        i += 1
    if not plain or not traced:
        raise RuntimeError("every operation failed")
    return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, args, run, parkrank, originals):
    with reference.Probe() as probe:
        setups, state = set_up(wl, run)
        ops = measure(wl, state, args.seconds, wl.min_ops, run)
    rss = peak_rss_mb()
    installed = tracing.wrapped_now(parkrank, originals)
    run.record([f"untraced run has wrappers on {installed}"] if installed else [])
    quality, failures = wl.quality(state)
    run.record(failures)
    setup_wall, setup_scaled = zip(*(probe.times(t0, t1) for t0, t1 in setups))
    op_times = [probe.times(t0, t1) for t0, t1, _ in ops]
    wall = [1e3 * w / units for (w, _), (_, _, units) in zip(op_times, ops)]
    scaled = [1e3 * s / units for (_, s), (_, _, units) in zip(op_times, ops)]
    values = {
        "setup_s": metrics.median(setup_scaled),
        "op_p50_ms": metrics.median(scaled),
        "op_tail_ms": wl.tail(scaled),
        "ndcg1": quality["ndcg1"],
        "rnwtr5": quality["rnwtr5"],
        "peak_rss_mb": rss,
    }
    walls = {
        "setup_s": (metrics.median(setup_wall), len(setup_wall)),
        "op_p50_ms": (metrics.median(wall), len(wall)),
        "op_tail_ms": (wl.tail(wall), len(wall)),
    }
    print(f"  probe: median {metrics.median(probe.ms()):.4g} ms per block "
          f"(nominal {reference.NOMINAL_MS:g}) over {len(probe.starts)} probes")
    print_report(wl, values, walls, run)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _bound, _meaning in metrics.END_TO_END
    }


def print_report(wl, values, walls, run):
    """User-facing names with units; times as measured (wall) and as
    gated (scaled to the probe's nominal speed)."""
    units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    rows = []
    for name, value in values.items():
        label, unit = wl.labels.get(name, (name, units[name]))
        if name in walls:
            wall, count = walls[name]
            rows.append((label, wall, unit, f"wall over {count} samples; "
                         f"gated as {name} = {value:.6g} scaled"))
        else:
            rows.append((label, value, unit, f"gated as {name}"))
    if wl.name == "c8-eval":
        rows.insert(1, ("eval_qps", 1e3 / walls["op_p50_ms"][0], "1/s",
                        "wall, ranked and scored queries per second"))
    rows.append(("error_rate", run.failed / run.attempted, "ratio",
                 f"{run.failed} failed of {run.attempted} attempted"))
    for label, value, unit, note in rows:
        print(f"  {label:<20} {value:>12.6g} {unit:<6} {note}")


def run_traced(wl, args, run, parkrank, originals):
    tracer = tracing.Tracer(parkrank)
    tracer.install()
    try:
        _, state = set_up(wl, run)
    finally:
        tracer.uninstall()
    tracer.phase = "timed"
    plain, traced = measure_paired(wl, state, args.seconds, run, tracer)
    left = tracing.wrapped_now(parkrank, originals)
    run.record([f"wrappers not restored on {left}"] if left else [])
    _, failures = wl.quality(state)
    run.record(failures)
    base, slow = metrics.median(plain), metrics.median(traced)
    overhead = {
        "trace.overhead_ms": slow - base,
        "trace.overhead_share": (slow - base) / base,
    }
    out = {}
    for name, unit, _better, moves in metrics.LAYERS:
        value = metrics.layer_value(
            name, tracer.stats, SETUP_REPEATS, tracer.units, tracer.counters,
            overhead,
        )
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:<48} {value:>12.6g} {unit:<12} moves {moves}")
    print(f"  op_p50_ms wall untraced {base:.6g}, traced {slow:.6g}, "
          f"over {len(plain)} paired operations")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        parkrank = bootstrap.import_parkrank()
    except bootstrap.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    originals = tracing.snapshot(parkrank)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    bootstrap.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=bootstrap.WORK))
    try:
        wl = cls(args.seed, "c9" if args.smoke else cls.shape, work)
        print(f"perfbench workload={wl.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} shape={wl.shape}")
        print(f"why: {wl.why}")
        print("provenance: " + json.dumps(bootstrap.provenance(parkrank)))
        wl.prepare()
        run = Run()
        body = run_traced if args.trace else run_untraced
        values = body(wl, args, run, parkrank, originals)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            bootstrap.WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
