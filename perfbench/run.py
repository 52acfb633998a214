"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload batch|serve|cli --seed N \\
        --seconds S --trace 0|1

``--trace 0`` sets the workload up :data:`~perfbench.common.SETUP_REPEATS`
times (``setup_s`` is the median), measures for ``--seconds`` with
tracing off, checks the outputs and prints the end-to-end metrics.

``--trace 1`` measures twice for half of ``--seconds`` each, first with
tracing off and then with every layer traced (pool workers and ``repro``
child processes included), and prints the per-layer metrics of the
traced half, with ``trace.overhead_pct``: how much longer one operation
of the workload took traced than untraced.  Every workload reports
every metric of either kind.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
check failures are listed on standard error.
"""

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# The checkout's own sources: the benchmark package and the program.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import common, layers, tracing  # noqa: E402

WORKLOADS = ("batch", "serve", "cli")
SIZES = ("full", "tiny")


def workload(name, seed, work, size):
    """The workload object for ``name`` at ``size`` (``full``/``tiny``)."""
    if name == "batch":
        from perfbench import batch as module
        cls = module.Batch
    elif name == "serve":
        from perfbench import serve as module
        cls = module.Serve
    else:
        from perfbench import commands as module
        cls = module.Commands
    return cls(seed, work, module.TINY if size == "tiny" else module.FULL)


def measure(wl, seconds, trace, trace_dir):
    """Run ``wl``; returns (correct, attempted, failed, metrics, errors)."""
    phases = []
    if not trace:
        setups = []
        for index in range(common.SETUP_REPEATS):
            state = wl.setup(traced=False)
            setups.append(state)
            if index < common.SETUP_REPEATS - 1:
                wl.teardown(state)
        try:
            phase = wl.timed_phase(state, seconds, "untraced")
        finally:
            wl.teardown(state)
        phases.append(phase)
    else:
        state = wl.setup(traced=False)
        try:
            untraced = wl.timed_phase(state, seconds / 2, "untraced")
        finally:
            wl.teardown(state)
        common.fresh_dir(trace_dir)
        recorder = tracing.install(str(trace_dir))
        state = wl.setup(traced=True, trace_dir=str(trace_dir))
        try:
            traced = wl.timed_phase(state, seconds / 2, "traced")
        finally:
            wl.teardown(state)
        recorder.dump()
        phases += [untraced, traced]

    attempted = failed = 0
    errors = []
    for index, phase in enumerate(phases):
        a, f = wl.outcome(phase)
        attempted += a
        failed += f
        errors += wl.check(phase, reference=index == 0)

    if not trace:
        return (not errors, attempted, failed,
                wl.end_to_end(phases[0], setups), errors)
    untraced, traced = phases
    layer_metrics, layer_errors = layers.per_layer(
        tracing.load_spans(str(trace_dir)), traced["t0"], traced["t1"],
        traced["n_rounds"], wl.frontend(traced))
    errors += layer_errors
    metrics = {name: common.metric(value, unit)
               for name, (value, unit) in layer_metrics.items()}
    metrics["trace.overhead_pct"] = common.metric(
        (wl.time_per_op(traced) / wl.time_per_op(untraced) - 1.0) * 100.0,
        "%")
    return not errors, attempted, failed, metrics, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every input (smoke tests)")
    args = parser.parse_args(argv)

    work = common.fresh_dir(
        common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workload(args.workload, args.seed, work, args.size)
        correct, attempted, failed, metrics, errors = measure(
            wl, args.seconds, bool(args.trace),
            common.WORK / f"trace-{args.workload}")
    finally:
        common.reap_workers()
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
