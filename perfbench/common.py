"""Shared pieces of the benchmark: paths, statistics, resource accounting."""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Scratch space of every run: fresh caches and trace files.  Ignored by
#: git; each run removes its own subdirectory when it ends.
WORK = ROOT / ".perfbench"

#: How often set-up is repeated in a run; ``setup_s`` is the median.
SETUP_REPEATS = 5


def median(values):
    return float(statistics.median(values))


def child_env(**extra):
    """Environment of a ``python`` child: the checkout's sources first."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("REPRO_CACHE_DIR", None)
    env.update({name: str(value) for name, value in extra.items()})
    return env


def fresh_dir(path):
    """``path`` as a new, empty directory."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reap_workers(timeout_s=60.0):
    """Wait until every multiprocessing child of this process is reaped.

    ``ProcessPoolExecutor.shutdown(wait=False)`` returns before its
    workers exit; their CPU time and peak RSS reach ``RUSAGE_CHILDREN``
    only once they are waited for, which ``active_children`` does.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.01)


def cpu_seconds():
    """User + system CPU of this process and its reaped children."""
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def tree_cpu_seconds(pid):
    """User + system CPU of a running process and all its descendants.

    Read from ``/proc``: each process's own time plus the time of its
    reaped children (``cutime``/``cstime``), so a descendant is counted
    while it lives and, once reaped, through its parent.  The benchmark
    uses it for a server it has not stopped yet, whose workers
    ``RUSAGE_CHILDREN`` cannot see.
    """
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            threads = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue  # exited between listing and reading
        # utime, stime, cutime, cstime: fields 14 to 17 of stat(5).
        total += sum(int(value) for value in fields[11:15])
        for thread in threads:
            try:
                with open(f"/proc/{current}/task/{thread}/children",
                          encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except FileNotFoundError:
                continue
    return total / ticks


def peak_rss_mb(include_self=True):
    """Peak RSS of the largest process: this one or a reaped child.

    ``RUSAGE_CHILDREN`` reports the largest reaped descendant, workers
    of a reaped child server included, so reap before reading.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(children, own if include_self else 0) / 1024.0


def run_python(args, env, timeout_s=120.0):
    """Run ``python args...``; returns (exit code, stdout, stderr, wall s)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=timeout_s,
    )
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - started)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setups, completed, wall_s, cpu_s, hit_ms, miss_ms, rss_mb):
    """The end-to-end metrics every workload reports.

    ``completed`` operations took ``wall_s`` wall and ``cpu_s`` CPU
    seconds of every process of the workload; ``hit_ms`` holds the
    latencies of the operations answered without running the DES,
    ``miss_ms`` those of the operations that ran it.
    """
    return {
        "setup_s": metric(median([s["wall_s"] for s in setups]), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ops_per_s": metric(completed / wall_s, "1/s"),
        "cpu_ms_per_op": metric(cpu_s / completed * 1e3, "ms"),
        "hit_p50_ms": metric(median(hit_ms), "ms"),
        "miss_p50_ms": metric(median(miss_ms), "ms"),
    }
