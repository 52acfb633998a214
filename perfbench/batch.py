"""``batch``: a cold-cache sweep grid, a strong-scaling campaign, look-ups.

One round is one ``run_sweep`` over the grid with 2 workers, followed
by a ``strong_scaling`` campaign (block and degree-aware partitioning
over 1/2/4/8 nodes: eight short ``run_sweep`` calls, each with a fresh
pool), followed by a look-up of every point of the round, one
``run_sweep([task], workers=1)`` each, as a plotting script reads a
finished sweep: every look-up is answered from the cache.  Set-up
imports the library and builds the tasks.  Every round writes to a
fresh result-cache directory, so every point is simulated.  Rounds
repeat the same inputs, so the work is the same in every round of a run.

Operations: the simulated points (misses, each timed in the runner from
entering a worker to its result) and the look-ups (hits, each timed
around its ``run_sweep`` call).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from perfbench import checks, tracing
from perfbench.common import (
    child_env,
    cpu_seconds,
    end_to_end,
    fresh_dir,
    peak_rss_mb,
    reap_workers,
    run_python,
)
from perfbench.tracing import CLOCK

DATASETS = ("products", "arxiv")
KERNELS = ("dma", "loop", "vertex")
STRATEGIES = ("block", "degree")
SCALING_DATASET = "products"
WORKERS = 2


@dataclass(frozen=True)
class Size:
    max_vertices: int = 8192
    cores: tuple = (4, 8)
    dims: tuple = (16, 64)
    scaling_dim: int = 64
    nodes: tuple = (1, 2, 4, 8)
    #: Points re-run on the reference loop after the timed phase.
    sample: int = 4


FULL = Size()
TINY = Size(max_vertices=1024, cores=(2,), dims=(8,), scaling_dim=8,
            nodes=(1, 2), sample=2)


def graph_seeds(seed):
    """RMAT seeds of the grid graphs and of the scaling graph.

    The seed picks the RMAT instance of every graph; the grid's shape
    stays fixed, so every seed asks for the same amount of work.  The
    scaling graph is another instance than the grid's: the campaign's
    one-node runs execute inline and memoize their graph in this
    process, and pools forked later inherit it, so sharing an instance
    would spare the grid's workers their materialization from round 2 on.
    """
    return seed, seed + 1


def prepare(seed, size):
    """The workload's set-up: import the library, build the grid (in a
    seeded submission order) and the shard tasks of every scaling run."""
    from repro.runtime import spmm_task
    from repro.runtime.shard import shard_tasks

    graph_seed, scaling_seed = graph_seeds(seed)
    grid = [
        spmm_task(dataset, k, kernel=kernel, max_vertices=size.max_vertices,
                  seed=graph_seed, n_cores=cores)
        for dataset in DATASETS for kernel in KERNELS
        for cores in size.cores for k in size.dims
    ]
    random.Random(seed).shuffle(grid)
    shards = {
        (strategy, n): shard_tasks(
            SCALING_DATASET, size.scaling_dim, n, strategy=strategy,
            kernel="dma", max_vertices=size.max_vertices, seed=scaling_seed)
        for strategy in STRATEGIES for n in size.nodes
    }
    return grid, shards


def timed_prepare(seed, name):
    """Clock readings around :func:`prepare` in a fresh interpreter:
    its start, the end of the library import, and its end."""
    started = CLOCK()
    import repro.piuma  # noqa: F401
    import repro.runtime  # noqa: F401

    imported = CLOCK()
    prepare(seed, {"full": FULL, "tiny": TINY}[name])
    return started, imported, CLOCK()


class Batch:
    name = "batch"

    def __init__(self, seed, work, size=FULL):
        self.seed = seed
        self.work = work
        self.size = size
        self.graph_seed, self.scaling_seed = graph_seeds(seed)
        self.grid = self.shards = None

    # ------------------------------------------------------------------

    def setup(self, traced, trace_dir=None):
        """Import the library and build the round's tasks.

        The first call does it in this process, which keeps the tasks
        for the timed phase; later calls (set-up is repeated for
        ``setup_s``) run the same :func:`prepare` in a fresh interpreter.
        Either way the time is taken around :func:`prepare` itself.  A
        traced set-up records the library import as the ``import`` span.
        """
        if self.grid is None:
            started = CLOCK()
            self.grid, self.shards = prepare(self.seed, self.size)
            return {"wall_s": CLOCK() - started}
        code, out, err, _wall = run_python(
            ["-c", "import sys; from perfbench import batch; "
             "print(*batch.timed_prepare(int(sys.argv[1]), sys.argv[2]))",
             str(self.seed), "tiny" if self.size == TINY else "full"],
            child_env())
        if code != 0:
            raise RuntimeError(f"batch set-up failed:\n{err}")
        started, imported, ended = map(float, out.split()[-3:])
        if traced:
            tracing.RECORDER.add("import", started, imported)
        return {"wall_s": ended - started}

    def teardown(self, state):
        pass

    def round(self, index, phase):
        from repro.piuma import strong_scaling
        from repro.runtime import ProgressTracker, ResultCache, run_sweep

        cache_dir = fresh_dir(self.work / f"{phase}-round-{index}")
        cache = ResultCache(directory=cache_dir)
        progress = ProgressTracker(total=self.points)
        report = run_sweep(self.grid, workers=WORKERS, cache=cache,
                           progress=progress)
        strong_scaling(
            SCALING_DATASET, nodes=self.size.nodes, strategies=STRATEGIES,
            embedding_dim=self.size.scaling_dim, kernel="dma",
            max_vertices=self.size.max_vertices, seed=self.scaling_seed,
            sweep_kwargs={"workers": WORKERS, "cache": cache,
                          "progress": progress},
        )
        lookups = []
        for task in self.grid + [t for ts in self.shards.values() for t in ts]:
            started = CLOCK()
            found = run_sweep([task], workers=1, cache=cache)
            lookups.append({"record": found.records[0],
                            "hit": found.cache_hits == 1,
                            "ms": (CLOCK() - started) * 1e3})
        return {"grid": report.records, "lookups": lookups,
                "miss_ms": [p.wall_s * 1e3 for p in progress.points
                            if not p.cached]}

    @property
    def points(self):
        """Simulated points of a round: the grid and every shard."""
        return len(self.grid) + sum(len(ts) for ts in self.shards.values())

    def timed_phase(self, state, seconds, phase):
        cpu0 = cpu_seconds()
        t0 = CLOCK()
        rounds = []
        while not rounds or CLOCK() - t0 < seconds:
            rounds.append(self.round(len(rounds), phase))
        t1 = CLOCK()
        reap_workers()
        cpu = cpu_seconds() - cpu0
        return {"t0": t0, "t1": t1, "rounds": rounds,
                "n_rounds": len(rounds), "cpu_s": cpu,
                "peak_rss_mb": peak_rss_mb(include_self=True)}

    def _shard_records(self, rnd):
        """``{(strategy, n): [record]}`` from the round's look-ups."""
        records = [lookup["record"] for lookup in rnd["lookups"]]
        out = {}
        at = len(self.grid)
        for run, tasks in self.shards.items():
            out[run] = records[at:at + len(tasks)]
            at += len(tasks)
        return out

    # ------------------------------------------------------------------

    def outcome(self, phase):
        """Attempted / failed operations: the round's points and look-ups.

        A point fails when its record (the sweep's for the grid, the
        look-up's for a shard) is not a simulation; a look-up fails when
        the cache did not answer it.
        """
        attempted = failed = 0
        for rnd in phase["rounds"]:
            shards = [r for rs in self._shard_records(rnd).values()
                      for r in rs]
            records = list(rnd["grid"]) + shards
            attempted += len(records) + len(rnd["lookups"])
            failed += sum(1 for record in records
                          if record is None
                          or record.get("source") != "simulation")
            failed += sum(1 for lookup in rnd["lookups"] if not lookup["hit"])
        phase["completed"] = attempted - failed
        return attempted, failed

    def check(self, phase, reference):
        """Traffic of every record, grid look-ups equal to the sweep's
        records, shard conservation, and (when ``reference``) a seeded
        sample re-run on the reference loop."""
        from repro.graphs.datasets import get_dataset

        errors = []
        graph = get_dataset(SCALING_DATASET).materialize(
            max_vertices=self.size.max_vertices, seed=self.scaling_seed)
        totals = checks.whole_graph_totals(
            int(graph.n_rows), int(graph.nnz), self.size.scaling_dim)
        for index, rnd in enumerate(phase["rounds"]):
            for task, record, lookup in zip(self.grid, rnd["grid"],
                                            rnd["lookups"]):
                label = f"round {index} {task.label()}"
                errors += checks.traffic_errors(record, label)
                if lookup["record"] != record:
                    errors.append(f"{label}: look-up differs from the "
                                  "sweep's record")
            for (strategy, n), records in self._shard_records(rnd).items():
                label = f"round {index} {strategy} x{n}"
                traffic = [error for shard, record in enumerate(records)
                           for error in checks.traffic_errors(
                               record, f"{label} shard {shard}")]
                errors += traffic or checks.conservation_errors(
                    records, totals, label)
        if reference:
            errors += self._reference_errors(phase["rounds"][0])
        return errors

    def _reference_errors(self, rnd):
        rng = random.Random(self.seed)
        pairs = list(zip(self.grid, rnd["grid"]))
        shard_records = self._shard_records(rnd)
        shard_pairs = [
            (task, record)
            for run, tasks in sorted(self.shards.items())
            for task, record in zip(tasks, shard_records[run])
        ]
        half = self.size.sample // 2
        sample = (rng.sample(pairs, self.size.sample - half)
                  + rng.sample(shard_pairs, half))
        errors = []
        for task, record in sample:
            expect = task.with_engine("reference").run()
            errors += checks.identity_errors(record, expect, task.label())
        return errors

    def frontend(self, phase):
        """Point latencies (ms) in the runner, and the span of the work
        they wrap: the runner's cost around a task is the difference."""
        return ([ms for rnd in phase["rounds"] for ms in rnd["miss_ms"]],
                "runner.task", None)

    def time_per_op(self, phase):
        return (phase["t1"] - phase["t0"]) / phase["completed"]

    def end_to_end(self, phase, setups):
        rounds = phase["rounds"]
        return end_to_end(
            setups, phase["completed"], phase["t1"] - phase["t0"],
            phase["cpu_s"],
            [lookup["ms"] for rnd in rounds for lookup in rnd["lookups"]],
            [ms for rnd in rounds for ms in rnd["miss_ms"]],
            phase["peak_rss_mb"])
