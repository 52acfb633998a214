"""``cli``: sequential one-shot ``python -m repro simulate`` commands.

One round runs every point of the round's list once cold (fresh cache
directory: import, graph materialization, inline DES and a cache write),
then every point again warm (import, cache read and render).  Rounds
repeat the same points, each round on a new cache directory.

Operations: the commands (hits: warm; misses: cold), each timed from
start to exit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from perfbench import checks
from perfbench.common import (
    ROOT,
    child_env,
    cpu_seconds,
    end_to_end,
    fresh_dir,
    median,
    peak_rss_mb,
    run_python,
)
from perfbench.tracing import CLOCK, TRACE_ENV

DATASET = "products"
KERNELS = ("dma", "loop", "vertex")

#: The line ``repro simulate`` adds when it answers from the cache.
CACHE_NOTE = "(served from the result cache"


@dataclass(frozen=True)
class Size:
    max_vertices: int = 16384
    cores: int = 8
    hidden: int = 64
    #: Points of the first round re-run in process on the reference loop.
    sample: int = 2


FULL = Size()
TINY = Size(max_vertices=1024, cores=2, hidden=8, sample=1)


class Commands:
    name = "cli"

    def __init__(self, seed, work, size=FULL):
        self.seed = seed
        self.work = work
        self.size = size
        rng = random.Random(seed)
        # The seed picks each point's DRAM latency (in 0.5 ns steps),
        # which moves the simulated numbers but not the amount of work.
        self.points = [
            {"kernel": kernel, "latency_ns": 40.0 + 0.5 * rng.randrange(40)}
            for kernel in KERNELS
        ]

    def _argv(self, point):
        return [
            "simulate", DATASET, "--kernel", point["kernel"],
            "--cores", str(self.size.cores),
            "--hidden", str(self.size.hidden),
            "--latency-ns", repr(point["latency_ns"]),
            "--max-vertices", str(self.size.max_vertices),
        ]

    def _command(self, state, argv, cache_dir):
        env = child_env(REPRO_CACHE_DIR=cache_dir, **state["env"])
        return run_python([*state["prefix"], *argv], env)

    # ------------------------------------------------------------------

    def setup(self, traced, trace_dir=None):
        """One ``repro datasets`` command: interpreter, import, render."""
        state = {
            "prefix": ([str(ROOT / "perfbench" / "launch.py")] if traced
                       else ["-m", "repro"]),
            "env": {TRACE_ENV: trace_dir} if traced else {},
        }
        code, _out, err, wall = self._command(
            state, ["datasets"], fresh_dir(self.work / "setup-cache"))
        if code != 0:
            raise RuntimeError(f"repro datasets exited {code}:\n{err}")
        state["wall_s"] = wall
        return state

    def teardown(self, state):
        pass

    def timed_phase(self, state, seconds, phase):
        cpu0 = cpu_seconds()
        t0 = CLOCK()
        rounds = []
        while not rounds or CLOCK() - t0 < seconds:
            cache_dir = fresh_dir(self.work / f"{phase}-round-{len(rounds)}")
            runs = {"cache_dir": cache_dir, "cold": [], "warm": []}
            for temperature in ("cold", "warm"):
                for point in self.points:
                    runs[temperature].append(self._command(
                        state, self._argv(point), cache_dir))
            rounds.append(runs)
        t1 = CLOCK()
        return {"t0": t0, "t1": t1, "rounds": rounds,
                "n_rounds": len(rounds), "cpu_s": cpu_seconds() - cpu0}

    # ------------------------------------------------------------------

    def outcome(self, phase):
        commands = [run for rnd in phase["rounds"]
                    for run in rnd["cold"] + rnd["warm"]]
        return len(commands), sum(1 for run in commands if run[0] != 0)

    def check(self, phase, reference):
        """Warm output equals cold output; every cached record passes the
        traffic check; (when ``reference``) a seeded sample's printed
        numbers equal an in-process run on the reference loop."""
        errors = []
        for index, rnd in enumerate(phase["rounds"]):
            for point, cold, warm in zip(self.points, rnd["cold"],
                                         rnd["warm"]):
                label = f"round {index} {point['kernel']}"
                if cold[0] != 0 or warm[0] != 0:
                    continue
                cold_lines = cold[1].splitlines()
                warm_lines = warm[1].splitlines()
                if any(line.startswith(CACHE_NOTE) for line in cold_lines):
                    errors.append(f"{label}: cold command hit the cache")
                if (not warm_lines or not warm_lines[-1].startswith(CACHE_NOTE)
                        or warm_lines[:-1] != cold_lines):
                    errors.append(f"{label}: warm output differs from cold")
            records = sorted(rnd["cache_dir"].glob("*.json"))
            if len(records) != len(self.points):
                errors.append(f"round {index}: {len(records)} cached records "
                              f"for {len(self.points)} points")
            for path in records:
                with open(path, encoding="utf-8") as handle:
                    errors += checks.traffic_errors(
                        json.load(handle)["record"], f"round {index} cache")
        if reference:
            errors += self._reference_errors(phase["rounds"][0])
        return errors

    def _reference_errors(self, rnd):
        from repro.runtime import spmm_task

        rng = random.Random(self.seed)
        errors = []
        for index in rng.sample(range(len(self.points)), self.size.sample):
            point, cold = self.points[index], rnd["cold"][index]
            expect = spmm_task(
                DATASET, self.size.hidden, kernel=point["kernel"],
                max_vertices=self.size.max_vertices,
                n_cores=self.size.cores,
                dram_latency_ns=point["latency_ns"],
                engine="reference",
            ).run()
            errors += checks.simulate_output_errors(
                cold[1], expect, f"simulate {point['kernel']}")
        return errors

    def _walls(self, phase, temperature):
        return [run[3] for rnd in phase["rounds"] for run in rnd[temperature]]

    def frontend(self, phase):
        """Command walls (ms), and the span of ``repro.cli.main`` in the
        command: interpreter start, import and exit are the gap."""
        return ([run[3] * 1e3 for rnd in phase["rounds"]
                 for run in rnd["cold"] + rnd["warm"]], "cli.main", None)

    def time_per_op(self, phase):
        return median(self._walls(phase, "warm"))

    def end_to_end(self, phase, setups):
        attempted, failed = self.outcome(phase)
        return end_to_end(
            setups, attempted - failed, phase["t1"] - phase["t0"],
            phase["cpu_s"],
            [wall * 1e3 for wall in self._walls(phase, "warm")],
            [wall * 1e3 for wall in self._walls(phase, "cold")],
            peak_rss_mb(include_self=False))
