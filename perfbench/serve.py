"""``serve``: two keep-alive HTTP clients in a closed loop on ``repro serve``.

``repro serve --workers 2`` runs as its own process on a fresh cache
directory.  Set-up starts it, waits until it listens, and warms it: one
tier-2 DES run per hot-set config and one tier-0 query per dataset (so
the server has materialized the graphs its tier-0 answers need).

Each client then sends blocks of :data:`BLOCK` requests, each block a
seeded shuffle of a fixed make-up, and starts a new block until the run
length is reached (whole blocks only):

* tier 1: hot-set repeats, answered from the shared cache;
* tier 0: ``tier=model`` PIUMA queries and ``platform=cpu|gpu`` queries;
* tier 2: never-seen configs (the miss base config with a DRAM
  latency no other request of the run uses), simulated by the server's
  ``JobScheduler``.

Operations: the requests (hits: tiers 0 and 1; misses: tier 2).
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench import checks
from perfbench.common import (
    ROOT,
    child_env,
    cpu_seconds,
    end_to_end,
    fresh_dir,
    peak_rss_mb,
    tree_cpu_seconds,
)
from perfbench.tracing import CLOCK, TRACE_ENV

DATASETS = ("products", "arxiv")
KERNELS = ("dma", "loop", "vertex")
CLIENTS = 2
WORKERS = 2

#: Make-up of one block: tier-1 repeats, tier-0 model / cpu / gpu
#: queries, and never-seen configs.
BLOCK = {"hot": 38, "model": 4, "cpu": 3, "gpu": 3, "miss": 2}


@dataclass(frozen=True)
class Size:
    max_vertices: int = 8192
    cores: int = 4
    dims: tuple = (16, 32, 64)
    miss_dim: int = 32


FULL = Size()
TINY = Size(max_vertices=1024, cores=2, dims=(8,), miss_dim=8)


class Serve:
    name = "serve"

    def __init__(self, seed, work, size=FULL):
        self.seed = seed
        self.work = work
        self.size = size
        rng = random.Random(seed)
        # The seed picks the RMAT instance (the query's "seed") and the
        # embedding dimension of each hot-set config.
        self.hot = [
            self._query(dataset, kernel, rng.choice(size.dims))
            for dataset in DATASETS for kernel in KERNELS
        ]

    def _query(self, dataset, kernel, k, **overrides):
        return {
            "dataset": dataset, "k": k, "kernel": kernel,
            "max_vertices": self.size.max_vertices, "seed": self.seed,
            "overrides": {"n_cores": self.size.cores, **overrides},
        }

    def _block(self, client, block):
        """The requests of one block: ``[(kind, expected tier, query)]``."""
        rng = random.Random(self.seed * 1_000_003 + client * 7919 + block)
        requests = []
        for _ in range(BLOCK["hot"]):
            requests.append(("hot", 1, rng.choice(self.hot)))
        for _ in range(BLOCK["model"]):
            requests.append(("model", 0,
                             {**rng.choice(self.hot), "tier": "model"}))
        for platform in ("cpu", "gpu"):
            for _ in range(BLOCK[platform]):
                query = dict(rng.choice(self.hot), platform=platform)
                query.pop("kernel")
                query.pop("overrides")
                requests.append((platform, 0, query))
        for i in range(BLOCK["miss"]):
            # Unique across clients and blocks of the run.
            unique = (block * BLOCK["miss"] + i) * CLIENTS + client
            requests.append(("miss", 2, self._query(
                "products", "dma", self.size.miss_dim,
                dram_latency_ns=30.0 + 0.01 * unique)))
        rng.shuffle(requests)
        return requests

    # ------------------------------------------------------------------

    def setup(self, traced, trace_dir=None):
        started = CLOCK()
        cache_dir = fresh_dir(self.work / f"cache-{started:.6f}")
        log = self.work / f"server-{started:.6f}.log"
        if traced:
            command = [str(ROOT / "perfbench" / "launch.py")]
            env = child_env(**{TRACE_ENV: trace_dir})
        else:
            command = ["-m", "repro"]
            env = child_env()
        with open(log, "w", encoding="utf-8") as out:
            proc = subprocess.Popen(
                [sys.executable, *command, "serve", "--workers",
                 str(WORKERS), "--port", "0", "--quiet", "--cache-dir",
                 str(cache_dir), "--deadline", "120"],
                stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            )
        state = {"proc": proc, "log": log}
        try:
            state["port"] = _wait_listening(proc, log)
            state["first_tier2"] = self._warm(state["port"])
        except BaseException:
            self.teardown(state)
            raise
        state["wall_s"] = CLOCK() - started
        return state

    def _warm(self, port):
        """One tier-2 run per hot config, one tier-0 query per dataset."""
        first = {}
        errors = []
        queries = list(self.hot) + [
            {"dataset": d, "k": self.hot[0]["k"], "platform": "cpu",
             "max_vertices": self.size.max_vertices, "seed": self.seed}
            for d in DATASETS
        ]

        def worker(part):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
            try:
                for query in part:
                    status, doc, _ms = _post(conn, query)
                    if status != 200 or doc.get("degraded") is not None:
                        errors.append(f"warm-up answer {status}: {doc}")
                    elif doc.get("tier") == 2:
                        first[doc["key"]] = doc["record"]
            except Exception as error:  # reported after the join
                errors.append(repr(error))
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, args=(queries[c::CLIENTS],))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors or len(first) != len(self.hot):
            raise RuntimeError(f"server warm-up failed: {errors}")
        return first

    def teardown(self, state):
        """SIGTERM (the graceful drain) and wait for the server to exit."""
        proc = state["proc"]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def timed_phase(self, state, seconds, phase):
        port = state["port"]
        results = [[] for _ in range(CLIENTS)]
        blocks = [0] * CLIENTS
        crashed = []
        server = state["proc"].pid
        cpu0 = cpu_seconds() + tree_cpu_seconds(server)
        t0 = CLOCK()

        def client(c):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
            try:
                block = 0
                while block == 0 or CLOCK() - t0 < seconds:
                    for kind, tier, query in self._block(c, block):
                        status, doc, ms = _post(conn, query)
                        results[c].append(
                            (kind, tier, query, status, doc, ms))
                    block += 1
                    blocks[c] = block
            except Exception as error:  # reported after the join
                crashed.append(error)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t1 = CLOCK()
        cpu = cpu_seconds() + tree_cpu_seconds(server) - cpu0
        if crashed:
            raise RuntimeError(f"client failed: {crashed[0]!r}")
        return {"t0": t0, "t1": t1, "state": state, "n_rounds": sum(blocks),
                "cpu_s": cpu, "requests": [r for rs in results for r in rs]}

    # ------------------------------------------------------------------

    def outcome(self, phase):
        requests = phase["requests"]
        failed = sum(1 for _kind, tier, _q, status, doc, _ms in requests
                     if checks.response_failed(status, doc, tier))
        return len(requests), failed

    def check(self, phase, reference):
        """Tier-1 answers equal the first tier-2 record of their key,
        tier-2 answers pass the traffic check, and tier-0 answers match
        graph sizes (and, for PIUMA, Eq.5) computed here."""
        from repro.graphs.datasets import get_dataset
        from repro.piuma import PIUMAConfig, spmm_model

        sizes = {}
        for dataset in DATASETS:
            graph = get_dataset(dataset).materialize(
                max_vertices=self.size.max_vertices, seed=self.seed)
            sizes[dataset] = (int(graph.n_rows), int(graph.nnz))
        first = phase["state"]["first_tier2"]
        errors = []
        for kind, tier, query, status, doc, _ms in phase["requests"]:
            if status != 200:
                continue
            if doc.get("tier") != tier:
                errors.append(f"{kind} query answered from tier "
                              f"{doc.get('tier')}, expected {tier}")
                continue
            record = doc["record"]
            label = f"{kind} {query['dataset']} K={query['k']}"
            if tier == 1:
                if record != first.get(doc["key"]):
                    errors.append(f"{label}: tier-1 answer differs from "
                                  "the first tier-2 record of its key")
            elif tier == 2:
                errors += checks.traffic_errors(record, label)
            else:
                n_vertices, n_edges = sizes[query["dataset"]]
                if (record["n_vertices"], record["n_edges"]) != sizes[
                        query["dataset"]]:
                    errors.append(f"{label}: answered for a graph of "
                                  f"{record['n_vertices']} x "
                                  f"{record['n_edges']}")
                elif kind == "model":
                    model = spmm_model(n_vertices, n_edges, query["k"],
                                       PIUMAConfig(**query["overrides"]))
                    errors += checks.model_errors(record, model, label)
        return errors

    def latencies(self, phase):
        """Client latencies (ms) of tier-0/1 answers and of tier-2 ones."""
        hits = [ms for _kind, tier, _q, status, _doc, ms in phase["requests"]
                if tier in (0, 1) and status == 200]
        misses = [ms for _kind, tier, _q, status, _doc, ms
                  in phase["requests"] if tier == 2 and status == 200]
        return hits, misses

    def frontend(self, phase):
        """Client latencies (ms) of the hits, and the in-server span of
        the same answers: HTTP's cost around ``predict`` is the gap."""
        return (self.latencies(phase)[0], "service.predict",
                lambda span: span["attrs"]["tier"] in (0, 1))

    def time_per_op(self, phase):
        return (phase["t1"] - phase["t0"]) / len(phase["requests"])

    def end_to_end(self, phase, setups):
        hits, misses = self.latencies(phase)
        return end_to_end(
            setups, len(phase["requests"]) - self.outcome(phase)[1],
            phase["t1"] - phase["t0"], phase["cpu_s"], hits, misses,
            peak_rss_mb(include_self=False))


def _post(conn, query):
    """One keep-alive ``POST /predict``; returns (status, document, ms)."""
    body = json.dumps(query).encode("utf-8")
    started = CLOCK()
    conn.request("POST", "/predict", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    elapsed_ms = (CLOCK() - started) * 1e3
    try:
        document = json.loads(payload)
    except ValueError:
        document = {}
    return response.status, document, elapsed_ms


def _wait_listening(proc, log, timeout_s=120.0):
    """Port of the server once its log says it listens."""
    deadline = CLOCK() + timeout_s
    while CLOCK() < deadline:
        text = log.read_text(encoding="utf-8")
        match = re.search(r"listening on http://[\d.]+:(\d+)", text)
        if match:
            return int(match[1])
        if proc.poll() is not None:
            raise RuntimeError(f"repro serve exited {proc.returncode}:\n{text}")
        time.sleep(0.005)
    raise RuntimeError("repro serve did not start listening")
