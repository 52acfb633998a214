"""Every output check passes on real output and rejects corrupted output."""

import copy

import pytest

from perfbench import checks
from perfbench.batch import Batch, TINY as BATCH_TINY
from perfbench.commands import CACHE_NOTE, Commands, TINY as CLI_TINY
from perfbench.serve import Serve, TINY as SERVE_TINY


@pytest.fixture(scope="module")
def records():
    from repro.runtime import spmm_task

    return {
        kernel: spmm_task("arxiv", 8, kernel=kernel, max_vertices=512,
                          n_cores=1).run()
        for kernel in ("dma", "loop", "vertex")
    }


@pytest.fixture(scope="module")
def shards():
    from repro.graphs.datasets import get_dataset
    from repro.runtime.shard import shard_tasks

    graph = get_dataset("arxiv").materialize(max_vertices=512, seed=3)
    records = [task.run() for task in shard_tasks(
        "arxiv", 8, 3, strategy="degree", max_vertices=512, seed=3,
        n_cores=1)]
    return records, checks.whole_graph_totals(
        int(graph.n_rows), int(graph.nnz), 8)


@pytest.mark.parametrize("kernel", ["dma", "loop", "vertex"])
def test_traffic_check_passes_real_records(records, kernel):
    assert checks.traffic_errors(records[kernel]) == []


@pytest.mark.parametrize("kernel, tag, field, delta", [
    ("dma", "dma_read", "count", 1),
    ("dma", "dma_read", "bytes", 4.0),
    ("loop", "feature", "bytes", -4.0),
    ("vertex", "nnz", "bytes", 8.0),
])
def test_traffic_check_rejects_corrupted_counters(records, kernel, tag,
                                                  field, delta):
    record = copy.deepcopy(records[kernel])
    record["tag_stats"][tag][field] += delta
    assert checks.traffic_errors(record)


def test_traffic_check_rejects_fallback_records(records):
    record = dict(records["dma"], source="model_fallback")
    assert checks.traffic_errors(record)


def test_identity_check(records):
    record = records["dma"]
    same = dict(record, host_wall_s=123.0, events_per_s=1.0,
                engine="reference")
    assert checks.identity_errors(record, same) == []
    corrupted = dict(record, sim_time_ns=record["sim_time_ns"] + 1e-6)
    assert checks.identity_errors(record, corrupted)


def test_conservation_check(shards):
    records, totals = shards
    assert checks.conservation_errors(records, totals) == []
    corrupted = copy.deepcopy(records)
    corrupted[1]["conserved"]["edges"] -= 1
    assert checks.conservation_errors(corrupted, totals)
    assert checks.conservation_errors(records[:-1], totals)


def test_model_check():
    from repro.piuma import PIUMAConfig, spmm_model

    model = spmm_model(1000, 8000, 16, PIUMAConfig(n_cores=2))
    record = {"gflops": float(model.gflops),
              "projected_time_ns": float(model.time_ns)}
    assert checks.model_errors(record, model) == []
    record["gflops"] *= 1.0 + 1e-12
    assert checks.model_errors(record, model)


SIMULATE_OUTPUT = """\
graph: {n_vertices:,} vertices, {n_edges:,} edges (window {window_edges:,} edges)
kernel dma, 1 cores, 16 threads/MTP, 45 ns DRAM
achieved {gflops:.1f} GFLOP/s ({efficiency:.0%} of the Eq.5 model); memory utilization {memory_utilization:.0%}
projected kernel time: {time}
"""


def _printed(record, time=None):
    from repro.report.tables import format_time_ns

    return SIMULATE_OUTPUT.format(
        time=time or format_time_ns(record["projected_time_ns"]), **record)


def test_simulate_output_check(records):
    record = records["dma"]
    assert checks.simulate_output_errors(_printed(record), record) == []
    wrong = dict(record, gflops=record["gflops"] + 0.2)
    assert checks.simulate_output_errors(_printed(wrong), record)
    wrong = dict(record, n_edges=record["n_edges"] + 1)
    assert checks.simulate_output_errors(_printed(wrong), record)
    late = _printed(record, time=f"{record['projected_time_ns'] * 1.1:.0f} ns")
    assert checks.simulate_output_errors(late, record)


def test_warm_output_must_equal_cold_output(tmp_path, records):
    commands = Commands(1, tmp_path, CLI_TINY)
    cold = _printed(records["dma"])
    warm = cold + CACHE_NOTE + "; --no-cache to re-simulate)\n"
    round_dir = tmp_path / "round"
    round_dir.mkdir()

    def phase(warm_text):
        ok_cold = [(0, cold, "", 0.5)] * len(commands.points)
        ok_warm = [(0, warm_text, "", 0.3)] * len(commands.points)
        return {"rounds": [{"cache_dir": round_dir, "cold": ok_cold,
                            "warm": ok_warm}]}

    def output_errors(warm_text):
        return [e for e in commands.check(phase(warm_text), reference=False)
                if "output" in e]

    assert output_errors(warm) == []
    assert output_errors(warm.replace("GFLOP/s", "GFLOPS"))
    assert output_errors(cold)


def test_lookups_must_equal_the_sweep_records(tmp_path, records, shards):
    batch = Batch(1, tmp_path, BATCH_TINY)
    batch.setup(traced=False)
    record = records["dma"]
    shard = shards[0][0]
    grid = [record] * len(batch.grid)

    def lookup_errors(found):
        lookups = [{"record": r, "hit": True, "ms": 0.3} for r in found]
        lookups += [{"record": shard, "hit": True, "ms": 0.3}] * (
            batch.points - len(batch.grid))
        phase = {"rounds": [{"grid": grid, "lookups": lookups}]}
        return [e for e in batch.check(phase, reference=False)
                if "look-up" in e]

    assert lookup_errors(grid) == []
    corrupted = copy.deepcopy(record)
    corrupted["sim_time_ns"] += 1.0
    assert lookup_errors([corrupted] + grid[1:])


def test_tier1_answers_must_equal_the_first_tier2_record(tmp_path, records):
    serve = Serve(1, tmp_path, SERVE_TINY)
    record = records["dma"]
    query = serve.hot[0]
    answer = {"tier": 1, "key": "k1", "source": "simulation",
              "degraded": None, "record": record}

    def errors(served):
        phase = {"state": {"first_tier2": {"k1": record}},
                 "requests": [("hot", 1, query, 200, served, 40.0)]}
        return serve.check(phase, reference=False)

    assert errors(answer) == []
    corrupted = copy.deepcopy(answer)
    corrupted["record"]["gflops"] += 1.0
    assert errors(corrupted)
    assert errors(dict(answer, tier=2))


def test_tier0_answers_must_equal_the_model(tmp_path):
    from repro.graphs.datasets import get_dataset
    from repro.piuma import PIUMAConfig, spmm_model

    serve = Serve(1, tmp_path, SERVE_TINY)
    query = {**serve.hot[0], "tier": "model"}
    graph = get_dataset(query["dataset"]).materialize(
        max_vertices=SERVE_TINY.max_vertices, seed=1)
    model = spmm_model(graph.n_rows, graph.nnz, query["k"],
                       PIUMAConfig(**query["overrides"]))
    record = {"n_vertices": int(graph.n_rows), "n_edges": int(graph.nnz),
              "gflops": float(model.gflops),
              "projected_time_ns": float(model.time_ns)}
    answer = {"tier": 0, "source": "model", "degraded": None,
              "record": record}

    def errors(served):
        phase = {"state": {"first_tier2": {}},
                 "requests": [("model", 0, query, 200, served, 40.0)]}
        return serve.check(phase, reference=False)

    assert errors(answer) == []
    assert errors(dict(answer, record=dict(
        record, projected_time_ns=record["projected_time_ns"] * 2)))
    assert errors(dict(answer, record=dict(
        record, n_edges=record["n_edges"] + 1)))
