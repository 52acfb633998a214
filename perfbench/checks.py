"""Output checks, each computed apart from the program.

Every function returns a list of error strings (empty when the output
is right), so a run can report all of its faults at once.  The closed
forms below follow from the kernels' definitions, not from a stored
copy of earlier output: each simulated edge reads one feature row of
``K`` elements and one (index, value) pair of the adjacency.
"""

from __future__ import annotations

import re

#: Element sizes of the default PIUMAConfig (the workloads never
#: override them): feature, column index and adjacency value bytes.
FEATURE_BYTES = 4
INDEX_BYTES = 4
VALUE_BYTES = 4

#: Record fields that describe the host run, not the simulated result.
HOST_FIELDS = frozenset({"host_wall_s", "events_per_s", "engine"})


def traffic_errors(record, label=""):
    """Traffic counters of one DES record against their closed forms.

    The feature-read tag (``dma_read`` for the DMA kernels, ``feature``
    for the loop kernel) counts one read per window edge of
    ``K * feature_bytes`` bytes; ``nnz`` moves ``index + value`` bytes
    per window edge.
    """
    if record.get("source") != "simulation":
        return [f"{label}: source is {record.get('source')!r}, "
                "not 'simulation'"]
    edges = int(record["window_edges"])
    k = int(record["embedding_dim"])
    stats = record.get("tag_stats") or {}
    if edges == 0:
        return [] if not stats else [f"{label}: traffic without edges"]
    errors = []
    feature = stats.get("dma_read") or stats.get("feature")
    if feature is None:
        errors.append(f"{label}: no feature-read counter")
    else:
        if feature["count"] != edges:
            errors.append(f"{label}: {feature['count']} feature reads "
                          f"for {edges} window edges")
        if feature["bytes"] != edges * k * FEATURE_BYTES:
            errors.append(f"{label}: feature bytes {feature['bytes']} != "
                          f"{edges} x {k} x {FEATURE_BYTES}")
    nnz = stats.get("nnz")
    if nnz is None or nnz["bytes"] != edges * (INDEX_BYTES + VALUE_BYTES):
        errors.append(f"{label}: nnz bytes "
                      f"{None if nnz is None else nnz['bytes']} != "
                      f"{edges} x {INDEX_BYTES + VALUE_BYTES}")
    return errors


def identity_errors(record, reference, label=""):
    """Bit-for-bit equality of two records, host fields aside."""
    keys = (set(record) | set(reference)) - HOST_FIELDS
    differ = sorted(k for k in keys if record.get(k) != reference.get(k))
    return [f"{label}: differs from the reference loop in {differ}"] \
        if differ else []


def whole_graph_totals(n_vertices, n_edges, k):
    """Traffic of one SpMM over the whole graph, from its size alone."""
    feature = k * FEATURE_BYTES
    return {
        "rows": n_vertices,
        "edges": n_edges,
        "nnz_bytes": n_edges * (INDEX_BYTES + VALUE_BYTES),
        "feature_read_bytes": n_edges * feature,
        "output_write_bytes": n_vertices * feature,
        "dma_requests": n_edges,
        "flops": 2 * n_edges * k,
    }


def conservation_errors(shard_records, totals, label=""):
    """Shard ``conserved`` counters must sum to the whole-graph totals."""
    sums = {}
    for record in shard_records:
        for name, value in record["conserved"].items():
            sums[name] = sums.get(name, 0) + value
    if sums != totals:
        return [f"{label}: shard sums {sums} != whole graph {totals}"]
    return []


def model_errors(record, model, label=""):
    """A tier-0 PIUMA answer must equal Eq.5 evaluated here."""
    if (record.get("gflops") != float(model.gflops)
            or record.get("projected_time_ns") != float(model.time_ns)):
        return [f"{label}: tier-0 answer {record.get('gflops')} GFLOP/s / "
                f"{record.get('projected_time_ns')} ns != model "
                f"{model.gflops} / {model.time_ns}"]
    return []


_TIME_UNITS = {"s": 1e9, "ms": 1e6, "us": 1e3, "ns": 1.0}


def simulate_output_errors(text, reference, label=""):
    """Numbers printed by ``repro simulate`` against a reference record.

    Each printed number must equal the reference rounded to the digits
    printed.
    """
    expect = {
        "vertices": f"{reference['n_vertices']:,}",
        "edges": f"{reference['n_edges']:,}",
        "window": f"{reference['window_edges']:,}",
        "gflops": f"{reference['gflops']:.1f}",
        "efficiency": f"{reference['efficiency']:.0%}",
        "utilization": f"{reference['memory_utilization']:.0%}",
    }
    found = {}
    match = re.search(r"graph: ([\d,]+) vertices, ([\d,]+) edges "
                      r"\(window ([\d,]+) edges\)", text)
    if match:
        found.update(vertices=match[1], edges=match[2], window=match[3])
    match = re.search(r"achieved ([\d.]+) GFLOP/s \((\d+%) of the Eq.5 "
                      r"model\); memory utilization (\d+%)", text)
    if match:
        found.update(gflops=match[1], efficiency=match[2],
                     utilization=match[3])
    errors = [f"{label}: printed {name} {found.get(name)!r}, "
              f"reference {value!r}"
              for name, value in expect.items() if found.get(name) != value]
    match = re.search(r"projected kernel time: ([\d.]+) (s|ms|us|ns)", text)
    if not match:
        errors.append(f"{label}: no projected kernel time printed")
    else:
        printed = float(match[1]) * _TIME_UNITS[match[2]]
        # Two decimals of the printed unit (whole nanoseconds for ns).
        step = _TIME_UNITS[match[2]] * (1.0 if match[2] == "ns" else 0.01)
        if abs(printed - reference["projected_time_ns"]) > step / 2 + 1e-9:
            errors.append(f"{label}: printed time {match[0]!r}, reference "
                          f"{reference['projected_time_ns']} ns")
    return errors


def response_failed(status, document, expect_tier):
    """Does one HTTP answer count as a failed operation?

    A non-200 status, a degraded or ``model_fallback`` answer, and a
    tier-1/2 answer whose record is not a simulation all fail.
    """
    if status != 200:
        return True
    if document.get("degraded") is not None:
        return True
    if document.get("source") == "model_fallback":
        return True
    if expect_tier > 0 and document.get("record", {}).get("source") \
            != "simulation":
        return True
    return False
