"""Per-layer metrics of a traced phase, computed from its spans.

Every workload reports every metric: each is taken from a layer that
all three workloads exercise in their timed phase, or is a count that
reads 0 where a layer does no work.  Only spans that lie inside the
timed phase count, except ``import``: a ``repro serve`` process and
the ``batch`` set-up import once, before the timed phase.  Totals and
counts are per round of the workload; ``_ms`` values are medians per
call, ``frontend.overhead_ms`` excepted (a difference of means).
"""

from __future__ import annotations

from perfbench.common import median
from perfbench.tracing import self_times


def per_layer(spans, t0, t1, rounds, frontend):
    """``({name: (value, unit)}, errors)`` of one traced phase.

    ``frontend`` is ``(latencies_ms, span name, keep)``: the latencies
    the workload's front end saw for some operations, and the spans
    (those ``keep`` accepts, all when it is ``None``) of the work each
    of those operations wrapped.
    """
    inside = [s for s in spans if s["start"] >= t0 and s["end"] <= t1]
    own = self_times(spans)
    by_name = {}
    for span in inside:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, ())]

    errors = [f"no {name} span in the traced phase"
              for name in ("piuma.kernel", "piuma.run", "runner.task",
                           "cache.get", "cache.put")
              if name not in by_name]
    imports = [s["end"] - s["start"] for s in spans if s["name"] == "import"]
    client_ms, core, keep = frontend
    wrapped = [s["end"] - s["start"] for s in by_name.get(core, ())
               if keep is None or keep(s)]
    if not imports:
        errors.append("no import span")
    if not client_ms or not wrapped:
        errors.append(f"no front-end latencies or {core} spans")
    if errors:
        return {}, errors

    gets = by_name["cache.get"]
    total = {
        "piuma.prepare_s": (
            sum(own[s["id"]] for s in by_name["piuma.kernel"]), "s"),
        "piuma.run_s": (sum(durations("piuma.run")), "s"),
        "piuma.events": (
            sum(s["attrs"]["events"] for s in by_name["piuma.run"]), "count"),
        "runner.task_busy_s": (sum(durations("runner.task")), "s"),
        "cache.gets": (len(gets), "count"),
        "graphs.materialize_calls": (
            len(by_name.get("graphs.materialize", ())), "count"),
        "graphs.partition_calls": (
            len(by_name.get("graphs.partition", ())), "count"),
        "jobs.pool_spawns": (
            sum(s["attrs"]["spawned"] for s in by_name.get("jobs.submit", ())),
            "count"),
    }
    out = {name: (value / rounds, unit)
           for name, (value, unit) in total.items()}
    out.update({
        "import_s": (median(imports), "s"),
        "cache.get_ms": (median(durations("cache.get")) * 1e3, "ms"),
        "cache.hit_ratio": (
            sum(1 for s in gets if s["attrs"]["hit"]) / len(gets), "ratio"),
        "cache.put_ms": (median(durations("cache.put")) * 1e3, "ms"),
        # Means add up where medians do not: the mean latency the front
        # end saw minus the mean time of the work inside it is the mean
        # cost of the front end itself.
        "frontend.overhead_ms": (
            sum(client_ms) / len(client_ms)
            - sum(wrapped) / len(wrapped) * 1e3, "ms"),
    })
    return out, []
