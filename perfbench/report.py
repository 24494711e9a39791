"""Turning what a run recorded into named metrics.

Quantiles are nearest-rank: the ``q``-th percentile of ``n`` sorted
values is the value at rank ``ceil(q * n / 100)``.  A tail figure is
the highest whole percentile with at least ten samples beyond it.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import span_tree

#: Every per-layer metric and its unit; a traced run reports all of
#: them, with 0 where a layer does no work on that workload.
PER_LAYER = (
    ("fit.classifier_s", "s"),
    ("fit.skeleton_s", "s"),
    ("fit.index_s", "s"),
    ("fit.prompt_pool_s", "s"),
    ("serve.start_s", "s"),
    ("prune.ms", "ms"),
    ("prune.calls", "count"),
    ("skeleton.ms", "ms"),
    ("select.ms", "ms"),
    ("prompt.ms", "ms"),
    ("prompt.tokens", "count"),
    ("pipeline.ms", "ms"),
    ("llm.calls", "count"),
    ("llm.wait_ms", "ms"),
    ("llm.replay_ms", "ms"),
    ("llm.replay_misses", "count"),
    ("llm.sim_cpu_ms", "ms"),
    ("adapt.ms", "ms"),
    ("adapt.calls", "count"),
    ("adapt.changed_frac", "frac"),
    ("vote.ms", "ms"),
    ("exec.ms", "ms"),
    ("exec.calls", "count"),
    ("exec.errors", "count"),
    ("exec.cache_hit_frac", "frac"),
    ("score.ms", "ms"),
    ("transport_ms", "ms"),
    ("service_ms", "ms"),
    ("wait_other_ms", "ms"),
    ("admission.shed", "count"),
    ("admission.rejected", "count"),
    ("admission.peak_inflight", "count"),
    ("obs.capture_ms", "ms"),
    ("obs.record_ms", "ms"),
    ("api.translate_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("gen.queue_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.coverage_frac", "frac"),
    ("trace.ops", "count"),
)

#: Span name -> the per-layer metric its self time feeds (ms per op).
SELF_TIME_METRIC = {
    "prune": "prune.ms",
    "skeleton": "skeleton.ms",
    "select": "select.ms",
    "prompt": "prompt.ms",
    "pipeline": "pipeline.ms",
    "llm": "llm.replay_ms",
    "llm.wait": "llm.wait_ms",
    "adapt": "adapt.ms",
    "vote": "vote.ms",
    "exec": "exec.ms",
    "score": "score.ms",
    "obs.capture": "obs.capture_ms",
    "obs.record": "obs.record_ms",
    "api.translate": "api.translate_ms",
}

#: Span name -> the per-layer call count it feeds.
CALL_METRIC = {
    "prune": "prune.calls",
    "llm": "llm.calls",
    "adapt": "adapt.calls",
    "exec": "exec.calls",
}

FIT_METRIC = {
    "fit.classifier": "fit.classifier_s",
    "fit.skeleton": "fit.skeleton_s",
    "fit.index": "fit.index_s",
    "fit.prompt_pool": "fit.prompt_pool_s",
}


def percentile(values: list, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered) / 100.0), 1)
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least 10 of ``count`` beyond it."""
    return max(math.floor(100.0 * (count - 10) / count), 50)


def layer_metrics(result: dict, ops: int, recorded: dict,
                  rids=None) -> dict:
    """Layer figures that both workload shapes compute the same way.

    Self times become ms per end-to-end operation; fit spans give each
    trainer's median seconds over the fits the process made.  With
    ``rids``, only spans of those requests count, which leaves the serve
    warm-up out.
    """
    spans = result["spans"]
    _, _, self_s = span_tree(spans)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    values: dict = defaultdict(float)
    fits: dict = defaultdict(list)
    for span in spans:
        name = span[3]
        if name in FIT_METRIC:
            fits[FIT_METRIC[name]].append(span[5] - span[4])
            continue
        if rids is not None and span[2] not in rids:
            continue
        if name in SELF_TIME_METRIC:
            metrics[SELF_TIME_METRIC[name]] += self_s[span[0]] * 1000.0 / ops
        if name in CALL_METRIC:
            metrics[CALL_METRIC[name]] += 1
        values[name] += span[6]
    for name, seconds in fits.items():
        metrics[name] = statistics.median(seconds)
    if metrics["llm.calls"]:
        metrics["prompt.tokens"] = values["llm"] / metrics["llm.calls"]
    if metrics["adapt.calls"]:
        metrics["adapt.changed_frac"] = values["adapt"] / metrics["adapt.calls"]
    metrics["exec.errors"] = values["exec"]
    lookups = result["cache_hits"] + result["cache_misses"]
    if lookups:
        metrics["exec.cache_hit_frac"] = result["cache_hits"] / lookups
    metrics["llm.replay_misses"] = result["replay_misses"]
    if recorded["sim_calls"]:
        metrics["llm.sim_cpu_ms"] = (
            recorded["sim_cpu_s"] * 1000.0 / recorded["sim_calls"]
        )
    metrics["trace.ops"] = ops
    return metrics


def batch_layers(result: dict, recorded: dict) -> dict:
    """Per-layer figures of a traced batch run; an op is one task.

    Self times are means over the tasks.  A task's root span is the
    harness's call for one example; its self time is harness work
    outside every layer, reported as ``wait_other_ms``.
    """
    spans = result["spans"]
    _, _, self_s = span_tree(spans)
    tasks = [s for s in spans if s[3] == "task"]
    metrics = layer_metrics(result, len(tasks), recorded)
    total = sum(s[5] - s[4] for s in tasks)
    uncovered = sum(self_s[s[0]] for s in tasks)
    metrics["wait_other_ms"] = uncovered * 1000.0 / len(tasks)
    metrics["trace.op_ms"] = percentile(
        [(s[5] - s[4]) * 1000.0 for s in tasks], 50
    )
    metrics["trace.coverage_frac"] = 1.0 - uncovered / total
    return metrics


def serve_layers(result: dict, recorded: dict, requests: list,
                 ops: int, op_ms: list) -> dict:
    """Per-layer figures of a traced serve run.

    ``requests`` holds ``(rid, client_ms, reported_ms)`` for every
    answered request, ``reported_ms`` being the server's own
    ``latency_ms`` (None for ``/v1/execute``, which reports none).

    * ``service_ms`` is the server-reported latency.  For an execute it
      is the root span less its ``obs`` children, which the service
      runs after it stops its own clock.
    * ``transport_ms`` is client latency minus ``service_ms``.
    * ``wait_other_ms`` is service time no layer span covers: admission,
      task scoping, lock and interpreter-lock waits outside the layers.
    """
    spans = result["spans"]
    by_id, children, _ = span_tree(spans)
    roots = {
        s[2]: s for s in spans
        if s[3] in ("service.translate", "service.execute")
    }
    metrics = layer_metrics(
        result, ops, recorded, rids={rid for rid, _, _ in requests}
    )
    transport = service = other = client_total = 0.0
    for rid, client_ms, reported_ms in requests:
        root = roots.get(rid)
        if root is None:
            continue
        inside = outside = 0.0
        for child_id in children.get(root[0], ()):
            child = by_id[child_id]
            duration = (child[5] - child[4]) * 1000.0
            if child[3].startswith("obs."):
                outside += duration
            else:
                inside += duration
        if reported_ms is None:
            reported_ms = (root[5] - root[4]) * 1000.0 - outside
        client_total += client_ms
        transport += client_ms - reported_ms
        service += reported_ms
        other += reported_ms - inside
    metrics["transport_ms"] = transport / ops
    metrics["service_ms"] = service / ops
    metrics["wait_other_ms"] = other / ops
    metrics["trace.op_ms"] = percentile(op_ms, 50)
    metrics["trace.coverage_frac"] = 1.0 - other / client_total
    return metrics
