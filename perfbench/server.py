"""The measured process of the serve workloads: the ``repro serve`` stack.

Started by ``run.py``.  It assembles what ``repro serve`` assembles with
its defaults (one tenant, tracing and live telemetry on, the GPT4
profile at consistency 10 and budget 3072), except for two settings:
the provider is the replay provider inside ``SimulatedLatencyLLM``, and
the admission rate and burst sit far above what two connections can
send, so a faster server is never throttled into demotion.

It binds an ephemeral port and then obeys commands on standard input:
``export`` writes the fitted state for the recording step, ``load``
installs the recorded completions, ``stop`` shuts the server down and
writes the run's figures.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import layers
from common import (
    WORKLOADS,
    commands,
    emit,
    fit_tracked,
    peak_rss_mb,
    read_json,
    save_state,
    write_json,
)
from replay import ReplayLLM
from spans import SpanClock, Tracer

#: Admission rate (requests/s) and burst no client of this benchmark nears.
UNTHROTTLED = 1e6


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    cfg = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    tracer = Tracer()
    if args.trace:
        layers.instrument_fit(tracer)

    from repro import api
    from repro.api.runtime import make_live, make_observer
    from repro.llm import SimulatedLatencyLLM
    from repro.serve import (
        AdmissionController,
        AdmissionPolicy,
        NL2SQLService,
        ReproServer,
        Tenant,
        TenantRegistry,
    )
    from repro.spider.dataset import Dataset

    observer = make_observer(log_level="off", trace=True)
    replay = ReplayLLM(cfg["profile"])
    llm = SimulatedLatencyLLM(
        replay,
        base=cfg["wait_ms"] / 1000.0,
        jitter=cfg["jitter_ms"] / 1000.0,
        seed=args.seed,
        clock=SpanClock(tracer) if args.trace else None,
    )
    registry = TenantRegistry()
    with observer.activate():
        train = Dataset.load(run_dir / "train.json")
        data = Dataset.load(run_dir / "dev.json")
        translator = api.create(
            "purple", llm=llm, budget=cfg["budget"],
            consistency_n=cfg["consistency"],
        )
        started = time.perf_counter()
        state = fit_tracked(translator, train)
        fit_s = time.perf_counter() - started
        registry.add(Tenant(tenant_id="default", data=data,
                            translator=translator))
    policy = AdmissionPolicy(rate=UNTHROTTLED, burst=UNTHROTTLED)
    service = NL2SQLService(
        registry, AdmissionController(policy), observer=observer,
        live=make_live(observer, prune_lanes=True),
    )
    server = ReproServer(service, host="127.0.0.1", port=0).start()
    emit({"port": server.address[1]})

    for words in commands():
        if words[0] == "export":
            save_state(state, run_dir / "fitted.pkl")
            emit({"exported": True})
        elif words[0] == "load":
            # Wrapped after the export: the fitted state is pickled
            # without the benchmark's closures.
            if args.trace:
                layers.instrument_pipeline(tracer, translator)
                layers.instrument_service(tracer, service)
            replay.load(read_json(run_dir / "recordings.json")["completions"])
            emit({"loaded": len(replay.completions)})
        elif words[0] == "stop":
            break
    server.stop()
    executors = (translator.executor.stats(), service.executor.stats())
    write_json(run_dir / "result.json", {
        "fit_s": fit_s,
        "rss_mb": peak_rss_mb(),
        "replay_misses": replay.misses,
        "cache_hits": sum(s.cache_hits for s in executors),
        "cache_misses": sum(s.cache_misses for s in executors),
        "peak_inflight": service.admission.snapshot()["peak_inflight"],
        "spans": tracer.spans,
    })
    emit({"done": True})


if __name__ == "__main__":
    main()
