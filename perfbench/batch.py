"""The measured process of ``batch-dev``: fit, then one serial evaluate pass.

Started by ``run.py``.  It fits PURPLE ``SETUPS`` times (the timed
set-up), then obeys commands on standard input: ``export`` writes the
fitted state for the recording step, ``go`` loads the recorded
completions into its replay provider and runs ``evaluate_approach``
over the dev split, the way ``repro evaluate`` does with its defaults,
and writes the run's figures.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import layers
from common import (
    SETUPS,
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


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    cfg = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    tracer = Tracer()
    if args.trace:
        layers.instrument_fit(tracer)

    from repro import api
    from repro.eval import evaluate_approach
    from repro.llm import SimulatedLatencyLLM
    from repro.spider.dataset import Dataset

    train = Dataset.load(run_dir / "train.json")
    replay = ReplayLLM(cfg["profile"])
    llm = SimulatedLatencyLLM(
        replay,
        base=cfg["wait_ms"] / 1000.0,
        jitter=cfg["jitter_ms"] / 1000.0,
        clock=SpanClock(tracer) if args.trace else None,
    )
    fits = []
    for _ in range(SETUPS):
        purple = api.create(
            "purple", llm=llm, budget=cfg["budget"],
            consistency_n=cfg["consistency"],
        )
        started = time.perf_counter()
        state = fit_tracked(purple, train)
        fits.append(time.perf_counter() - started)
    emit({"fitted": fits})

    for words in commands():
        if words[0] == "export":
            save_state(state, run_dir / "fitted.pkl")
            emit({"exported": True})
        elif words[0] == "go":
            break
    else:
        return
    replay.load(read_json(run_dir / "recordings.json")["completions"])
    dev = Dataset.load(run_dir / "dev.json")
    if args.trace:
        layers.instrument_tasks(tracer)
        layers.instrument_scoring(tracer)
        layers.instrument_pipeline(tracer, purple)
    report = evaluate_approach(purple, dev)
    stats = purple.executor.stats()
    purple.close()
    write_json(run_dir / "result.json", {
        "fits_s": fits,
        "pass_s": report.timing.wall_time,
        "task_ms": {
            t.ex_id: t.latency * 1000.0 for t in report.timing.tasks
        },
        "outcomes": [
            [o.ex_id, o.predicted_sql, o.em, o.ex] for o in report.outcomes
        ],
        "em": report.em,
        "ex": report.ex,
        "rss_mb": peak_rss_mb(),
        "replay_misses": replay.misses,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "spans": tracer.spans,
    })
    emit({"done": True})


if __name__ == "__main__":
    main()
