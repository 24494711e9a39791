"""The recording step: one untimed run with ``MockLLM`` in the loop.

Started by ``run.py`` in its own process, so it shares no executor
cache or other state with the measured process.  It grafts the measured
process's fitted state onto a fresh PURPLE instance whose provider is a
:class:`~replay.RecordingLLM`, answers its share of the questions, and
writes the completions together with each question's reference answer:
the SQL, its EM/EX against the gold SQL and, for served questions, the
row count ``/v1/execute`` must return.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from common import WORKLOADS, load_state, read_json, write_json
from replay import RecordingLLM


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    args = parser.parse_args()
    cfg = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)

    from repro import api
    from repro.api.types import TranslateRequest
    from repro.eval import evaluate_approach
    from repro.eval.exact_match import exact_set_match
    from repro.eval.execution import execution_match
    from repro.schema import SQLiteExecutor
    from repro.spider.dataset import Dataset

    dev = Dataset.load(run_dir / "dev.json")
    llm = RecordingLLM(cfg["profile"])
    purple = api.create(
        "purple", llm=llm, budget=cfg["budget"],
        consistency_n=cfg["consistency"],
    )
    vars(purple).update(load_state(run_dir / "fitted.pkl"))

    answers = {}
    if cfg["kind"] == "batch":
        share = _share(dev.examples, args.part, args.parts)
        part = Dataset(name=dev.name, examples=share, databases=dev.databases)
        report = evaluate_approach(purple, part)
        for outcome in report.outcomes:
            answers[outcome.ex_id] = {
                "sql": outcome.predicted_sql,
                "em": outcome.em,
                "ex": outcome.ex,
            }
    else:
        questions = read_json(run_dir / "questions.json")
        executor = SQLiteExecutor()
        for db_id in dev.db_ids():
            executor.register(dev.database(db_id))
        for q in _share(questions, args.part, args.parts):
            response = api.translate(
                purple,
                TranslateRequest(
                    question=q["question"], db_id=q["db_id"],
                    request_id=q["rid"],
                ),
                database=dev.database(q["db_id"]),
            )
            result = executor.execute(q["db_id"], response.sql)
            answers[q["rid"]] = {
                "sql": response.sql,
                "em": exact_set_match(q["gold"], response.sql),
                "ex": execution_match(
                    executor, q["db_id"], q["gold"], response.sql
                ),
                "rows": len(result.rows) if result.rows is not None else 0,
                "ok": result.ok,
            }
        executor.close()
    purple.close()
    write_json(run_dir / f"recorded-{args.part}.json", {
        "completions": llm.completions,
        "answers": answers,
        "sim_cpu_s": llm.cpu_s,
        "sim_calls": llm.calls,
    })


def _share(items: list, part: int, parts: int) -> list:
    """The ``part``-th of ``parts`` contiguous slices of ``items``."""
    size = -(-len(items) // parts)
    return items[part * size:(part + 1) * size]


if __name__ == "__main__":
    main()
