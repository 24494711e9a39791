"""The PURPLE benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload batch-dev --seed 1 --seconds 8 --trace 0

``--workload`` is ``batch-dev``, ``serve-closed`` or ``serve-open``
(see README.md); ``--seed`` orders the fixed dev questions and seeds
the provider's wait; ``--seconds`` is how long the serve loops send
(batch-dev runs its one pass over the split); ``--trace 1`` adds the
layer spans and reports the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only for a valid, correct run.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    LIMIT_MS,
    PREFIX,
    SETUPS,
    TRAIN_VARIANTS,
    WORKLOADS,
    read_json,
    write_json,
)
from load import closed_loop, open_loop
from report import (
    PER_LAYER,
    batch_layers,
    percentile,
    serve_layers,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORK = Path.cwd() / ".bench_build" / "perfbench"

#: A run that is not done by then is abandoned, so every run ends
#: within three minutes.
RUN_BUDGET_S = 170.0
#: Recording processes; the recording step has the host to itself.
RECORDERS = 2
#: The open loop is invalid when a send runs later than this after its
#: due time with a connection free (the generator itself stalled).
MAX_LATE_MS = 100.0

END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("on_time_frac", "frac"),
    ("em", "frac"),
    ("ex", "frac"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
)


class RunError(RuntimeError):
    """The run could not be carried out."""


class Child:
    """A benchmark process, spoken to over its standard streams."""

    def __init__(self, script: str, args: list, env: dict):
        self.script = script
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True, bufsize=1,
        )
        self.messages: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(PREFIX):
                self.messages.put(json.loads(line[len(PREFIX):]))
        self.messages.put(None)

    def expect(self, key: str, deadline: float):
        """The value of the next message carrying ``key``."""
        while True:
            try:
                message = self.messages.get(
                    timeout=max(deadline - time.monotonic(), 0.01)
                )
            except queue.Empty:
                raise RunError(f"{self.script}: no {key!r} in time") from None
            if message is None:
                raise RunError(
                    f"{self.script} exited with {self.proc.wait()} "
                    f"before sending {key!r}"
                )
            if key in message:
                return message[key]

    def send(self, line: str) -> None:
        """One command line on the process's standard input."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, deadline: float) -> None:
        """Wait for a clean exit."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(max(deadline - time.monotonic(), 0.01))
        except subprocess.TimeoutExpired:
            raise RunError(f"{self.script} did not exit in time") from None
        if code != 0:
            raise RunError(f"{self.script} exited with {code}")

    def kill(self) -> None:
        """Stop the process if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(5.0)


def make_corpus(run_dir: Path, cfg: dict, seed: int) -> list:
    """Write the fixed train split and the dev split in the seed's order;
    return the dev examples in that order.

    Both splits come from the generator's default seed, so every run
    answers the same questions and ``em``/``ex`` are the same figure in
    every run.  They are generated by the first run in a checkout and
    kept under a digest of the sources.
    """
    cached = WORK / f"corpus-{source_key(str(cfg['dev_variants']))}"
    if not cached.is_dir():
        from repro.spider.generator import GeneratorConfig, generate_benchmark

        making = run_dir / "corpus"
        making.mkdir()
        generate_benchmark(
            GeneratorConfig(train_variants=TRAIN_VARIANTS, dev_variants=0)
        ).train.save(making / "train.json")
        generate_benchmark(
            GeneratorConfig(train_variants=0,
                            dev_variants=cfg["dev_variants"])
        ).dev.save(making / "dev.json")
        os.replace(making, cached)
    shutil.copyfile(cached / "train.json", run_dir / "train.json")
    dev = read_json(cached / "dev.json")
    random.Random(seed).shuffle(dev["examples"])
    write_json(run_dir / "dev.json", dev)
    return dev["examples"]


def question_stream(examples: list) -> list:
    """The dev questions in the split's order, each (db, question) once.

    Of a repeated pair, the example with the least id stays, whatever
    the order, so every run's stream holds the same questions.
    """
    kept: dict = {}
    for example in examples:
        key = (example["db_id"], example["question"])
        kept[key] = min(kept.get(key, example["ex_id"]), example["ex_id"])
    return [
        {
            "rid": example["ex_id"],
            "question": example["question"],
            "db_id": example["db_id"],
            "gold": example["sql"],
        }
        for example in examples
        if kept[(example["db_id"], example["question"])] == example["ex_id"]
    ]


def source_key(workload: str) -> str:
    """A digest of the program's files and the benchmark's code."""
    digest = hashlib.blake2b(workload.encode("utf-8"), digest_size=16)
    for root, pattern in ((SRC, "*"), (HERE, "*.py")):
        for path in sorted(root.rglob(pattern)):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode("utf-8"))
                digest.update(path.read_bytes())
    return digest.hexdigest()


def recordings(run_dir: Path, workload: str, target, env: dict,
               deadline: float) -> tuple:
    """The recording step's output for this code; ``(recorded, record_s)``.

    The inputs are the same in every run, so the recording is kept
    under a digest of the sources and made only by the first run of a
    workload in a checkout; later runs read it.  For a new recording,
    the measured process ``target`` exports its fitted state.
    """
    cached = WORK / f"recorded-{source_key(workload)}.json"
    started = time.perf_counter()
    if cached.is_file():
        recorded = read_json(cached)
    else:
        target.send("export")
        target.expect("exported", deadline)
        recorded = record(run_dir, workload, RECORDERS, env, deadline)
        write_json(run_dir / "recorded.json", recorded)
        os.replace(run_dir / "recorded.json", cached)
    write_json(run_dir / "recordings.json",
               {"completions": recorded["completions"]})
    return recorded, time.perf_counter() - started


def record(run_dir: Path, workload: str, parts: int, env: dict,
           deadline: float) -> dict:
    """Run the recording step in ``parts`` processes; merge the parts."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "record.py"), "--run-dir",
             str(run_dir), "--workload", workload, "--part", str(part),
             "--parts", str(parts)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, env=env,
        )
        for part in range(parts)
    ]
    try:
        for proc in procs:
            code = proc.wait(max(deadline - time.monotonic(), 0.01))
            if code != 0:
                raise RunError(f"record.py exited with {code}")
    except subprocess.TimeoutExpired:
        raise RunError("record.py did not finish in time") from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    merged = {"completions": {}, "answers": {}, "sim_cpu_s": 0.0,
              "sim_calls": 0}
    for part in range(parts):
        recorded = read_json(run_dir / f"recorded-{part}.json")
        merged["completions"].update(recorded["completions"])
        merged["answers"].update(recorded["answers"])
        merged["sim_cpu_s"] += recorded["sim_cpu_s"]
        merged["sim_calls"] += recorded["sim_calls"]
    return merged


def run_batch(args, cfg: dict, run_dir: Path, env: dict,
              deadline: float) -> dict:
    """batch-dev: fits, recording, then one timed evaluate pass."""
    make_corpus(run_dir, cfg, args.seed)
    children = []
    try:
        target = Child("batch.py", [
            "--run-dir", str(run_dir), "--workload", args.workload,
            "--trace", str(args.trace),
        ], env)
        children.append(target)
        fits = target.expect("fitted", deadline)
        recorded, record_s = recordings(
            run_dir, args.workload, target, env, deadline
        )
        target.send("go")
        target.expect("done", deadline)
        target.finish(deadline)
    finally:
        for child in children:
            child.kill()
    result = read_json(run_dir / "result.json")
    answers = recorded["answers"]
    wrong = {
        ex_id for ex_id, sql, em, ex in result["outcomes"]
        if answers.get(ex_id) != {"sql": sql, "em": em, "ex": ex}
    }
    task_ms = result["task_ms"]
    latencies = list(task_ms.values())
    tail = tail_percentile(len(latencies))
    detail = {
        "pass_s": result["pass_s"],
        "tail_percentile": tail,
        "latency_samples": len(latencies),
        "fits_s": fits,
        "record_s": record_s,
    }
    metrics = {
        "tasks_per_s": len(latencies) / result["pass_s"],
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": percentile(latencies, tail),
        "on_time_frac": sum(
            1 for ex_id, ms in task_ms.items()
            if ms <= LIMIT_MS and ex_id not in wrong
        ) / len(latencies),
        "em": result["em"],
        "ex": result["ex"],
        "setup_s": statistics.median(fits),
        "rss_mb": result["rss_mb"],
    }
    if args.trace:
        metrics = batch_layers(result, recorded)
    return {
        "attempted": len(result["outcomes"]),
        "failed": len(wrong),
        "misses": result["replay_misses"],
        "invalid": [],
        "detail": detail,
        "metrics": metrics,
    }


def wait_healthy(port: int, deadline: float) -> None:
    """Poll ``GET /v1/health`` until it answers 200."""
    while time.monotonic() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return
        except (OSError, http.client.HTTPException):
            pass
        finally:
            conn.close()
        time.sleep(0.005)
    raise RunError("server never became healthy")


def warmup_questions(stream: list) -> list:
    """The first question of each database in the stream.

    Served before timing starts, so that the server has materialized
    every database a measured request touches.  They are not measured,
    and no measured question repeats them.
    """
    seen: set = set()
    warmup = []
    for question in stream:
        if question["db_id"] not in seen:
            seen.add(question["db_id"])
            warmup.append(question)
    return warmup


def assess(kind: str, records: list, answers: dict) -> dict:
    """Check every operation of a load phase and collect its timings.

    A translate passes when it is a 200, rung-0, unshed answer whose SQL
    equals the reference; an open-loop session also needs its execute
    to return the reference's row count and error state.
    """
    def translated_ok(rid, status, body) -> bool:
        reference = answers.get(rid)
        return (
            status == 200 and reference is not None
            and body["sql"] == reference["sql"]
            and body["degradation_level"] == 0 and not body["shed"]
        )

    out = {
        "served": [],     # ids answered correctly
        "latencies": [],  # ms of each correct answer
        "op_ms": [],      # ms of each answered operation
        "requests": [],   # (rid, client_ms, reported_ms) per 200 request
        "statuses": [],   # (status, body) per request
        "gen_late": [0.0],
        "gen_queue": [0.0],
        "failures": [],   # (rid, status, body) of failed operations
    }
    if kind == "closed":
        for rid, send, done, status, body in records:
            out["statuses"].append((status, body))
            client_ms = (done - send) * 1000.0
            if status == 200:
                out["requests"].append((rid, client_ms, body["latency_ms"]))
                out["op_ms"].append(client_ms)
            if translated_ok(rid, status, body):
                out["latencies"].append(client_ms)
                out["served"].append(rid)
            else:
                out["failures"].append((rid, status, body))
        return out
    out["gen_late"], out["gen_queue"] = [], []
    for (rid, due, pickup, send, translated, done, status, body,
         exec_status, exec_body) in records:
        out["statuses"] += [(status, body), (exec_status, exec_body)]
        out["gen_queue"].append(max(pickup - due, 0.0) * 1000.0)
        out["gen_late"].append((send - max(due, pickup)) * 1000.0)
        if status == 200:
            out["requests"].append(
                (rid, (translated - send) * 1000.0, body["latency_ms"])
            )
        if exec_status == 200:
            out["requests"].append(
                (rid + "-x", (done - translated) * 1000.0, None)
            )
        reference = answers.get(rid, {})
        answer_ms = (done - due) * 1000.0
        out["op_ms"].append(answer_ms)
        if (
            translated_ok(rid, status, body) and exec_status == 200
            and exec_body["row_count"] == reference["rows"]
            and (exec_body["error"] is None) == reference["ok"]
        ):
            out["latencies"].append(answer_ms)
            out["served"].append(rid)
        else:
            out["failures"].append((rid, status, body, exec_status,
                                    exec_body))
    return out


def run_serve(args, cfg: dict, run_dir: Path, env: dict,
              deadline: float) -> dict:
    """serve-closed / serve-open: servers, recording, load, checks.

    The server is set up ``SETUPS`` times, each a fresh process timed
    from its spawn to its first healthy ``/v1/health``; all but the
    last are stopped again, and the last one is measured.
    """
    dev = make_corpus(run_dir, cfg, args.seed)
    stream = question_stream(dev)
    write_json(run_dir / "questions.json", stream)
    warmup = warmup_questions(stream)
    measured = [q for q in stream if q not in warmup]
    kind = cfg["kind"]
    children = []
    setups = []
    try:
        for _ in range(SETUPS):
            if children:
                children[-1].send("stop")
                children[-1].expect("done", deadline)
                children[-1].finish(deadline)
            started = time.perf_counter()
            server = Child("server.py", [
                "--run-dir", str(run_dir), "--workload", args.workload,
                "--seed", str(args.seed), "--trace", str(args.trace),
            ], env)
            children.append(server)
            port = server.expect("port", deadline)
            wait_healthy(port, deadline)
            setups.append(time.perf_counter() - started)
        recorded, record_s = recordings(
            run_dir, args.workload, server, env, deadline
        )
        server.send("load")
        server.expect("loaded", deadline)
        # One connection, back to back: the warm-up has no schedule.
        if kind == "closed":
            warm, _ = closed_loop(port, warmup, 60.0, 1)
            records, window = closed_loop(
                port, measured, args.seconds, cfg["connections"]
            )
        else:
            warm = open_loop(port, warmup, 1e6, 1)
            sessions = int(round(cfg["rate"] * args.seconds))
            records = open_loop(
                port, measured[:sessions], cfg["rate"], cfg["connections"]
            )
        server.send("stop")
        server.expect("done", deadline)
        server.finish(deadline)
    finally:
        for child in children:
            child.kill()
    result = read_json(run_dir / "result.json")
    answers = recorded["answers"]
    warm_failed = len(warm) - len(assess(kind, warm, answers)["served"])
    run = assess(kind, records, answers)
    latencies = run["latencies"]
    if len(latencies) < 20:
        raise RunError(f"only {len(latencies)} answers; too few to report")
    attempted = len(records)
    if kind == "closed":
        throughput = len(latencies) / window
    else:
        first_due = min(r[1] for r in records)
        throughput = len(latencies) / (max(r[5] for r in records) - first_due)
    invalid = []
    if max(run["gen_late"]) > MAX_LATE_MS:
        invalid.append(
            f"load generator ran {max(run['gen_late']):.1f} ms late "
            f"(bound {MAX_LATE_MS} ms)"
        )
    tail = tail_percentile(len(latencies))
    detail = {
        "warmup_questions": len(warm),
        "tail_percentile": tail,
        "latency_samples": len(latencies),
        "stream_questions": len(stream),
        "setups_s": setups,
        "fit_s": result["fit_s"],
        "gen_late_max_ms": max(run["gen_late"]),
        # The first few failed operations, as the client saw them.
        "failures": run["failures"][:3],
        "record_s": record_s,
    }
    metrics = {
        "tasks_per_s": throughput,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": percentile(latencies, tail),
        "on_time_frac": sum(
            1 for ms in latencies if ms <= LIMIT_MS
        ) / attempted,
        # Over the whole stream, so the figures do not depend on how
        # far a closed loop got; every served answer equals its record.
        "em": _rate(a["em"] for a in answers.values()),
        "ex": _rate(a["ex"] for a in answers.values()),
        "setup_s": statistics.median(setups),
        "rss_mb": result["rss_mb"],
    }
    if args.trace:
        metrics = serve_layers(
            result, recorded, run["requests"], attempted, run["op_ms"]
        )
        metrics["serve.start_s"] = setups[-1] - result["fit_s"]
        metrics["admission.shed"] = sum(
            1 for status, body in run["statuses"]
            if status == 200 and body.get("shed")
        )
        metrics["admission.rejected"] = sum(
            1 for status, _ in run["statuses"] if status == 429
        )
        metrics["admission.peak_inflight"] = result["peak_inflight"]
        metrics["gen.late_ms"] = statistics.fmean(run["gen_late"])
        metrics["gen.queue_ms"] = statistics.fmean(run["gen_queue"])
    return {
        "attempted": attempted + len(warm),
        "failed": attempted - len(run["served"]) + warm_failed,
        "misses": result["replay_misses"],
        "invalid": invalid,
        "detail": detail,
        "metrics": metrics,
    }


def _rate(flags) -> float:
    flags = list(flags)
    return sum(1 for f in flags if f) / len(flags) if flags else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            "perfbench: run from the repository root (no src/repro here)\n"
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    cfg = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # One BLAS thread per process: a pool of them spin-waits on a core
    # that another process or the host holds (README.md, "Noise").
    env["OPENBLAS_NUM_THREADS"] = "1"
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        runner = run_batch if cfg["kind"] == "batch" else run_serve
        outcome = runner(args, cfg, run_dir, env, deadline)
        if args.trace:
            # The spans outlive the run for inspection.
            os.replace(
                run_dir / "result.json",
                WORK / f"spans-{args.workload}-{args.seed}.json",
            )
    except (RunError, TimeoutError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = dict(END_TO_END)
    if args.trace:
        units = dict(PER_LAYER)
    invalid = list(outcome["invalid"])
    if outcome["misses"]:
        invalid.append(f"{outcome['misses']} replay misses")
    correct = not invalid and outcome["failed"] == 0
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "invalid": invalid,
        **outcome["detail"],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
