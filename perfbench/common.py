"""What the benchmark's processes share: workload settings and plumbing.

``run.py`` talks to the processes it starts over their standard
streams: one JSON object per line, prefixed with ``@perfbench`` so that
stray output from the program is ignored.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
from pathlib import Path

PREFIX = "@perfbench "

#: Databases per train domain: 11 x 1 x 45 = ~495 demonstrations
#: (README.md, "Demonstration pool").
TRAIN_VARIANTS = 1

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Each workload's configuration; README.md says why each exists.
WORKLOADS = {
    "batch-dev": {
        "kind": "batch",
        "profile": "chatgpt",
        "consistency": 30,
        "budget": 3072,
        # A fast provider: with zero wait the pass is all CPU, and the
        # host's drift spread it 29-41% across runs (README.md, "Noise").
        "wait_ms": 20.0,
        "jitter_ms": 0.0,
        # The standard dev split: 4 domains x 2 databases x 50 questions.
        "dev_variants": 2,
    },
    "serve-closed": {
        "kind": "closed",
        "profile": "gpt4",
        "consistency": 10,
        "budget": 3072,
        "wait_ms": 0.0,
        "jitter_ms": 0.0,
        # 4 x 4 x 50 = 800 questions: the closed loop uses ~280 of them
        # at today's speed, so a server ~2.5x faster still has questions
        # left at the end of its window.
        "dev_variants": 4,
        "connections": 2,
    },
    "serve-open": {
        "kind": "open",
        "profile": "gpt4",
        "consistency": 10,
        "budget": 3072,
        "wait_ms": 40.0,
        "jitter_ms": 10.0,
        "dev_variants": 4,
        "connections": 2,
        "rate": 10.0,
    },
}

#: A session or request answered later than this counts as late.
LIMIT_MS = 500.0


def emit(message: dict) -> None:
    """Send one message to ``run.py``."""
    sys.stdout.write(PREFIX + json.dumps(message) + "\n")
    sys.stdout.flush()


def commands():
    """Lines ``run.py`` sends on standard input, split into words."""
    for line in sys.stdin:
        words = line.split()
        if words:
            yield words


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fit_tracked(purple, train) -> dict:
    """Fit ``purple``; return the attributes the fit set, by name.

    Those attributes are the fitted state.  Grafting them onto a fresh
    instance with another provider gives the recording step the exact
    pipeline the measured process runs, without a second fit.
    """
    before = dict(vars(purple))
    purple.fit(train)
    missing = object()
    return {
        name: value
        for name, value in vars(purple).items()
        if before.get(name, missing) is not value
    }


def save_state(state: dict, path: Path) -> None:
    """Write fitted state for the recording processes."""
    path.write_bytes(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


def load_state(path: Path) -> dict:
    """Read fitted state written by :func:`save_state` in this run."""
    return pickle.loads(path.read_bytes())


def read_json(path: Path):
    """Parse a JSON file."""
    return json.loads(path.read_text())


def write_json(path: Path, payload) -> None:
    """Write a JSON file."""
    path.write_text(json.dumps(payload))
