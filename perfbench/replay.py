"""The replay provider and the step that records what it replays.

``MockLLM`` output is a pure function of (seed, prompt, sample index),
and its CPU is the simulator's cost, not this system's.  The recording
step runs the real pipeline once with :class:`RecordingLLM` around the
mock, in a separate process, and stores every completion under its
request.  Timed runs then answer each identical request from that table
through :class:`ReplayLLM`.  A request with no recording falls through
to a live ``MockLLM`` and is counted as a miss; a run with misses is
invalid.
"""

from __future__ import annotations

import hashlib
import threading
import time

from repro.llm import MockLLM, profile_by_name
from repro.llm.interface import LLMResponse


def request_key(request) -> str:
    """A digest of every field of an ``LLMRequest``."""
    text = "\x1f".join((
        str(request.n),
        repr(request.temperature),
        str(request.max_input_tokens),
        request.prompt,
    ))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


class RecordingLLM:
    """Passes each request to a ``MockLLM`` and keeps the response."""

    def __init__(self, profile: str):
        self.inner = MockLLM(profile_by_name(profile))
        self.name = self.inner.name
        self.completions: dict = {}
        self.cpu_s = 0.0
        self.calls = 0

    def complete(self, request):
        """Complete through the mock; record texts and token counts."""
        started = time.thread_time()
        response = self.inner.complete(request)
        self.cpu_s += time.thread_time() - started
        self.calls += 1
        self.completions[request_key(request)] = [
            list(response.texts),
            response.prompt_tokens,
            response.output_tokens,
        ]
        return response


class ReplayLLM:
    """Answers recorded requests from a table; anything else is a miss."""

    def __init__(self, profile: str):
        self.profile = profile
        self.name = profile_by_name(profile).name
        self.completions: dict = {}
        self.misses = 0
        self._fallback = None
        self._lock = threading.Lock()

    def load(self, completions: dict) -> None:
        """Install the recorded completions."""
        self.completions = completions

    def complete(self, request):
        """The recorded response, or a counted fall-through to the mock."""
        entry = self.completions.get(request_key(request))
        if entry is not None:
            texts, prompt_tokens, output_tokens = entry
            return LLMResponse(
                texts=list(texts),
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
            )
        with self._lock:
            self.misses += 1
            if self._fallback is None:
                self._fallback = MockLLM(profile_by_name(self.profile))
        return self._fallback.complete(request)
