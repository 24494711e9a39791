"""Where the traced run puts its spans: one wrapper per layer boundary.

Each function wraps the calls one part of the program makes into the
modules below it.  Instance methods are replaced on the instance the run
uses, so every holder of that object (the adapter and the vote share
the pipeline's executor) goes through the wrapper.  Module-level
functions are replaced in the module that calls them, because that is
where the call looks the name up.
"""

from __future__ import annotations


def instrument_fit(tracer) -> None:
    """Spans around the fit trainers (``plm``, ``core.automaton``, ``core.prompt``)."""
    import repro.core.pipeline as pipeline

    pipeline.train_schema_classifier = tracer.wrap(
        pipeline.train_schema_classifier, "fit.classifier"
    )
    pipeline.train_skeleton_predictor = tracer.wrap(
        pipeline.train_skeleton_predictor, "fit.skeleton"
    )
    pipeline.AutomatonIndex.build = staticmethod(
        tracer.wrap(pipeline.AutomatonIndex.build, "fit.index")
    )
    pipeline.PromptBuilder = tracer.wrap(
        pipeline.PromptBuilder, "fit.prompt_pool"
    )


def instrument_tasks(tracer) -> None:
    """A root ``task`` span per evaluated example, keyed by its id.

    The root of each task's span tree, so that the harness's own time
    outside every layer shows as the task's self time.
    """
    import repro.eval.harness as harness

    map_ordered = harness.map_ordered

    def traced_map_ordered(fn, items, **kwargs):
        task = tracer.wrap(fn, "task", rid_of=lambda example: example.ex_id)
        return map_ordered(task, items, **kwargs)

    harness.map_ordered = traced_map_ordered


def instrument_scoring(tracer) -> None:
    """``score`` spans around the harness's EX and EM checks (``eval``)."""
    import repro.eval.harness as harness

    harness.execution_match = tracer.wrap(harness.execution_match, "score")
    harness.exact_set_match = tracer.wrap(harness.exact_set_match, "score")


def instrument_executor(tracer, executor) -> None:
    """``exec`` spans, valued 1 on failure, on one ``SQLiteExecutor`` (``schema``)."""

    executor.execute = tracer.wrap(
        executor.execute, "exec",
        value_of=lambda result, args: int(not result.ok),
    )


def instrument_pipeline(tracer, purple) -> None:
    """Spans on the stages a PURPLE translation calls into.

    The stage objects, the provider and the executor are wrapped on the
    instance; ``select_demonstrations`` and ``consistency_vote`` in
    ``core.pipeline``, which calls them.
    """
    import repro.core.pipeline as pipeline

    purple.translate = tracer.wrap(purple.translate, "pipeline")
    purple.pruner.prune = tracer.wrap(purple.pruner.prune, "prune")
    purple.skeleton_module.predict = tracer.wrap(
        purple.skeleton_module.predict, "skeleton"
    )
    pipeline.select_demonstrations = tracer.wrap(
        pipeline.select_demonstrations, "select"
    )
    purple.prompt_builder.build = tracer.wrap(
        purple.prompt_builder.build, "prompt"
    )
    purple.llm.complete = tracer.wrap(
        purple.llm.complete, "llm",
        value_of=lambda response, args: response.prompt_tokens,
    )
    purple.adapter.adapt = tracer.wrap(
        purple.adapter.adapt, "adapt",
        value_of=lambda outcome, args: int(outcome.sql != args[0]),
    )
    pipeline.consistency_vote = tracer.wrap(
        pipeline.consistency_vote, "vote"
    )
    instrument_executor(tracer, purple.executor)


def instrument_service(tracer, service) -> None:
    """Root spans per served request, plus the ``api`` and ``obs`` calls."""
    import repro.api as api

    def request_id(request, *args, **kwargs):
        return request.request_id

    service.translate = tracer.wrap(
        service.translate, "service.translate", rid_of=request_id
    )
    service.execute = tracer.wrap(
        service.execute, "service.execute", rid_of=request_id
    )
    api.translate = tracer.wrap(api.translate, "api.translate")
    service.live.capture = tracer.wrap(service.live.capture, "obs.capture")
    service.live.record_request = tracer.wrap(
        service.live.record_request, "obs.record"
    )
    instrument_executor(tracer, service.executor)
