"""Where the traced run hooks into groupcontrast, and the per-layer metrics
it reports.

Each hook wraps the name the caller looks up: ``trainer.sample_view`` is the
augmentation the trainer calls, ``tensor.matmul`` is every ``T.matmul``.
Per-step figures count only spans inside a training step, summed over the
run and divided by the number of steps. A step is a call of the pipeline's
step function as ``train`` looks it up, in the private ``trainer._STEP_FNS``;
if that table goes away, ``trace.missing_hooks`` counts it and the run's
``step_spans`` check fails. Every time is wall-clock seconds; a self time
excludes the spans nested inside.
"""
from __future__ import annotations

import statistics

from tracing import STEP, Summary, Tracer

LAYERS = ("graphs", "augment", "encoder", "representor", "objectives", "tensor",
          "optim", "trainer", "evaluation")

# every primitive is wrapped, so self times stay exact; the per-step report
# covers the ones a training step calls
TENSOR_OPS = ("matmul", "add", "sub", "mul", "smul", "neg", "square", "transpose",
              "relu", "softplus", "exp", "log", "tsum", "tmean", "concat",
              "row_softmax", "segment_softmax", "row_l2_normalize", "slice_cols")
STEP_OPS = ("matmul", "add", "sub", "mul", "smul", "neg", "square", "transpose",
            "relu", "softplus", "exp", "tsum", "segment_softmax", "row_l2_normalize",
            "slice_cols")
OBJECTIVES = ("js_terms", "js_terms_nodewise", "interspace_penalty_nonparam",
              "club_param_penalty", "varnet_likelihood_loss")


def _adjacency_attrs(args, out):
    batch = args[0]
    return {"bytes": out.nbytes, "density": 2 * len(batch.edges) / batch.total_nodes ** 2}


def _tape_attrs(args, out):
    return {"entries": len(args[0])}


def install(tracer: Tracer, lib) -> None:
    trainer, evaluation = lib.trainer, lib.evaluation
    for owner in (trainer, evaluation):
        tracer.patch(owner, "batch_graphs", "graphs.batch_graphs", "graphs")
        tracer.patch(owner, "encode_nodes", "encoder.encode_nodes", "encoder")
        tracer.patch(owner, "forward_groups", "representor.forward_groups", "representor")
        tracer.patch(owner, "adam_step", "optim.adam_step", "optim")
    tracer.patch(trainer, "sample_view", "augment.sample_view", "augment")
    tracer.patch(trainer, "backward", "tensor.backward", "tensor", _tape_attrs)
    tracer.patch(lib.tensor, "backward", "tensor.backward", "tensor", _tape_attrs)
    tracer.patch(lib.graphs.Batch, "adjacency", "graphs.Batch.adjacency", "graphs",
                 _adjacency_attrs)
    tracer.patch(lib.graphs.Batch, "segment_indicator", "graphs.Batch.segment_indicator",
                 "graphs")
    for fn in OBJECTIVES:
        tracer.patch(lib.objectives, fn, f"objectives.{fn}", "objectives")
    for op in TENSOR_OPS:
        tracer.patch(lib.tensor, op, f"tensor.op.{op}", "tensor")
    step_fns = getattr(trainer, "_STEP_FNS", None)
    if step_fns is None:
        tracer.missing.append("trainer._STEP_FNS")
    for pipeline in list(step_fns or {}):
        tracer.patch(step_fns, pipeline, STEP, "trainer")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def metrics(tracer: Tracer, sm: Summary, wall_s: float,
            probe_test_acc: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); `sm` summarises `tracer`."""
    out: dict[str, tuple[float, str]] = {}

    def whole(name):
        out[f"{name}.s"] = (_median(sm.durations(name)), "s")

    def step_s(name):
        out[f"{name}.s_per_step"] = (sm.per_step(sm.in_step_dur, name), "s")

    def step_self(name):
        out[f"{name}.self_s_per_step"] = (sm.per_step(sm.in_step_self, name), "s")

    def step_calls(name):
        out[f"{name}.calls_per_step"] = (sm.per_step(sm.in_step_calls, name), "count")

    whole("graphs.load_dataset")
    step_s("graphs.batch_graphs")
    step_s("graphs.Batch.adjacency")
    out["graphs.Batch.adjacency.bytes_per_step"] = (
        sm.per_step(sm.in_step_attrs, "graphs.Batch.adjacency.bytes"), "bytes")
    calls = sm.in_step_calls.get("graphs.Batch.adjacency", 0)
    out["graphs.Batch.adjacency.density"] = (
        sm.in_step_attrs.get("graphs.Batch.adjacency.density", 0.0) / calls if calls else 0.0,
        "ratio")
    step_s("graphs.Batch.segment_indicator")

    step_s("augment.sample_view")
    step_calls("augment.sample_view")

    step_s("encoder.encode_nodes")
    step_self("encoder.encode_nodes")
    step_s("representor.forward_groups")
    step_self("representor.forward_groups")
    for fn in OBJECTIVES:
        step_s(f"objectives.{fn}")
        step_self(f"objectives.{fn}")

    step_s("tensor.backward")
    out["tensor.tape_entries_per_step"] = (
        sm.per_step(sm.in_step_attrs, "tensor.backward.entries"), "count")
    for op in STEP_OPS:
        step_calls(f"tensor.op.{op}")
        out[f"tensor.op.{op}.fwd_s_per_step"] = (
            sm.per_step(sm.in_step_self, f"tensor.op.{op}"), "s")

    step_s("optim.adam_step")
    out["optim.adam_step.calls"] = (float(len(sm.durations("optim.adam_step"))), "count")

    whole("trainer.init_model")
    whole("trainer.checkpoint_save")
    whole("trainer.checkpoint_load")
    # means, so the per-step self times plus unattributed_s add up to s_per_step
    n = max(sm.num_steps, 1)
    out["trainer.step.s_per_step"] = (sum(sm.durations(STEP)) / n, "s")
    out["trainer.step.unattributed_s"] = (sum(sm.unattributed()) / n, "s")

    whole("evaluation.extract_embeddings")
    whole("evaluation.linear_probe")
    out["evaluation.linear_probe.test_acc"] = (probe_test_acc, "ratio")

    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(tracer.errors.get(layer, 0)), "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.spans"] = (float(len(tracer)), "count")
    out["trace.missing_hooks"] = (float(len(tracer.missing)), "count")
    return out
