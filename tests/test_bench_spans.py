"""The benchmark's per-layer spans are recorded by a real training run.

perfbench reads each stage's time off the spans its hooks record. A hook that
is installed but never called (because the trainer stopped looking the name
up where the hook sits) leaves a metric at 0 with no missing hook to show
for it, so here one epoch of GroupCL and of parameterized GroupIG is trained
with the hooks installed and every span a step should record is looked for.
"""
import sys
from pathlib import Path

import pytest

from groupcontrast.graphs import generate_planted_motif_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATASET = generate_planted_motif_dataset(7, 40, 14, 8)
STEPS_PER_EPOCH = 3     # 40 graphs in batches of 16


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "layers", "tracing", "selftest", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import run
    import tracing
    return run, layers, tracing


@pytest.mark.parametrize("pipeline, estimator, spans", [
    ("groupcl", "nonparam", ["objectives.js_terms", "objectives.interspace_penalty_nonparam",
                             "augment.sample_view"]),
    ("groupig", "param", ["objectives.js_terms_nodewise", "objectives.club_param_penalty",
                          "objectives.varnet_likelihood_loss"]),
])
def test_training_records_the_spans_perfbench_reads(perfbench, pipeline, estimator, spans):
    run, layers, tracing = perfbench
    lib = run.import_library()
    cfg = lib.gc.RunConfig(pipeline=pipeline, estimator=estimator, epochs=1, batch_size=16)
    tracer = tracing.Tracer()
    layers.install(tracer, lib)
    try:
        lib.trainer.train(cfg, DATASET)
    finally:
        tracer.restore()
    recorded = set(tracer.names)
    expected = spans + ["representor.forward_groups", "encoder.encode_nodes",
                        "tensor.backward", "optim.adam_step"]
    assert [name for name in expected if name not in recorded] == []
    assert tracer.names.count(tracing.STEP) == STEPS_PER_EPOCH
    # each loss term is timed inside a step, where the per-step metrics look
    step_ids = {i for i, name in enumerate(tracer.names) if name == tracing.STEP}
    for i, name in enumerate(tracer.names):
        if name.startswith("objectives."):
            parent = tracer.parents[i]
            while parent not in step_ids:
                assert parent != -1, f"{name} span outside a training step"
                parent = tracer.parents[parent]
