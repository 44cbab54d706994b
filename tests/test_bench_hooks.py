"""The benchmark's per-layer hooks still find every library name they wrap.

perfbench wraps library functions by module-global name; a name the library
no longer has is only noted in ``tracer.missing`` and its metrics read 0. Here
the hooks are installed on the real library, unedited, and the only missing
names allowed are the two hooks of the dense graph matrices the library no
longer builds.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
KNOWN_DEAD = ["Batch.adjacency", "Batch.segment_indicator"]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "layers", "tracing", "selftest", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import run
    import tracing
    return run, layers, tracing


def test_benchmark_hooks_are_live(perfbench):
    run, layers, tracing = perfbench
    lib = run.import_library()
    tracer = tracing.Tracer()
    originals = {name: getattr(lib.trainer, name)
                 for name in ("sample_view", "batch_graphs", "encode_nodes")}
    layers.install(tracer, lib)
    try:
        assert sorted(tracer.missing) == sorted(KNOWN_DEAD)
        assert all(getattr(lib.trainer, name) is not fn for name, fn in originals.items())
    finally:
        tracer.restore()
    assert all(getattr(lib.trainer, name) is fn for name, fn in originals.items())


def test_linear_probe_records_one_adam_step_per_iteration(perfbench):
    # every penalty of the grid is fitted in one block, so the optimizer
    # span counts iterations, not iterations times grid values
    run, layers, tracing = perfbench
    lib = run.import_library()
    y = np.arange(30) % 2
    x = np.random.default_rng(0).standard_normal((30, 4)) + y[:, None]
    table = lib.gc.EmbeddingTable(ids=tuple(range(30)), embeddings=x,
                                  labels=tuple(int(v) for v in y))
    tracer = tracing.Tracer()
    layers.install(tracer, lib)
    try:
        lib.gc.linear_probe(table, 0)
    finally:
        tracer.restore()
    assert tracer.names.count("optim.adam_step") == 300
