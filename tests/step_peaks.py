"""Print the traced memory peak of one training step, one line per workload.

Each perfbench workload's config trains on one batch of its shape (its
batch size of planted-motif graphs of its node count, as the memory pins in
``test_trainer.py`` build them). After a warm-up step, one more step runs
under ``conftest.op_peak``; the line gives its peak in MB (2**20 bytes), in
blocks of the workload's pin unit, and the op that holds it. The unit is
(N, gin_hidden) for GroupCL and (N, p * d) for GroupIG, where N is the
batch's node count. BLAS is pinned to one thread before numpy is imported,
and tracemalloc sees numpy's arrays, not BLAS's own buffers, so two
checkouts compare line for line on one machine:

    python tests/step_peaks.py
    python tests/step_peaks.py --src ../parent/src

``--src`` names the library to import (this checkout's ``src/`` by
default); the workloads and the tracer are always this file's. The file is
not a test module, so pytest does not collect it.
"""
import argparse
import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def print_peaks() -> None:
    from conftest import op_peak
    from groupcontrast import trainer
    from groupcontrast.config import RunConfig
    from groupcontrast.graphs import generate_planted_motif_dataset
    from workloads import WORKLOADS

    print("workload MB blocks unit peak_at")
    for wl in WORKLOADS.values():
        config = RunConfig(**wl.config)
        ds = generate_planted_motif_dataset(1, wl.batch_size, wl.nodes_per_graph, wl.feature_dim)
        state = trainer.init_model(config, ds.feature_dim)
        graphs = list(ds.graphs)
        nodes = wl.batch_size * wl.nodes_per_graph
        unit, width = (("(N,p*d)", config.embed_dim) if config.pipeline == "groupig"
                       else ("(N,gin_hidden)", config.gin_hidden))
        trainer._step(state, graphs, 0, 0)      # first-call set-up stays out of the count
        peak, where = op_peak(lambda: trainer._step(state, graphs, 0, 1))
        print(wl.name, f"{peak / 2**20:.2f}", f"{peak / (nodes * width * 8):.2f}", unit,
              repr(where), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(TESTS.parent / "src"),
                    help="directory holding the groupcontrast package to import")
    args = ap.parse_args(argv)
    # BLAS reads its thread count when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.src).resolve()), str(TESTS), str(TESTS.parent / "perfbench")]
    print_peaks()
    return 0


if __name__ == "__main__":
    sys.exit(main())
