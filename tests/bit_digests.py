"""Print sha256 digests of what training writes, one line per run.

Each run trains from scratch and prints, on one line, the sha256 of its
``history.csv``, of its ``checkpoint.bin`` and of the bytes of the
``extract_embeddings`` table of the trained model. The runs are the 13
variants of ``test_step_pins.py`` at seeds 11 and 0, then a 2-epoch run of
each perfbench workload on its seed-1 inputs. BLAS is pinned to one thread
before numpy is imported, so two checkouts can be compared digest for
digest on one machine:

    python tests/bit_digests.py > change.txt
    python tests/bit_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

``--src`` names the library to import (this checkout's ``src/`` by
default); the runs are always this file's. The file is not a test module,
so pytest does not collect it.
"""
import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def print_digests() -> None:
    from groupcontrast.config import RunConfig
    from groupcontrast.evaluation import extract_embeddings
    from groupcontrast.graphs import load_dataset
    from groupcontrast.trainer import checkpoint_save, train, write_history
    from test_step_pins import DATASET, VARIANTS
    from workloads import WORKLOADS, write_inputs

    def digests(cfg, dataset) -> list[str]:
        state, history = train(cfg, dataset)
        with tempfile.TemporaryDirectory() as tmp:
            write_history(Path(tmp) / "history.csv", history)
            checkpoint_save(Path(tmp) / "checkpoint.bin", state)
            files = [(Path(tmp) / name).read_bytes() for name in ("history.csv", "checkpoint.bin")]
        table = extract_embeddings(state, dataset)
        return [hashlib.sha256(raw).hexdigest() for raw in (*files, table.embeddings.tobytes())]

    print("run history.csv checkpoint.bin embeddings")
    for seed in (11, 0):
        for name, overrides in VARIANTS.items():
            cfg = RunConfig(seed=seed, epochs=2, batch_size=16, **overrides)
            print(f"{name}-seed{seed}", *digests(cfg, DATASET), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for wl in WORKLOADS.values():
            path = Path(tmp) / f"{wl.name}.jsonl"
            write_inputs(wl, 1, path)
            cfg = RunConfig(epochs=2, **wl.config)
            print(f"{wl.name}-2-epochs", *digests(cfg, load_dataset(path)), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(TESTS.parent / "src"),
                    help="directory holding the groupcontrast package to import")
    args = ap.parse_args(argv)
    # BLAS reads its thread count when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.src).resolve()), str(TESTS), str(TESTS.parent / "perfbench")]
    print_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())
