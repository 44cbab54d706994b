#!/usr/bin/env python3
"""Training and evaluation benchmark for groupcontrast.

    python3 perfbench/run.py --workload groupcl-default --seed 1 --seconds 20 --trace 0

One run is one fresh process. It writes the workload's dataset for --seed as
JSONL, then drives the library's public API: load_dataset -> init_model ->
train -> checkpoint_save/checkpoint_load -> extract_embeddings ->
linear_probe. It checks the outputs, prints every metric by name and unit,
and ends with one JSON line: correct, attempted, failed, metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run wraps
the library's layers in spans (see layers.py) and reports per-layer metrics.
Workloads, metrics and the layer map are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import layers
import selftest
from tracing import Summary, Tracer
from workloads import STEPS_PER_SECOND, WORKLOADS, Workload, write_inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# One BLAS thread: 1 vs 2 threads moves a default step by about 30%, and on a
# shared 2-core machine one thread is the steadier choice. It never exceeds
# nproc. The variables must be set before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 5          # training chunks, each followed by a timed embedding
SETUP_PER_ROUND = 3  # fresh set-up processes timed before each chunk
CHILD_TIMEOUT_S = 120


def pin_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import groupcontrast from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import groupcontrast
    from groupcontrast import evaluation, graphs, objectives, tensor, trainer
    if Path(groupcontrast.__file__).resolve().parent != src / "groupcontrast":
        raise ImportError(f"groupcontrast was imported from {groupcontrast.__file__}")
    return types.SimpleNamespace(gc=groupcontrast, evaluation=evaluation, graphs=graphs,
                                 objectives=objectives, tensor=tensor, trainer=trainer)


def run_config(lib, wl: Workload, seconds: int):
    return lib.gc.RunConfig(epochs=wl.epochs_for(seconds), **wl.config)


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_child(data_path: str, workload: str, seconds: int) -> int:
    """Child mode: time import + load_dataset + init_model, print one JSON line."""
    t0 = time.perf_counter()
    lib = import_library()
    t1 = time.perf_counter()
    ds = lib.gc.load_dataset(data_path)
    t2 = time.perf_counter()
    lib.trainer.init_model(run_config(lib, WORKLOADS[workload], seconds), ds.feature_dim)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0, "load_s": t2 - t1,
                      "init_s": t3 - t2, "graphs": len(ds)}))
    return 0


def setup_sampler(data_path: Path, wl: Workload, seconds: int, checks, samples: list):
    """A callable that times set-up once in a fresh process and appends the
    seconds to `samples`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(data_path),
           "--workload", wl.name, "--seconds", str(seconds)]

    def sample() -> None:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            checks.record("setup_child", False, f"timed out after {CHILD_TIMEOUT_S} s")
            return
        rec = None
        if proc.returncode == 0 and proc.stdout.strip():
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = rec is not None and rec["graphs"] == wl.num_graphs
        checks.record("setup_child", ok, "" if ok else proc.stderr.strip()[-500:])
        if ok:
            samples.append(rec["setup_s"])

    return sample


# ---------------------------------------------------------------------------
# checks


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def bit_equal(x, y) -> bool:
    """Structural equality with arrays compared byte for byte."""
    import numpy as np
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                and x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes())
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            bit_equal(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(
            bit_equal(x[k], y[k]) for k in x)
    return type(x) is type(y) and x == y


def history_digest(lib, history, path: Path) -> str:
    lib.trainer.write_history(path, history)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def program_sha256() -> str:
    """sha256 over the library's source files, path and bytes, in path order."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_history_hash(checks, key: str, digest: str) -> None:
    """The loss history must hash the same in every run with the same `key`
    in this checkout; the first such run records the digest. The key names
    the program version, inputs and environment, so a digest is only ever
    compared within one version of the code."""
    store = WORK / "history-sha256" / f"{key}.txt"
    if store.exists():
        want = store.read_text().strip()
        checks.record("history_sha256_repeatable", want == digest,
                      "" if want == digest else f"{digest} != recorded {want}")
        return
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, store)
    checks.record("history_sha256_repeatable", True, "first run: digest recorded")


def check_replay(lib, cfg, ds, history, path: Path, checks) -> None:
    """Train the first epoch again from a fresh `init_model`; its loss history
    must match the run's first epoch byte for byte. Unlike the digest, this
    check can fail in the first run of a fresh checkout."""
    state = lib.trainer.init_model(cfg, ds.feature_dim)
    _, replay = lib.gc.train(dataclasses.replace(cfg, epochs=1), ds, state)
    ok = (len(replay) > 0 and history_digest(lib, replay, path)
          == history_digest(lib, history[:len(replay)], path))
    checks.record("history_replay_bit_exact", ok, f"{len(replay)} steps replayed")


def history_key(machine: dict) -> str:
    """The digest key: workload, seed, program, inputs and the environment
    that can change floating-point results."""
    fields = {k: machine[k] for k in ("workload", "seed", "program_sha256", "inputs_sha256",
                                     "run_config", "python", "numpy", "blas", "blas_threads")}
    blob = json.dumps(fields, sort_keys=True).encode()
    return f"{machine['workload']}-seed{machine['seed']}-{hashlib.sha256(blob).hexdigest()[:16]}"


def peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StepClock:
    """Per-step latency from outside the caller: the time between successive
    returns of `module.adam_step` on the parameters `keep` accepts (the first
    step is timed from entering the clock). At each such return it also
    reads the peak resident memory so far, outside the timed interval."""

    def __init__(self, module, keep):
        self.module, self.keep = module, keep
        self.times: list[float] = []
        self.peak_rss_mb: list[float] = []

    def __enter__(self):
        original = self.original = self.module.adam_step
        self.last = time.perf_counter()

        def adam_step(params, grads, opt):
            out = original(params, grads, opt)
            if self.keep(params):
                self.times.append(time.perf_counter() - self.last)
                self.peak_rss_mb.append(peak_rss_mb())
                self.last = time.perf_counter()
            return out

        self.module.adam_step = adam_step
        return self

    def __exit__(self, *exc):
        self.module.adam_step = self.original


# ---------------------------------------------------------------------------
# the pipeline


def run_pipeline(lib, wl: Workload, seconds: int, data_path: Path, digest_key: str,
                 rundir: Path, tracer, checks, setup_sample=None) -> dict:
    """Load, init, then REPEATS rounds of (set-up samples, a training chunk,
    one embedding), then the checkpoint round trip, one more embedding, of
    the reloaded state, and the probe of the trained model.

    Training resumes exactly from the state, so the chunks give the same
    history as one call. Rounds spread the repeated timings over the whole
    run, so a slow spell of the shared machine moves few samples of any one
    metric. Embedding cost does not depend on the parameter values.
    """
    import numpy as np
    times: dict[str, list[float]] = {}

    def timed(key, layer, fn, *args):
        t0 = time.perf_counter()
        if tracer is None:
            out = fn(*args)
        else:
            with tracer.span(key, layer):
                out = fn(*args)
        times.setdefault(key, []).append(time.perf_counter() - t0)
        return out

    cfg = run_config(lib, wl, seconds)
    ds = timed("graphs.load_dataset", "graphs", lib.gc.load_dataset, data_path)
    state = timed("trainer.init_model", "trainer", lib.trainer.init_model, cfg, ds.feature_dim)
    # main parameters only: groupig-param also steps the variational nets
    clock = StepClock(lib.trainer, lambda params: params is state.params)
    history, table = [], None
    for i in range(REPEATS):
        for _ in range(SETUP_PER_ROUND if setup_sample is not None else 0):
            setup_sample()
        # the first chunk holds at least the first epoch, so epoch1_peak_rss_mb
        # is read before any embedding
        chunk = dataclasses.replace(cfg, epochs=max(1, cfg.epochs * (i + 1) // REPEATS))
        with clock:
            state, part = timed("trainer.train", "trainer", lib.gc.train, chunk, ds, state)
        history += part
        table = timed("evaluation.extract_embeddings", "evaluation",
                      lib.gc.extract_embeddings, state, ds)
        checks.record("embeddings_finite", bool(np.all(np.isfinite(table.embeddings))))

    expected = cfg.epochs * wl.steps_per_epoch()
    checks.record("steps_complete", len(history) == expected == len(clock.times),
                  f"history {len(history)}, timed {len(clock.times)}, expected {expected}")
    losses = np.array([[r.intra_positive, r.intra_negative, r.inter_penalty, r.total]
                       for r in history])
    checks.record("history_finite", bool(np.all(np.isfinite(losses))))
    digest = history_digest(lib, history, rundir / "history.csv")
    check_history_hash(checks, digest_key, digest)

    ckpt = rundir / "checkpoint.bin"
    timed("trainer.checkpoint_save", "trainer", lib.gc.checkpoint_save, ckpt, state)
    loaded = timed("trainer.checkpoint_load", "trainer", lib.gc.checkpoint_load, ckpt)
    checks.record("checkpoint_roundtrip_bit_exact", bit_equal(state, loaded))
    reloaded = timed("evaluation.extract_embeddings", "evaluation",
                     lib.gc.extract_embeddings, loaded, ds)
    checks.record("checkpoint_embeddings_bit_exact", bit_equal(reloaded, table))
    probe = timed("evaluation.linear_probe", "evaluation", lib.gc.linear_probe, table, 0)

    med = {k: statistics.median(v) for k, v in times.items()}
    train_s = sum(times["trainer.train"])
    return {
        "cfg": cfg,
        "ds": ds,
        "history": history,
        "times": times,
        "train_s": train_s,
        "step_s": clock.times,
        "step_peak_rss_mb": clock.peak_rss_mb,
        "steps": len(history),
        "graphs": len(ds),
        "probe_test_acc": probe.test_accuracy,
        "peak_rss_mb": peak_rss_mb(),
        "history_sha256": digest,
        # one user-visible pass: set-up, training, checkpoint round trip, one
        # embedding at its median, and the probe
        "pipeline_s": train_s + sum(med[k] for k in (
            "graphs.load_dataset", "trainer.init_model",
            "trainer.checkpoint_save", "trainer.checkpoint_load",
            "evaluation.extract_embeddings", "evaluation.linear_probe")),
    }


def end_to_end_metrics(res: dict, setup_s: float, import_s: float,
                       wl: Workload) -> dict[str, tuple[float, str]]:
    step_ms = [1000.0 * s for s in res["step_s"]]
    med = {k: statistics.median(v) for k, v in res["times"].items()}
    return {
        "setup_s": (setup_s, "s"),
        "train_graphs_per_s": (wl.batch_size * res["steps"] / res["train_s"], "1/s"),
        "step_ms_p50": (statistics.median(step_ms), "ms"),
        "step_ms_p90": (statistics.quantiles(step_ms, n=10)[-1], "ms"),
        "embed_graphs_per_s": (res["graphs"] / med["evaluation.extract_embeddings"], "1/s"),
        "wall_s": (import_s + res["pipeline_s"], "s"),
        # set-up and the first epoch: the memory the computation needs. The
        # whole run's peak adds cyclic garbage (each step's tape) that waits
        # for a full collection; it moved from 0.41 to 0.83 GB by seed on
        # groupcl-default, so it is reported but not gated.
        "epoch1_peak_rss_mb": (res["step_peak_rss_mb"][wl.steps_per_epoch() - 1], "MB"),
    }


# ---------------------------------------------------------------------------
# machine / input record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def effective_blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(wl: Workload, seed: int, cfg, data_sha: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_effective": effective_blas_threads(),
        "workload": wl.name,
        "seed": seed,
        "inputs_sha256": data_sha,
        "program_sha256": program_sha256(),
        "run_config": dataclasses.asdict(cfg),
    }


def declared_metrics(trace: bool) -> dict[str, str] | None:
    """name -> unit from BENCHMARK.json, or None when the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20,
                    help=f"training length: {STEPS_PER_SECOND} optimizer steps per second, "
                         "rounded up to whole epochs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="DATA", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    if args.setup_child:
        return setup_child(args.setup_child, args.workload, args.seconds)

    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import groupcontrast from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    rundir = WORK / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        checks = Checks()
        data_path = rundir / "inputs.jsonl"
        write_inputs(wl, args.seed, data_path)
        data_sha = hashlib.sha256(data_path.read_bytes()).hexdigest()
        machine = machine_block(wl, args.seed, run_config(lib, wl, args.seconds), data_sha)
        if machine["blas_threads_effective"] is not None:
            checks.record("blas_threads", machine["blas_threads_effective"] == BLAS_THREADS,
                          f"effective {machine['blas_threads_effective']}")
        selftest_failures = selftest.failures()
        checks.record("span_selftest", not selftest_failures, "; ".join(selftest_failures))

        tracer = None
        setup: list[float] = []
        sampler = None
        if args.trace:
            tracer = Tracer()
            layers.install(tracer, lib)
        else:
            sampler = setup_sampler(data_path, wl, args.seconds, checks, setup)
        try:
            res = run_pipeline(lib, wl, args.seconds, data_path, history_key(machine), rundir,
                               tracer, checks, sampler)
        finally:
            if tracer is not None:
                tracer.restore()
        # after the timed work and outside the trace, so it moves no metric
        check_replay(lib, res["cfg"], res["ds"], res["history"], rundir / "replay.csv", checks)

        wall_s = import_s + res["pipeline_s"]
        if tracer is not None:
            summary = Summary(tracer)
            checks.record("step_spans", summary.num_steps == res["steps"],
                          f"{summary.num_steps} step spans, {res['steps']} steps")
            worst = max(summary.step_sum_errors(), default=0.0)
            checks.record("step_self_time_sum", worst < 1e-9, f"worst error {worst:.3e} s")
            metrics = layers.metrics(tracer, summary, wall_s, res["probe_test_acc"])
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" / f"{wl.name}.json")
        else:
            if not setup:
                raise RuntimeError("no set-up process succeeded")
            metrics = end_to_end_metrics(res, statistics.median(setup), import_s, wl)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    got = {name: unit for name, (_, unit) in metrics.items()}
    if declared is not None and declared != got:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(got))}, "
              f"extra {sorted(set(got) - set(declared))}, "
              f"units {[n for n in declared if n in got and declared[n] != got[n]]}",
              file=sys.stderr)
        return 1

    attempted = (res["steps"] + len(res["times"]["evaluation.extract_embeddings"])
                 + len(res["times"]["evaluation.linear_probe"]) + len(checks.results))
    failed = checks.failed
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "history_sha256": res["history_sha256"],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "step_ms": [1000.0 * s for s in res["step_s"]],
        "probe_test_acc": res["probe_test_acc"],
        "peak_rss_mb": res["peak_rss_mb"],
        "step_peak_rss_mb": res["step_peak_rss_mb"],
        "call_s": res["times"],
        "setup_s_samples": setup,
    }
    (WORK / "reports").mkdir(exist_ok=True)
    report_path = WORK / "reports" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" steps={res['steps']} epochs={res['cfg'].epochs}")
    print("machine " + json.dumps(machine, separators=(",", ":")))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"probe_test_acc = {res['probe_test_acc']:.6g} ratio, "
          f"peak_rss_mb = {res['peak_rss_mb']:.6g} MB (whole run; both not gated, see README)")
    for name, ok, detail in checks.results:
        if not ok:
            print(f"check {name} FAILED {detail}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} failed of {attempted} "
          f"attempted; {len(checks.results) - failed}/{len(checks.results)} checks passed)")
    print(f"report {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
