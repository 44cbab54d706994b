"""Command-line entry point tying the engine into runnable experiments."""
from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .config import (ConfigError, DataConfig, RunConfig, _convert, format_config, load_config,
                     load_grid, parse_pairs)
from .evaluation import (count_head_params, export_attention, extract_embeddings,
                         linear_probe, mean_offdiag_abs_cosine, query_cosine_matrix)
from .graphs import GraphError, generate_planted_motif_dataset, load_dataset, save_dataset
from .tensor import NumericError
from .trainer import (CheckpointError, TrainingError, checkpoint_load,
                      checkpoint_save, train, write_history)

# ValueError covers ConfigError, DatasetFormatError, GraphError, ContractError, DimensionError;
# MemoryError covers a model too large to allocate; Warning covers one raised under -W error
_KNOWN_ERRORS = (ValueError, OSError, MemoryError, NumericError, TrainingError, CheckpointError,
                 Warning)


def _parse_list(option: str, text: str, kind) -> list:
    """The items of a comma-separated option, each converted as a config
    value is; a bad item or an empty list raises ConfigError naming it."""
    items = [_convert(option, item.strip(), kind) for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"{option}: no values in {text!r}")
    return items


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_rows(path: Path, header, rows) -> None:
    """Write one comma-separated line per row, after the header unless it is
    None: UTF-8, "\\n" line ends, floats as their repr (every bit kept).
    Creates the file's directory, so a command that fails before its first
    write leaves no output directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if header is not None:
            f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_cell(value) for value in row) + "\n")


def _probe_metrics(probe) -> list[tuple[str, object]]:
    """The probe's results as (metric, value) pairs, in file order."""
    pairs = [
        ("train_accuracy", probe.train_accuracy),
        ("validation_accuracy", probe.validation_accuracy),
        ("test_accuracy", probe.test_accuracy),
        ("selected_regularization", probe.selected_regularization),
    ]
    pairs += [(f"class_{c}_accuracy", acc) for c, acc in enumerate(probe.per_class_accuracy)]
    for i, row in enumerate(probe.confusion):
        pairs += [(f"confusion_{i}_{j}", int(count)) for j, count in enumerate(row)]
    return pairs


def _cmd_gen_data(args) -> int:
    cfg = load_config(DataConfig, args.config, args.override)
    dataset = generate_planted_motif_dataset(
        cfg.seed, cfg.num_graphs, cfg.nodes_per_graph, cfg.feature_dim)
    save_dataset(args.out, dataset)
    print(f"wrote {len(dataset)} graphs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(RunConfig, args.config, args.override)
    dataset = load_dataset(args.data)
    state, history = train(cfg, dataset)
    # a step can leave weights whose forward overflows; such a model is
    # refused before anything is written
    try:
        extract_embeddings(state, dataset)
    except NumericError as exc:
        raise type(exc)(f"trained model: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(format_config(cfg), encoding="utf-8")
    checkpoint_save(out / "checkpoint.bin", state)
    write_history(out / "history.csv", history)
    final = history[-1].total if history else float("nan")
    print(f"trained {cfg.epochs} epochs ({len(history)} steps), final loss {final}")
    return 0


def _cmd_eval(args) -> int:
    state = checkpoint_load(args.checkpoint)
    dataset = load_dataset(args.data)
    table = extract_embeddings(state, dataset)
    probe = linear_probe(table, split_seed=state.config.seed)
    out = Path(args.out)
    _write_rows(out / "embeddings.csv",
                ["id", "label"] + [f"e{i}" for i in range(table.embeddings.shape[1])],
                ((gid, label, *row) for gid, label, row
                 in zip(table.ids, table.labels, table.embeddings)))
    metrics = _probe_metrics(probe)
    # probe.txt omits the confusion counts, probe.csv the selected L2 value
    _write_rows(out / "probe.txt", None,
                ([f"{name}={_cell(value)}"] for name, value in metrics
                 if not name.startswith("confusion_")))
    _write_rows(out / "probe.csv", ["metric", "value"],
                (pair for pair in metrics if pair[0] != "selected_regularization"))
    print(f"test accuracy {probe.test_accuracy:.4f} "
          f"(val {probe.validation_accuracy:.4f}, reg {probe.selected_regularization})")
    return 0


def _cmd_analyze(args) -> int:
    state = checkpoint_load(args.checkpoint)
    _write_rows(Path(args.out) / "query_cosine.csv", None, query_cosine_matrix(state))
    print(f"mean off-diagonal |cosine| = {mean_offdiag_abs_cosine(state):.6f}")
    return 0


def _cmd_export_attn(args) -> int:
    ids = _parse_list("--graph-ids", args.graph_ids, int)
    for i, gid in enumerate(ids):  # a repeated id would write its graph's rows twice
        if gid in ids[:i]:
            raise ConfigError(f"--graph-ids: duplicate id {gid}")
    state = checkpoint_load(args.checkpoint)
    dataset = load_dataset(args.data)
    rows = []
    for gid in ids:
        if not (0 <= gid < len(dataset)):
            raise GraphError(f"graph id {gid} out of range (dataset has {len(dataset)})")
        w = export_attention(state, dataset.graphs[gid])
        top = w.argmax(axis=0)  # the first maximum of each group's column
        rows += [(gid, node, group, w[node, group], int(top[group] == node))
                 for node in range(w.shape[0]) for group in range(w.shape[1])]
    _write_rows(Path(args.out) / "attention.csv",
                ["graph", "node", "group", "weight", "is_top"], rows)
    print(f"exported attention for {len(ids)} graphs")
    return 0


def _cmd_count_params(args) -> int:
    counts = count_head_params(args.p, args.d_n, args.d_k, args.d_o)
    print(f"groupcl_head={counts['groupcl_head']}")
    print(f"graphcl_head={counts['graphcl_head']}")
    return 0


def _cmd_study(args) -> int:
    axes = {key: _parse_list(key, text, str) for key, text in parse_pairs(args.grid).items()}
    grid = load_grid(RunConfig, args.config, args.override, axes)  # checked before any run trains
    dataset = load_dataset(args.data)
    rows = []
    for i, cfg in enumerate(grid):
        state, history = train(cfg, dataset)
        probe = linear_probe(extract_embeddings(state, dataset), split_seed=cfg.seed)
        final = history[-1].total if history else float("nan")
        rows.append((*(getattr(cfg, key) for key in axes), final, probe.test_accuracy))
        print(f"point {i + 1}/{len(grid)}: test accuracy {probe.test_accuracy:.4f}")
    _write_rows(Path(args.out) / "study.csv", [*axes, "final_loss", "test_accuracy"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcontrast",
        description="Group-contrastive self-supervised learning engine for graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("override", nargs="*", metavar="key=value",
                       help="config overrides")

    p = sub.add_parser("gen-data", help="generate a synthetic planted-motif dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    add_overrides(p)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    add_overrides(p)
    p.set_defaults(fn=_cmd_train, out_dir=True)

    p = sub.add_parser("eval", help="extract embeddings and run the linear probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval, out_dir=True)

    p = sub.add_parser("analyze", help="write the query cosine-similarity matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze, out_dir=True)

    p = sub.add_parser("export-attn", help="export per-node attention weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--graph-ids", required=True, help="comma-separated graph indices")
    p.set_defaults(fn=_cmd_export_attn, out_dir=True)

    p = sub.add_parser("count-params", help="compare post-encoder head parameter counts")
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--d-n", type=int, default=160)
    p.add_argument("--d-k", type=int, default=100)
    p.add_argument("--d-o", type=int, default=160)
    p.set_defaults(fn=_cmd_count_params)

    p = sub.add_parser("study", help="train and probe every point of a config grid")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", action="append", default=[], metavar="key=v1,v2")
    add_overrides(p)
    p.set_defaults(fn=_cmd_study, out_dir=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = warnings.showwarning  # one-line warnings, like errors; filters stay as they are
    warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}", file=sys.stderr)
    try:
        if getattr(args, "out_dir", False):  # refuse a file at or above --out before any read
            out = Path(args.out).absolute()
            found = next(p for p in (out, *out.parents) if p.exists())
            if not found.is_dir():
                raise NotADirectoryError(f"--out {args.out}: {found} is not a directory")
        return args.fn(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
