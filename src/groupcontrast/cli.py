"""Command-line entry point tying the engine into runnable experiments."""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import (ConfigError, DataConfig, RunConfig, format_config, load_config)
from .evaluation import (count_head_params, export_attention, extract_embeddings,
                         linear_probe, mean_offdiag_abs_cosine, query_cosine_matrix)
from .graphs import (DatasetFormatError, GraphError, generate_planted_motif_dataset,
                     load_dataset, save_dataset)
from .tensor import ContractError, DimensionError, NumericError
from .trainer import (CheckpointError, TrainingError, checkpoint_load,
                      checkpoint_save, train, write_history)

_KNOWN_ERRORS = (
    ConfigError, DatasetFormatError, GraphError, TrainingError, CheckpointError,
    ContractError, DimensionError, NumericError, OSError, ValueError,
)


def _write_probe(out_dir: Path, probe) -> None:
    lines = [
        f"train_accuracy={probe.train_accuracy!r}",
        f"validation_accuracy={probe.validation_accuracy!r}",
        f"test_accuracy={probe.test_accuracy!r}",
        f"selected_regularization={probe.selected_regularization!r}",
    ]
    for c, acc in enumerate(probe.per_class_accuracy):
        lines.append(f"class_{c}_accuracy={acc!r}")
    (out_dir / "probe.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(out_dir / "probe.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("metric,value\n")
        f.write(f"train_accuracy,{probe.train_accuracy!r}\n")
        f.write(f"validation_accuracy,{probe.validation_accuracy!r}\n")
        f.write(f"test_accuracy,{probe.test_accuracy!r}\n")
        for c, acc in enumerate(probe.per_class_accuracy):
            f.write(f"class_{c}_accuracy,{acc!r}\n")
        n = probe.confusion.shape[0]
        for i in range(n):
            for j in range(n):
                f.write(f"confusion_{i}_{j},{int(probe.confusion[i, j])}\n")


def _write_embeddings(path: Path, table) -> None:
    d = table.embeddings.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("id,label," + ",".join(f"e{i}" for i in range(d)) + "\n")
        for gid, label, row in zip(table.ids, table.labels, table.embeddings):
            lbl = "" if label is None else str(label)
            f.write(f"{gid},{lbl}," + ",".join(repr(float(v)) for v in row) + "\n")


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(format_config(cfg), encoding="utf-8")
    state, history = train(cfg, dataset)
    checkpoint_save(out / "checkpoint.bin", state)
    write_history(out / "history.csv", history)
    final = history[-1].total if history else float("nan")
    print(f"trained {cfg.epochs} epochs ({len(history)} steps), final loss {final}")
    return 0


def _cmd_eval(args) -> int:
    state = checkpoint_load(args.checkpoint)
    dataset = load_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = extract_embeddings(state, dataset)
    _write_embeddings(out / "embeddings.csv", table)
    probe = linear_probe(table, split_seed=state.config.seed)
    _write_probe(out, probe)
    print(f"test accuracy {probe.test_accuracy:.4f} "
          f"(val {probe.validation_accuracy:.4f}, reg {probe.selected_regularization})")
    return 0


def _cmd_analyze(args) -> int:
    state = checkpoint_load(args.checkpoint)
    m = query_cosine_matrix(state)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "query_cosine.csv", "w", encoding="utf-8", newline="\n") as f:
        for row in m:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"mean off-diagonal |cosine| = {mean_offdiag_abs_cosine(state):.6f}")
    return 0


def _cmd_export_attn(args) -> int:
    state = checkpoint_load(args.checkpoint)
    dataset = load_dataset(args.data)
    ids = [int(s) for s in args.graph_ids.split(",") if s.strip()]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "attention.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("graph,node,group,weight,is_top\n")
        for gid in ids:
            if not (0 <= gid < len(dataset)):
                raise GraphError(f"graph id {gid} out of range (dataset has {len(dataset)})")
            records, top = export_attention(state, dataset.graphs[gid])
            for rec in records:
                flag = 1 if top[rec.group] == rec.node else 0
                f.write(f"{gid},{rec.node},{rec.group},{rec.weight!r},{flag}\n")
    print(f"exported attention for {len(ids)} graphs")
    return 0


def _cmd_count_params(args) -> int:
    counts = count_head_params(args.p, args.d_n, args.d_k, args.d_o)
    print(f"groupcl_head={counts['groupcl_head']}")
    print(f"graphcl_head={counts['graphcl_head']}")
    return 0


def _cmd_sweep(args) -> int:
    base = load_config(RunConfig, args.config, args.override)
    dataset = load_dataset(args.data)
    p_values = [int(s) for s in args.p_grid.split(",") if s.strip()]
    lam_values = [float(s) for s in args.lambda_grid.split(",") if s.strip()]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for p in p_values:
        for lam in lam_values:
            cfg = dataclasses.replace(base, num_groups=p, diversity_weight=lam)
            state, history = train(cfg, dataset)
            table = extract_embeddings(state, dataset)
            probe = linear_probe(table, split_seed=cfg.seed)
            final = history[-1].total if history else float("nan")
            rows.append((p, lam, final, probe.test_accuracy))
            print(f"p={p} lambda={lam}: test accuracy {probe.test_accuracy:.4f}")
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("p,lambda,final_loss,test_accuracy\n")
        for p, lam, final, acc in rows:
            f.write(f"{p},{lam},{final!r},{acc!r}\n")
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
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="extract embeddings and run the linear probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("analyze", help="write the query cosine-similarity matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("export-attn", help="export per-node attention weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--graph-ids", required=True, help="comma-separated graph indices")
    p.set_defaults(fn=_cmd_export_attn)

    p = sub.add_parser("count-params", help="compare post-encoder head parameter counts")
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--d-n", type=int, default=160)
    p.add_argument("--d-k", type=int, default=100)
    p.add_argument("--d-o", type=int, default=160)
    p.set_defaults(fn=_cmd_count_params)

    p = sub.add_parser("sweep", help="grid over group count and diversity weight")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--p-grid", default="1,2,3,4,5")
    p.add_argument("--lambda-grid", default="0.0,0.1,0.3,0.5,0.7,0.9")
    add_overrides(p)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
