import argparse
import json
import re
import shlex
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from groupcontrast import cli, trainer
from groupcontrast.cli import build_parser, main
from groupcontrast.evaluation import export_attention, extract_embeddings, linear_probe
from groupcontrast.graphs import generate_planted_motif_dataset, load_dataset, save_dataset
from groupcontrast.trainer import checkpoint_load


def write_small_dataset(tmp_path, num_graphs=24):
    path = tmp_path / "data.jsonl"
    save_dataset(path, generate_planted_motif_dataset(7, num_graphs, 10, 6))
    return path


FAST_TRAIN = ["epochs=2", "batch_size=12", "num_groups=2", "embed_dim=40",
              "key_dim=16", "gin_hidden=12"]


def run_train(tmp_path, data, out_name, extra=()):
    out = tmp_path / out_name
    rc = main(["train", "--data", str(data), "--out", str(out)]
              + FAST_TRAIN + list(extra))
    assert rc == 0
    return out


def test_count_params_prints_paper_values(capsys):
    assert main(["count-params"]) == 0
    out = capsys.readouterr().out
    assert "groupcl_head=22800" in out
    assert "graphcl_head=51200" in out


@pytest.mark.parametrize("args, name", [
    (["--p", "0"], "p"), (["--p", "-4"], "p"), (["--d-n", "0"], "d_n"),
    (["--d-k", "-5"], "d_k"), (["--d-o", "0"], "d_o"), (["--p", "0", "--d-o", "0"], "p")])
def test_count_params_rejects_non_positive_size(capsys, args, name):
    # --p 0 once died dividing by zero; --d-k -5 printed a negative count
    assert main(["count-params", *args]) == 1
    captured = capsys.readouterr()
    assert f"error: ContractError: {name} must be positive" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_non_utf8_dataset_byte_names_its_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_bytes(b'{"n":1,"x":[0],"e":[]}\n{"n":1,"x":[0],"e":[],"y":\xff}\n')
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: DatasetFormatError: line 2: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


def test_non_utf8_config_byte_names_its_line(tmp_path, capsys):
    data = write_small_dataset(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# run\r\nepochs=2\r\nseed=\xe9\r\n")
    rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: ConfigError: {cfg}: line 3: 'utf-8' codec can't decode byte 0xe9" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_gen_data_writes_file(tmp_path, capsys):
    out = tmp_path / "gen.jsonl"
    rc = main(["gen-data", "--out", str(out), "num_graphs=12",
               "nodes_per_graph=9", "feature_dim=5"])
    assert rc == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 12


@pytest.mark.parametrize("count", ["-4", "0"])
def test_gen_data_rejects_non_positive_count(tmp_path, capsys, count):
    # num_graphs=-4 once exited 0 and wrote an empty file
    out = tmp_path / "gen.jsonl"
    rc = main(["gen-data", "--out", str(out), f"num_graphs={count}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: ConfigError: num_graphs must be positive and even" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_refuses_a_repeated_augmentation_kind(tmp_path, capsys):
    # once accepted, drawing node-drop for 2 of 3 graphs
    data = write_small_dataset(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out)] + FAST_TRAIN
              + ["aug_kinds=node-drop,node-drop"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ConfigError: aug_kinds: repeated augmentation kind 'node-drop'\n")
    assert not out.exists()


def test_train_writes_artifacts(tmp_path):
    data = write_small_dataset(tmp_path)
    out = run_train(tmp_path, data, "run")
    assert (out / "checkpoint.bin").exists()
    assert (out / "history.csv").exists()
    config_txt = (out / "config.txt").read_text()
    assert "epochs=2" in config_txt
    assert "pipeline=groupcl" in config_txt


def test_identical_invocations_byte_identical_history(tmp_path):
    data = write_small_dataset(tmp_path)
    a = run_train(tmp_path, data, "a")
    b = run_train(tmp_path, data, "b")
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()


def test_eval_and_analyze_and_attn(tmp_path):
    data = write_small_dataset(tmp_path, num_graphs=40)
    run = run_train(tmp_path, data, "run")
    ck = run / "checkpoint.bin"

    ev = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(ck), "--data", str(data),
                 "--out", str(ev)]) == 0
    lines = (ev / "embeddings.csv").read_text().splitlines()
    assert len(lines) == 41  # header + one row per graph
    assert lines[0].startswith("id,label,e0")
    # floats are written as their repr, so the file holds every bit
    state = checkpoint_load(ck)
    table = extract_embeddings(state, load_dataset(data))
    cells = [line.split(",") for line in lines[1:]]
    assert [(int(c[0]), int(c[1])) for c in cells] == list(zip(table.ids, table.labels))
    assert np.array([[float(v) for v in c[2:]] for c in cells]).tobytes() \
        == table.embeddings.tobytes()
    # probe.txt holds the L2 value but no confusion counts, probe.csv the
    # reverse; every float as its repr
    probe = linear_probe(table, split_seed=state.config.seed)
    accuracies = [("train_accuracy", probe.train_accuracy),
                  ("validation_accuracy", probe.validation_accuracy),
                  ("test_accuracy", probe.test_accuracy)]
    per_class = [(f"class_{c}_accuracy", acc)
                 for c, acc in enumerate(probe.per_class_accuracy)]
    assert len(per_class) == 2
    assert (ev / "probe.txt").read_text() == "".join(
        f"{name}={float(value)!r}\n" for name, value in
        accuracies + [("selected_regularization", probe.selected_regularization)] + per_class)
    assert (ev / "probe.csv").read_text() == "metric,value\n" + "".join(
        f"{name},{float(value)!r}\n" for name, value in accuracies + per_class) + "".join(
        f"confusion_{i}_{j},{int(probe.confusion[i, j])}\n"
        for i in range(2) for j in range(2))

    an = tmp_path / "analysis"
    assert main(["analyze", "--checkpoint", str(ck), "--out", str(an)]) == 0
    m = np.loadtxt(an / "query_cosine.csv", delimiter=",")
    assert m.shape == (2, 2)
    assert np.allclose(np.diag(m), 1.0)

    at = tmp_path / "attn"
    assert main(["export-attn", "--checkpoint", str(ck), "--data", str(data),
                 "--out", str(at), "--graph-ids", "0,3"]) == 0
    rows = (at / "attention.csv").read_text().splitlines()
    assert rows[0] == "graph,node,group,weight,is_top"
    assert len(rows) == 1 + 2 * 10 * 2  # two graphs, 10 nodes, 2 groups
    w = export_attention(state, load_dataset(data).graphs[3])
    top = w.argmax(axis=0)
    assert rows[21:] == [f"3,{v},{k},{float(w[v, k])!r},{int(top[k] == v)}"
                         for v in range(10) for k in range(2)]


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    data = write_small_dataset(tmp_path)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
               "learning_rte=0.01"])
    assert rc == 1
    assert "error: ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["learning_rate=nan", "key_dim=0", "aug_ratio=7.0"])
def test_rejected_config_value_exits_nonzero(tmp_path, capsys, bad):
    data = write_small_dataset(tmp_path)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
               "pipeline=groupig", bad])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: ConfigError" in err and bad.partition("=")[0] in err
    assert "Traceback" not in err


def test_negative_seed_exits_before_writing(tmp_path, capsys):
    data = write_small_dataset(tmp_path)
    out, gen = tmp_path / "x", tmp_path / "gen.jsonl"
    assert main(["train", "--data", str(data), "--out", str(out), "seed=-3"]) == 1
    assert main(["gen-data", "--out", str(gen), "seed=-1"]) == 1
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2 and all(e.startswith("error: ConfigError: seed") for e in errs)
    assert not (out / "config.txt").exists() and not gen.exists()


def test_overflowing_step_names_epoch_and_step(tmp_path, capsys):
    # one line on stderr naming the step: no numpy RuntimeWarning (which the
    # suite's warning filter would turn into an error: RuntimeWarning line)
    data = write_small_dataset(tmp_path)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "x")]
              + FAST_TRAIN + ["learning_rate=1e305"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NumericError: epoch 0 step ")
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_skipped_batch_warning_prints_one_line(tmp_path, capsys):
    # 22 graphs in batches of 3 leave a 1-graph batch 7 each epoch; the
    # warning prints as one line, not as Python's file:line and source form
    data, out = tmp_path / "d.jsonl", tmp_path / "r"
    assert main(["gen-data", "--out", str(data), "num_graphs=22"]) == 0
    capsys.readouterr()
    shown = warnings.showwarning
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["train", "--data", str(data), "--out", str(out),
                     "epochs=2", "batch_size=3"]) == 0
        assert warnings.showwarning is shown
    assert capsys.readouterr().err == "".join(
        f"warning: epoch {e}: skipping batch 7 with <2 graphs\n" for e in range(2))


def test_warning_raised_as_error_prints_one_line(tmp_path, capsys):
    # under -W error the skipped-batch warning once escaped as a traceback
    data, out = tmp_path / "d.jsonl", tmp_path / "r"
    assert main(["gen-data", "--out", str(data), "num_graphs=22"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--data", str(data), "--out", str(out),
                     "epochs=2", "batch_size=3"]) == 1
    assert capsys.readouterr().err == (
        "error: UserWarning: epoch 0: skipping batch 7 with <2 graphs\n")
    assert not out.exists()


def test_readme_cli_examples_parse():
    # every example of the README's CLI block parses, and every command has
    # one, so a removed option or command cannot linger in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = build_parser()
    commands = set()
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        assert words[0] == "groupcontrast", line
        try:
            commands.add(parser.parse_args(words[1:]).command)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(sub.choices)


def test_missing_data_file_exits_nonzero(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_dataset_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n":2,"x":[0,0],"e":[0,9]}\n')
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_export_attn_rejects_bad_graph_id(tmp_path, capsys):
    # the valid id 0 once left a partial attention.csv behind
    data = write_small_dataset(tmp_path)
    run = run_train(tmp_path, data, "run")
    rc = main(["export-attn", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(data), "--out", str(tmp_path / "attn"),
               "--graph-ids", "0,999"])
    assert rc == 1
    assert "error: GraphError: graph id 999 out of range" in capsys.readouterr().err
    assert not (tmp_path / "attn").exists()


def test_export_attn_refuses_a_repeated_graph_id(tmp_path, capsys, monkeypatch):
    # "0,0" once wrote every row of graph 0 twice and reported 2 graphs
    data = write_small_dataset(tmp_path)
    run = run_train(tmp_path, data, "run")
    capsys.readouterr()
    loads = []
    monkeypatch.setattr(cli, "checkpoint_load",
                        lambda path: loads.append(path) or checkpoint_load(path))
    rc = main(["export-attn", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(data), "--out", str(tmp_path / "attn"), "--graph-ids", "0,1,0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: ConfigError: --graph-ids: duplicate id 0\n"
    assert loads == [] and not (tmp_path / "attn").exists()


@pytest.mark.parametrize("command", ["eval", "export-attn"])
def test_feature_width_mismatch_names_both_widths(tmp_path, capsys, command):
    # export-attn once failed inside the first matmul:
    # "DimensionError: matmul: incompatible shapes (14, 6) @ (8, 32)"
    wide = tmp_path / "wide.jsonl"
    save_dataset(wide, generate_planted_motif_dataset(7, 24, 10, 8))
    run = run_train(tmp_path, wide, "run")
    capsys.readouterr()
    argv = [command, "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(write_small_dataset(tmp_path)), "--out", str(tmp_path / "out")]
    rc = main(argv + (["--graph-ids", "0"] if command == "export-attn" else []))
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ContractError: dataset feature dim 6 does not match model input width 8\n")
    assert not (tmp_path / "out").exists()


def test_eval_on_an_empty_file_names_the_empty_dataset(tmp_path, capsys):
    # it once failed on the width check instead, an empty file's dataset
    # having feature dim 0: "dataset feature dim 0 does not match model
    # input width 6"
    run = run_train(tmp_path, write_small_dataset(tmp_path), "run")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(empty), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: ContractError: dataset is empty\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["huge-label", "unlabeled"])
def test_eval_whose_probe_fails_writes_nothing(tmp_path, capsys, case):
    # the huge label once escaped as an OverflowError traceback; the
    # unlabeled dataset once left embeddings.csv behind
    data = write_small_dataset(tmp_path)
    run = run_train(tmp_path, data, "run")
    records = [json.loads(line) for line in data.read_text().splitlines()]
    if case == "huge-label":
        records[5]["y"] = 10**30
        message = (f"labels: label {10**30} is not below 24, the number of labeled graphs; "
                   "the probe caps labels there because its blocks are as wide as the "
                   "largest label")
    else:
        for rec in records:
            del rec["y"]
        message = "labels: linear probe requires labeled graphs"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: ContractError: {message}\n"
    assert not (tmp_path / "eval").exists()


def test_export_attn_rejects_baseline_checkpoint(tmp_path, capsys):
    data = write_small_dataset(tmp_path)
    run = run_train(tmp_path, data, "run", extra=["pipeline=graphcl-baseline"])
    rc = main(["export-attn", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(data), "--out", str(tmp_path / "attn"),
               "--graph-ids", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: ContractError: model has no representor" in err
    assert "Traceback" not in err


def test_eval_rejects_checkpoint_header_without_epoch(tmp_path, capsys):
    data = write_small_dataset(tmp_path)
    ck = run_train(tmp_path, data, "run") / "checkpoint.bin"
    raw = ck.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + n])
    # a version-1 header carries no digest, so its fields are checked as read
    del header["epoch"], header["sha256"]
    header["version"] = 1
    blob = json.dumps(header).encode()
    ck.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])
    rc = main(["eval", "--checkpoint", str(ck), "--data", str(data),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: CheckpointError" in err and "epoch" in err
    assert "Traceback" not in err


STUDY_TRAIN = ["epochs=1", "batch_size=20", "embed_dim=40", "key_dim=16", "gin_hidden=12"]


def test_study_writes_grid(tmp_path):
    data = write_small_dataset(tmp_path, num_graphs=40)
    out = tmp_path / "study"
    rc = main(["study", "--data", str(data), "--out", str(out),
               "--grid", "num_groups=1,4", "--grid", "diversity_weight=0.0,0.5"] + STUDY_TRAIN)
    assert rc == 0
    rows = (out / "study.csv").read_text().splitlines()
    assert rows[0] == "num_groups,diversity_weight,final_loss,test_accuracy"
    # the axes in command-line order, the last varying fastest
    assert [row.rsplit(",", 2)[0] for row in rows[1:]] == ["1,0.0", "1,0.5", "4,0.0", "4,0.5"]


def _last_total(run) -> str:
    return (run / "history.csv").read_text().splitlines()[-1].rsplit(",", 1)[1]


def _probe_test_accuracy(out) -> str:
    lines = (out / "probe.txt").read_text().splitlines()
    return next(line.partition("=")[2] for line in lines if line.startswith("test_accuracy="))


def test_study_seed_axis_matches_single_runs(tmp_path):
    # each row holds the final total of history.csv and the probe.txt test
    # accuracy of train + eval at that point; with no axis, the fixed config
    # once. On this corpus the probe's split seed moves the test accuracy.
    data = tmp_path / "data.jsonl"
    save_dataset(data, generate_planted_motif_dataset(7, 60, 14, 8))
    assert main(["study", "--data", str(data), "--out", str(tmp_path / "study"),
                 "--grid", "seed=0,1,2"] + STUDY_TRAIN) == 0
    assert main(["study", "--data", str(data), "--out", str(tmp_path / "one"),
                 "seed=1"] + STUDY_TRAIN) == 0
    expected = ["seed,final_loss,test_accuracy"]
    for seed in range(3):
        run = tmp_path / f"run{seed}"
        assert main(["train", "--data", str(data), "--out", str(run),
                     f"seed={seed}"] + STUDY_TRAIN) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data),
                     "--out", str(tmp_path / f"eval{seed}")]) == 0
        expected.append(f"{seed},{_last_total(run)},"
                        f"{_probe_test_accuracy(tmp_path / f'eval{seed}')}")
    assert (tmp_path / "study" / "study.csv").read_text().splitlines() == expected
    assert (tmp_path / "one" / "study.csv").read_text().splitlines() == [
        "final_loss,test_accuracy", expected[2].partition(",")[2]]


def test_study_strips_axis_items(tmp_path):
    # a string field's items are stripped, as an override's value is
    data = write_small_dataset(tmp_path)
    out = tmp_path / "study"
    assert main(["study", "--data", str(data), "--out", str(out),
                 "--grid", "estimator=nonparam, param", "epochs=0"] + FAST_TRAIN[2:]) == 0
    rows = (out / "study.csv").read_text().splitlines()
    assert [row.split(",", 2)[:2] for row in rows] == [
        ["estimator", "final_loss"], ["nonparam", "nan"], ["param", "nan"]]


def test_study_checks_every_grid_point_before_training(tmp_path, capsys, monkeypatch):
    # p=3 does not divide embed_dim=40; the runs for p=1 and p=2 once
    # trained before the grid failed and nothing was written
    data = write_small_dataset(tmp_path)
    calls = []

    def train(config, dataset, state=None):
        calls.append(config.num_groups)
        return trainer.train(config, dataset, state)

    monkeypatch.setattr(cli, "train", train)
    out = tmp_path / "study"
    assert main(["study", "--data", str(data), "--out", str(out), "--grid", "num_groups=1,2,3",
                 "--grid", "diversity_weight=0.5"] + FAST_TRAIN[:2] + ["embed_dim=40"]) == 1
    assert capsys.readouterr().err == (
        "error: ConfigError: embed_dim 40 not divisible by num_groups 3\n")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--grid", "num_grups=1,2"], "unknown config keys: ['num_grups']"),
    (["--grid", "seed=0,1", "--grid", "seed=2"], "duplicate key 'seed'"),
    (["--grid", "num_groups=1,2", "num_groups=2"],
     "keys both fixed and grid axes: ['num_groups']"),
    (["--grid", "epochs=1,2", "--config", "CONFIG"], "keys both fixed and grid axes: ['epochs']"),
])
def test_study_refuses_bad_axis_before_training(tmp_path, capsys, monkeypatch, argv, message):
    data = write_small_dataset(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("epochs=2\n")
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("a run trained"))
    out = tmp_path / "study"
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    assert main(["study", "--data", str(data), "--out", str(out)] + argv) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not out.exists()


def test_study_failing_point_leaves_no_out(tmp_path, capsys, monkeypatch):
    # the first point trains; the second overflows, and the command writes nothing
    data = write_small_dataset(tmp_path)
    calls = []

    def train(config, dataset, state=None):
        calls.append(config.learning_rate)
        return trainer.train(config, dataset, state)

    monkeypatch.setattr(cli, "train", train)
    out = tmp_path / "study"
    assert main(["study", "--data", str(data), "--out", str(out),
                 "--grid", "learning_rate=0.001,1e305"] + FAST_TRAIN) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NumericError: epoch 0 step ") and err.count("\n") == 1
    assert err.endswith(": mlp: non-finite output\n")
    assert calls == [0.001, 1e305] and not out.exists()


@pytest.mark.parametrize("below", ["", "sub/dir"])
@pytest.mark.parametrize("command", ["train", "eval", "analyze", "export-attn", "study"])
def test_out_below_a_file_exits_before_reading_anything(tmp_path, capsys, monkeypatch,
                                                        command, below):
    # train and study once read the data and trained to the end, then
    # failed with FileExistsError or NotADirectoryError; the checkpoint
    # does not exist, so reading it would fail with another error
    data = write_small_dataset(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("a run trained"))
    out = str(blocker / below) if below else str(blocker)
    argv = {"train": ["--data", str(data)] + FAST_TRAIN,
            "study": ["--data", str(data), "--grid", "seed=0,1"] + FAST_TRAIN,
            "eval": ["--data", str(data)],
            "analyze": [],
            "export-attn": ["--data", str(data), "--graph-ids", "0"]}[command]
    if command in ("eval", "analyze", "export-attn"):
        argv += ["--checkpoint", str(tmp_path / "missing.bin")]
    assert main([command, "--out", out] + argv) == 1
    assert capsys.readouterr().err == (
        f"error: NotADirectoryError: --out {out}: {blocker} is not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "file"]
    assert blocker.read_text() == "kept\n"


def test_train_epochs_zero_writes_initial_checkpoint(tmp_path):
    data = write_small_dataset(tmp_path)
    out = tmp_path / "zero"
    rc = main(["train", "--data", str(data), "--out", str(out), "epochs=0",
               "embed_dim=40", "key_dim=16", "num_groups=2", "gin_hidden=12"])
    assert rc == 0
    assert (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--graph-ids", "1.5", "invalid value for '--graph-ids': .*'1.5'"),
    ("--graph-ids", ",", "--graph-ids: no values in ','"),
    ("--grid", "num_groups=2,x", "invalid value for 'num_groups': .*'x'"),
    ("--grid", "diversity_weight= , ", "diversity_weight: no values in ','"),
])
def test_list_option_names_option_and_item(tmp_path, capsys, option, value, message):
    # a bad item once escaped as a bare int()/float() ValueError, and an
    # empty --graph-ids wrote a header-only attention.csv
    data = write_small_dataset(tmp_path)
    out = tmp_path / "out"
    if option == "--graph-ids":
        run = run_train(tmp_path, data, "run")
        argv = ["export-attn", "--checkpoint", str(run / "checkpoint.bin")]
    else:
        argv = ["study"] + FAST_TRAIN[:2]
    capsys.readouterr()
    assert main(argv + ["--data", str(data), "--out", str(out), option, value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and re.fullmatch(f"error: ConfigError: {message}\n", err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_model_too_large_to_allocate_prints_one_line(tmp_path, capsys, monkeypatch, command):
    # a model the machine cannot hold (say gin_hidden=1000000) once printed
    # numpy's allocation traceback; init_model stands in for the allocation
    data = write_small_dataset(tmp_path)
    run = run_train(tmp_path, data, "run")

    def init_model(config, feature_dim):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(trainer, "init_model", init_model)
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "big")] + FAST_TRAIN
        message = "error: MemoryError: Unable to allocate 7.28 TiB\n"
    else:
        argv = ["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data),
                "--out", str(tmp_path / "eval")]
        message = "error: CheckpointError: cannot allocate the model of the stored config "
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "big").exists() and not (tmp_path / "eval").exists()
