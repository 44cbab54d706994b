import json
import struct

import numpy as np
import pytest

from groupcontrast.cli import main
from groupcontrast.graphs import generate_planted_motif_dataset, save_dataset


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
    assert (ev / "embeddings.csv").exists()
    assert (ev / "probe.txt").exists()
    lines = (ev / "embeddings.csv").read_text().splitlines()
    assert len(lines) == 41  # header + one row per graph
    assert lines[0].startswith("id,label,e0")

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
    # one line on stderr: no numpy RuntimeWarning (which the suite's
    # warning filter would also turn into an error escaping the CLI)
    data = write_small_dataset(tmp_path)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "x")]
              + FAST_TRAIN + ["learning_rate=1e305"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NumericError: epoch 0 step ")
    assert err.count("\n") == 1


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
    data = write_small_dataset(tmp_path)
    run = run_train(tmp_path, data, "run")
    rc = main(["export-attn", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(data), "--out", str(tmp_path / "attn"),
               "--graph-ids", "999"])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


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


def test_sweep_writes_grid(tmp_path):
    data = write_small_dataset(tmp_path, num_graphs=40)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--data", str(data), "--out", str(out),
               "--p-grid", "1,4", "--lambda-grid", "0.5",
               "epochs=1", "batch_size=20", "embed_dim=40", "key_dim=16",
               "gin_hidden=12"])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "p,lambda,final_loss,test_accuracy"
    assert len(rows) == 3
    assert rows[1].startswith("1,0.5,")
    assert rows[2].startswith("4,0.5,")


def test_train_epochs_zero_writes_initial_checkpoint(tmp_path):
    data = write_small_dataset(tmp_path)
    out = tmp_path / "zero"
    rc = main(["train", "--data", str(data), "--out", str(out), "epochs=0",
               "embed_dim=40", "key_dim=16", "num_groups=2", "gin_hidden=12"])
    assert rc == 0
    assert (out / "checkpoint.bin").exists()
