import dataclasses

import numpy as np
import pytest

from wavecnn import build
from wavecnn.cli import _parser, main
from wavecnn.tensor import RandomSource
from wavecnn.training import Checkpoint, TrainConfig, save_checkpoint

from test_audio import write_corpus


class TestInspect:
    def test_m3_tokens(self, capsys):
        assert main(["inspect", "--arch", "m3"]) == 0
        out = capsys.readouterr().out
        assert "params_exact=220682" in out
        assert "params_rounded=0.2M" in out
        assert "weight_layers=3" in out

    def test_m18_shape_trace_tokens(self, capsys):
        assert main(["inspect", "--arch", "m18"]) == 0
        out = capsys.readouterr().out
        for token in ("2000 x 64", "500 x 128", "125 x 256", "32 x 512", "1 x 512"):
            assert token in out, token

    def test_machine_readable_rows(self, capsys):
        main(["inspect", "--arch", "m5"])
        out = capsys.readouterr().out
        assert "row name=conv1 t=8000 c=128" in out

    def test_unknown_arch_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--arch", "m99"])
        assert exc.value.code == 2


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--arch", "m3", "--bogus"])
        assert exc.value.code == 2

    def test_train_defaults_are_train_config_defaults(self):
        args = _parser().parse_args(["train", "--arch", "m3", "--data", "d", "--meta", "m.csv"])
        flags = {"epochs": "epochs", "batch_size": "batch_size", "lr": "alpha",
                 "l2": "l2_coeff", "seed": "seed", "test_fold": "test_fold",
                 "val_fold": "val_fold", "ckpt_every": "checkpoint_every"}
        defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        for flag, field in flags.items():
            assert getattr(args, flag) == defaults[field], flag

    @pytest.mark.parametrize("cmd", ["train", "eval", "inspect", "kernels", "smoke"])
    def test_help_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out and "default" in out.lower()


@pytest.fixture()
def m18_ckpt(tmp_path):
    graph = build("m18", rng=RandomSource(1))
    path = tmp_path / "m18.ckpt"
    save_checkpoint(
        Checkpoint(version=1, arch="m18", epoch=0, params=graph.params,
                   state=graph.state, config={"num_classes": 10}),
        path,
    )
    return path


class TestKernels:
    def test_csv_and_pgm_outputs(self, m18_ckpt, tmp_path, capsys):
        csv = tmp_path / "spec.csv"
        pgm = tmp_path / "spec.pgm"
        code = main(["kernels", "--ckpt", str(m18_ckpt), "--out-csv", str(csv),
                     "--out-pgm", str(pgm)])
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 65 and len(lines[0].split(",")) == 41
        assert pgm.read_bytes().startswith(b"P5\n41 64\n255\n")
        assert "100 Hz per bin" in capsys.readouterr().out

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = main(["kernels", "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--out-csv", str(tmp_path / "out.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrainEval:
    def test_end_to_end_on_disk_corpus(self, tmp_path, capsys):
        meta = write_corpus(tmp_path, n_files=12)
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "metrics.csv"
        code = main([
            "train", "--arch", "m3", "--data", str(tmp_path), "--meta", str(meta),
            "--epochs", "2", "--batch-size", "4", "--seed", "5",
            "--out", str(ckpt), "--log", str(log),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trained m3 for 2 epoch(s)" in out
        assert ckpt.exists()
        assert log.read_text().startswith("epoch,train_loss,train_acc,test_acc,seconds")

        code = main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path),
                     "--meta", str(meta), "--fold", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "confusion matrix" in out
        assert "sine" in out and "noise" in out

    def test_train_refuses_a_nan_step_size_before_training(self, tmp_path, capsys):
        meta = write_corpus(tmp_path, n_files=4, folds=(1,))
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--arch", "m3", "--data", str(tmp_path), "--meta", str(meta),
                     "--epochs", "1", "--batch-size", "4", "--lr", "nan", "--out", str(ckpt)])
        assert code == 1
        assert "error: alpha must be finite and > 0, not nan" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_eval_empty_fold_is_runtime_error(self, tmp_path, capsys):
        meta = write_corpus(tmp_path, n_files=4, folds=(1,))
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--arch", "m3", "--data", str(tmp_path), "--meta", str(meta),
              "--epochs", "1", "--batch-size", "4", "--test-fold", "10",
              "--out", str(ckpt)])
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path),
                     "--meta", str(meta), "--fold", "7"])
        assert code == 1
        assert "no clips in fold 7" in capsys.readouterr().err
