"""Command-line interface: exit codes, pipeline smoke run, determinism."""

import numpy as np
import pytest

from sketchshape.cli import main
from sketchshape.data import load_dataset, load_embeddings
from sketchshape.model import encode_sketch, load_sketch_checkpoint


DESK_CONFIG = "\n".join(
    [
        "hidden = 16,16",
        "embed_dim = 8",
        "batch_size = 16",
        "lr0 = 0.05",
        "max_epochs = 5",
    ]
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train-sketch -> train-shape -> embed x2 -> eval."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    cfg = root / "desk.cfg"
    cfg.write_text(DESK_CONFIG + "\n")
    assert (
        main(
            [
                "gen-data",
                "--out",
                str(data),
                "--classes",
                "3",
                "--train-per-class",
                "12",
                "--test-per-class",
                "6",
                "--dim",
                "8",
                "--views",
                "2",
                "--noise-frac",
                "0.2",
                "--seed",
                "5",
            ]
        )
        == 0
    )
    run = root / "run"
    assert main(
        ["train-sketch", "--data", str(data), "--out", str(run), "--config", str(cfg), "--seed", "5"]
    ) == 0
    assert main(
        [
            "train-shape",
            "--data",
            str(data),
            "--checkpoint",
            str(run / "sketch.ckpt"),
            "--out",
            str(run),
            "--config",
            str(cfg),
            "--seed",
            "6",
        ]
    ) == 0
    queries = root / "queries.csv"
    gallery = root / "gallery.csv"
    assert main(
        ["embed", "--checkpoint", str(run / "sketch.ckpt"), "--data", str(data), "--split", "test", "--out", str(queries)]
    ) == 0
    assert main(
        ["embed", "--checkpoint", str(run / "shape.ckpt"), "--data", str(data), "--split", "test", "--out", str(gallery)]
    ) == 0
    out = root / "eval"
    assert main(["eval", "--queries", str(queries), "--gallery", str(gallery), "--out", str(out)]) == 0
    return {"root": root, "data": data, "run": run, "cfg": cfg, "queries": queries, "gallery": gallery, "eval": out}


class TestUsageErrors:
    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["eval", "--queries", "q.csv"]) == 1
        assert "gallery" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self):
        assert main(["gradcheck", "--bogus", "1"]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["eval", "--queries", str(tmp_path / "no.csv"), "--gallery", str(tmp_path / "no.csv"), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_embedding_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        bad = tmp_path / "bad.csv"
        header = "id,label,split,modality,v0,v1\n"
        good.write_text(header + "g0,0,test,shape,1.0,0.0\ng1,1,test,shape,0.0,1.0\n")
        bad.write_text(header + "q0,0,test,sketch,1.0,0.5\nq1,1,test,sketch,nan,1.0\n")
        out = tmp_path / "eval"
        assert main(["eval", "--queries", str(bad), "--gallery", str(good), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(bad) in err and "q1" in err
        assert not (out / "metrics.txt").exists()

    def test_bad_noise_mode_exits_1(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--noise-mode", "junk"]) == 1


class TestGenData:
    def test_writes_dataset(self, pipeline):
        ds = load_dataset(pipeline["data"])
        assert len(ds.sketches("train")) == 36
        assert len(ds.shapes("test")) == 18
        assert ds.manifest.seed == 5

    def test_prints_seed(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--classes", "2", "--train-per-class", "2", "--test-per-class", "1", "--dim", "8", "--views", "1", "--seed", "9"]) == 0
        assert "seed = 9" in capsys.readouterr().out


class TestPipeline:
    def test_metric_report_written(self, pipeline):
        text = (pipeline["eval"] / "metrics.txt").read_text()
        assert text.startswith("nn = ")
        assert (pipeline["eval"] / "per_query.csv").exists()
        assert (pipeline["eval"] / "pr_curve.txt").exists()

    def test_train_reports_written(self, pipeline):
        stage1 = (pipeline["run"] / "stage1_report.txt").read_text().splitlines()
        assert stage1[0] == "# seed 5"
        assert len(stage1) == 2 + 5  # header lines + 5 epochs

    def test_embedding_dims_match_across_modalities(self, pipeline):
        _, _, _, _, q = load_embeddings(pipeline["queries"])
        _, _, _, _, g = load_embeddings(pipeline["gallery"])
        assert q.shape[1] == g.shape[1] == 8

    def test_embed_matches_library_encode(self, pipeline):
        model, _ = load_sketch_checkpoint(pipeline["run"] / "sketch.ckpt")
        ds = load_dataset(pipeline["data"])
        records = ds.sketches("test")
        ids, _, _, _, matrix = load_embeddings(pipeline["queries"])
        assert ids == [r.sample_id for r in records]
        emb = encode_sketch(model, records[0].features)
        # batched and single-row matmuls may differ in the last ulp
        np.testing.assert_allclose(matrix[0], emb.mu, rtol=0, atol=1e-12)

    def test_embed_deterministic_byte_identical(self, pipeline, tmp_path):
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        for out in (out1, out2):
            assert main(
                ["embed", "--checkpoint", str(pipeline["run"] / "sketch.ckpt"), "--data", str(pipeline["data"]), "--split", "test", "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_uncertainty(self, pipeline, tmp_path, capsys):
        out = tmp_path / "cert"
        assert main(
            ["report-uncertainty", "--checkpoint", str(pipeline["run"] / "sketch.ckpt"), "--data", str(pipeline["data"]), "--split", "train", "--out", str(out)]
        ) == 0
        lines = (out / "uncertainty.csv").read_text().splitlines()
        assert lines[0] == "id,score,normalized,bucket"
        assert len(lines) == 1 + 36
        assert "percent_high" in (out / "uncertainty_summary.txt").read_text()

    def test_shape_checkpoint_rejected_for_uncertainty(self, pipeline, tmp_path):
        assert main(
            ["report-uncertainty", "--checkpoint", str(pipeline["run"] / "shape.ckpt"), "--data", str(pipeline["data"]), "--split", "train", "--out", str(tmp_path)]
        ) == 2


class TestGradcheckCommand:
    def test_passes_and_prints(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "margin_loss" in out
        assert "OK" in out
