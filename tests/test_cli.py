"""Command-line interface: exit codes, pipeline smoke run, determinism."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sketchshape import data as data_mod
from sketchshape import model as model_mod
from sketchshape.cli import main
from sketchshape.data import load_dataset, load_embeddings
from sketchshape.model import (
    encode_shape_batch,
    encode_sketch_batch,
    load_checkpoint,
    save_shape_checkpoint,
    save_sketch_checkpoint,
)


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


def _drop_matrices(text, prefix):
    head, *blocks = text.split("\nmatrix ")
    return "\nmatrix ".join([head] + [b for b in blocks if not b.startswith(prefix)])


def _edit_matrix_lines(text, name, edit):
    """edit(header_line, first_row) -> (header_line, first_row) for matrix name."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {name} "))
    lines[i], lines[i + 1] = edit(lines[i], lines[i + 1])
    return "\n".join(lines) + "\n"


CHECKPOINT_FAULTS = {
    "no_classifier": ("sketch.ckpt", lambda t: _drop_matrices(t, "classifier.weight "),
                      r"sketch.ckpt: missing matrix classifier.weight"),
    "no_mu_head": ("sketch.ckpt", lambda t: _drop_matrices(t, "mu_head."), r"sketch.ckpt: missing matrix mu_head.0.weight"),
    "no_bias": ("shape.ckpt", lambda t: _drop_matrices(t, "proj.0.bias "), r"shape.ckpt: missing matrix proj.0.bias"),
    "nan_value": ("sketch.ckpt",
                  lambda t: _edit_matrix_lines(t, "logvar_head.0.weight", lambda h, r: (h, "nan " + r.split(" ", 1)[1])),
                  r"sketch.ckpt line \d+: matrix logvar_head.0.weight contains non-finite"),
    "bad_header": ("sketch.ckpt",
                   lambda t: _edit_matrix_lines(t, "backbone.0.weight", lambda h, r: (h.rsplit(" ", 1)[0] + " x", r)),
                   r"sketch.ckpt line 4: expected 'matrix <name> <rows> <cols>'"),
    "bad_value": ("shape.ckpt",
                  lambda t: _edit_matrix_lines(t, "proj.0.weight", lambda h, r: (h, "1.0.0 " + r.split(" ", 1)[1])),
                  r"shape.ckpt line \d+: could not convert"),
    "layer_gap": ("sketch.ckpt", lambda t: t.replace("matrix backbone.1.", "matrix backbone.7."),
                  r"sketch.ckpt line \d+: unexpected matrix backbone.7.weight in a sketch checkpoint"),
    "repeated_matrix": ("sketch.ckpt", lambda t: t + t[t.index("matrix classifier.weight "):],
                        r"sketch.ckpt line \d+: matrix classifier.weight repeats line \d+"),
    "extra_row": ("shape.ckpt", lambda t: _edit_matrix_lines(t, "proj.0.weight", lambda h, r: (h, f"{r}\n{r}")),
                  r"shape.ckpt line \d+: stray line '[^']+' after the 8 rows of matrix proj.0.weight"),
    "unknown_matrix": ("shape.ckpt", lambda t: t + "matrix extra.weight 1 1\n0.5\n",
                       r"shape.ckpt line \d+: unexpected matrix extra.weight in a shape checkpoint"),
    "empty_matrix": ("shape.ckpt",
                     lambda t: _edit_matrix_lines(t, "proj.0.bias", lambda h, r: (h.replace(" 1 ", " 0 "), "")),
                     r"shape.ckpt line \d+: expected 'matrix <name> <rows> <cols>' with sizes >= 1"),
    "bias_column": ("shape.ckpt",
                    lambda t: _edit_matrix_lines(t, "proj.0.bias",
                                                 lambda h, r: ("matrix proj.0.bias 8 1", r.replace(" ", "\n"))),
                    r"shape.ckpt line \d+: layer proj.0 is 8x16 with 8x1 biases"),
    "one_class": ("sketch.ckpt",
                  lambda t: t[: t.index("matrix classifier.weight ")] + "matrix classifier.weight 1 8\n"
                  + t.split("matrix classifier.weight 3 8\n")[1].splitlines()[0] + "\n",
                  r"sketch.ckpt: classifier.weight must be C x 8 with C >= 2"),
    "no_kind": ("sketch.ckpt", lambda t: t.replace("kind sketch\n", ""),
                r"sketch.ckpt: expected a sketch or shape checkpoint, found kind None"),
    "unknown_header": ("sketch.ckpt", lambda t: t.replace("kind sketch\n", "kind sketch\nseed 5\n"),
                       r"sketch.ckpt line 3: expected 'kind sketch\|shape' or 'classifier_frozen true\|false', "
                       r"got 'seed 5'"),
    "repeated_header": ("shape.ckpt", lambda t: t.replace("kind shape\n", "kind shape\nkind shape\n"),
                        r"shape.ckpt line 3: kind repeats line 2"),
    "header_after_matrix": ("sketch.ckpt",
                            lambda t: t.replace("classifier_frozen true\n", "") + "classifier_frozen true\n",
                            r"sketch.ckpt line \d+: stray line 'classifier_frozen true' after the 3 rows of matrix "
                            r"classifier.weight"),
    "frozen_yes": ("sketch.ckpt", lambda t: t.replace("classifier_frozen true\n", "classifier_frozen yes\n"),
                   r"sketch.ckpt line 3: expected .* got 'classifier_frozen yes'"),
    "no_frozen_line": ("sketch.ckpt", lambda t: t.replace("classifier_frozen true\n", ""),
                       r"sketch.ckpt: missing line 'classifier_frozen true\|false'"),
    "frozen_in_shape": ("shape.ckpt", lambda t: t.replace("kind shape\n", "kind shape\nclassifier_frozen true\n"),
                        r"shape.ckpt line 3: a shape checkpoint has no classifier_frozen"),
}


class TestBadInputs:
    """Each malformed input exits 2 with an error line naming the file."""

    @staticmethod
    def _fails(argv, capsys, pattern):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert re.search(pattern, err), err

    @pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
    def test_bad_checkpoint_exits_2(self, pipeline, tmp_path, capsys, fault):
        name, edit, pattern = CHECKPOINT_FAULTS[fault]
        bad = tmp_path / name
        bad.write_text(edit((pipeline["run"] / name).read_text()))
        argv = ["embed", "--checkpoint", str(bad), "--data", str(pipeline["data"]), "--out", str(tmp_path / "e.csv")]
        self._fails(argv, capsys, pattern)
        assert not (tmp_path / "e.csv").exists()

    def _train_sketch(self, data, tmp_path, cfg):
        return ["train-sketch", "--data", str(data), "--out", str(tmp_path / "run"), "--config", str(cfg)]

    def test_manifest_without_classes_exits_2(self, pipeline, tmp_path, capsys):
        data = shutil.copytree(pipeline["data"], tmp_path / "data")
        manifest = data / "manifest.txt"
        manifest.write_text("".join(l for l in manifest.read_text().splitlines(True) if not l.startswith("classes")))
        self._fails(self._train_sketch(data, tmp_path, pipeline["cfg"]), capsys, r"manifest.txt: missing key 'classes'")

    def test_bad_config_value_exits_2(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden = a\n")
        self._fails(self._train_sketch(pipeline["data"], tmp_path, cfg), capsys, r"bad.cfg line 1: hidden")

    def test_repeated_config_key_exits_2(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(DESK_CONFIG + "\nlr0 = 0.2\n")
        pattern = r"twice.cfg line 6: key 'lr0' repeats line 4"
        self._fails(self._train_sketch(pipeline["data"], tmp_path, cfg), capsys, pattern)

    def test_nan_in_sketches_csv_exits_2(self, pipeline, tmp_path, capsys):
        data = shutil.copytree(pipeline["data"], tmp_path / "data")
        lines = (data / "sketches.csv").read_text().splitlines()
        fields = lines[4].split(",")
        lines[4] = ",".join(fields[:5] + ["nan"] + fields[6:])
        (data / "sketches.csv").write_text("\n".join(lines) + "\n")
        pattern = rf"sketches.csv line 5: row {fields[0]} has non-finite values"
        self._fails(self._train_sketch(data, tmp_path, pipeline["cfg"]), capsys, pattern)

    @pytest.mark.filterwarnings("error")
    def test_diverging_training_prints_only_the_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(DESK_CONFIG.replace("lr0 = 0.05", "lr0 = 500") + "\n")
        argv = self._train_sketch(pipeline["data"], tmp_path, cfg) + ["--seed", "5"]
        self._fails(argv, capsys, r"^error: stage 1 aborted: non-finite")

    def test_nan_in_shapes_csv_exits_2(self, pipeline, tmp_path, capsys):
        data = shutil.copytree(pipeline["data"], tmp_path / "data")
        lines = (data / "shapes.csv").read_text().splitlines()
        fields = lines[6].split(",")
        lines[6] = ",".join(fields[:-1] + ["nan"])
        (data / "shapes.csv").write_text("\n".join(lines) + "\n")
        argv = ["train-shape", "--data", str(data), "--checkpoint", str(pipeline["run"] / "sketch.ckpt"),
                "--out", str(tmp_path / "run"), "--config", str(pipeline["cfg"])]
        self._fails(argv, capsys, rf"shapes.csv line 7: row {re.escape(fields[0])} has non-finite values")

    @pytest.mark.parametrize(
        "line, edit, pattern",
        [
            (4, "views = 0", r"manifest.txt line 4: views must be >= 1, got 0"),
            (2, "classes = 1", r"manifest.txt line 2: classes must be >= 2, got 1"),
        ],
        ids=["views-0", "classes-1"],
    )
    def test_manifest_size_out_of_range_exits_2(self, pipeline, tmp_path, capsys, line, edit, pattern):
        """Sizes a trainer would reject are the manifest's fault; every
        label is set to 0 so that one class is all the rows claim."""
        data = shutil.copytree(pipeline["data"], tmp_path / "data")
        lines = (data / "manifest.txt").read_text().splitlines()
        lines[line - 1] = edit
        (data / "manifest.txt").write_text("\n".join(lines) + "\n")
        header, *rows = (data / "sketches.csv").read_text().splitlines()
        rows = [",".join([f[0], "0", *f[2:]]) for f in (row.split(",") for row in rows)]
        (data / "sketches.csv").write_text("\n".join([header, *rows]) + "\n")
        self._fails(self._train_sketch(data, tmp_path, pipeline["cfg"]), capsys, pattern)

    @pytest.mark.parametrize(
        "edit, pattern",
        [
            (lambda t: t + "colour = blue\n", r"manifest.txt line 12: unknown manifest key 'colour'"),
            (lambda t: t.replace("count_sketch_test", "count_sketch_val"),
             r"manifest.txt line 7: unknown manifest key 'count_sketch_val'"),
            (lambda t: t.replace("noise_mode = ambiguous", "noise_mode = bogus"),
             r"manifest.txt line 10: noise_mode: expected one of ambiguous, label, got 'bogus'"),
            (lambda t: t.replace("noise_frac = 0.2", "noise_frac = 1.5"),
             r"manifest.txt line 9: noise_frac must be in \[0.0, 1.0\], got 1.5"),
            (lambda t: t.replace("noise_frac = 0.2", "noise_frac = -0.1"),
             r"manifest.txt line 9: noise_frac must be in \[0.0, 1.0\], got -0.1"),
            (lambda t: t.replace("noise_frac = 0.2", "noise_frac = nan"),
             r"manifest.txt line 9: noise_frac must be in \[0.0, 1.0\], got nan"),
        ],
        ids=["unknown-key", "unknown-count", "noise-mode", "noise-frac-above", "noise-frac-below", "noise-frac-nan"],
    )
    def test_manifest_accepts_only_what_save_dataset_writes(self, pipeline, tmp_path, capsys, edit, pattern):
        data = shutil.copytree(pipeline["data"], tmp_path / "data")
        manifest = data / "manifest.txt"
        manifest.write_text(edit(manifest.read_text()))
        self._fails(self._train_sketch(data, tmp_path, pipeline["cfg"]), capsys, pattern)

    @pytest.mark.parametrize("name", ["manifest.txt", "sketches.csv", "sketch.ckpt", "desk.cfg"])
    def test_non_ascii_byte_names_the_file_and_line(self, pipeline, tmp_path, capsys, name):
        """Every input file is ASCII, a config's comments included."""
        data = shutil.copytree(pipeline["data"], tmp_path / "data")
        ckpt = shutil.copy(pipeline["run"] / "sketch.ckpt", tmp_path / "sketch.ckpt")
        cfg = shutil.copy(pipeline["cfg"], tmp_path / "desk.cfg")
        path = Path({"sketch.ckpt": ckpt, "desk.cfg": cfg}.get(name, data / name))
        lines = path.read_bytes().splitlines(keepends=True)
        if name == "desk.cfg":
            lines[2] = lines[2].rstrip(b"\n") + b"  # r\xc3\xa9sum\xc3\xa9\n"
        else:
            lines[2] = lines[2][:3] + b"\xc3\xa9" + lines[2][3:]
        path.write_bytes(b"".join(lines))
        if name == "sketch.ckpt":
            argv = ["train-shape", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(tmp_path / "run"),
                    "--config", str(cfg)]
        else:
            argv = self._train_sketch(data, tmp_path, cfg)
        self._fails(argv, capsys, rf"{re.escape(name)} line 3: non-ASCII byte 0xc3")

    def test_label_beyond_int64_in_embeddings_exits_2(self, pipeline, tmp_path, capsys):
        lines = pipeline["queries"].read_text().splitlines()
        fields = lines[2].split(",")
        lines[2] = ",".join([fields[0], "9" * 20, *fields[2:]])
        bad = tmp_path / "queries.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["eval", "--queries", str(bad), "--gallery", str(pipeline["gallery"]), "--out", str(tmp_path / "e")]
        self._fails(argv, capsys, r"queries.csv line 3: ")


class TestEachCommandReadsItsModality:
    """A command parses the feature file of the modality it uses, once."""

    @pytest.mark.parametrize(
        "command, expected",
        [
            (["train-sketch", "--config", "{cfg}"], ["sketches.csv"]),
            (["embed", "--checkpoint", "{run}/sketch.ckpt"], ["sketches.csv"]),
            (["report-uncertainty", "--checkpoint", "{run}/sketch.ckpt"], ["sketches.csv"]),
            (["train-shape", "--checkpoint", "{run}/sketch.ckpt", "--config", "{cfg}"], ["shapes.csv"]),
            (["embed", "--checkpoint", "{run}/shape.ckpt"], ["shapes.csv"]),
        ],
        ids=["train-sketch", "embed-sketch", "report-uncertainty", "train-shape", "embed-shape"],
    )
    def test_reads_only_its_feature_file(self, pipeline, tmp_path, monkeypatch, command, expected):
        """No command opens noisy.csv: it is deleted here."""
        data = shutil.copytree(pipeline["data"], tmp_path / "data")
        (data / "noisy.csv").unlink()
        opened = []
        read = data_mod.read_feature_csv
        monkeypatch.setattr(data_mod, "read_feature_csv", lambda path: opened.append(path.name) or read(path))
        argv = [arg.format(cfg=pipeline["cfg"], run=pipeline["run"]) for arg in command]
        assert main(argv + ["--data", str(data), "--out", str(tmp_path / "out")]) == 0
        assert opened == expected


class TestEmbedParsesOnce:
    @pytest.mark.parametrize("name", ["sketch.ckpt", "shape.ckpt"])
    def test_one_checkpoint_parse(self, pipeline, tmp_path, monkeypatch, name):
        calls = []
        read = model_mod._read_checkpoint
        monkeypatch.setattr(model_mod, "_read_checkpoint", lambda path: calls.append(path) or read(path))
        out = tmp_path / "e.csv"
        assert main(["embed", "--checkpoint", str(pipeline["run"] / name), "--data", str(pipeline["data"]),
                     "--out", str(out)]) == 0
        assert calls == [str(pipeline["run"] / name)]


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind, save", [("sketch", save_sketch_checkpoint), ("shape", save_shape_checkpoint)])
    def test_save_load_save_writes_the_same_bytes(self, pipeline, tmp_path, kind, save):
        """A checkpoint the pipeline saved, loaded and saved again."""
        written = pipeline["run"] / f"{kind}.ckpt"
        found, model, classifier = load_checkpoint(written, kind)
        save(tmp_path / "again.ckpt", model, *([classifier] if classifier else []))
        assert found == kind and (tmp_path / "again.ckpt").read_bytes() == written.read_bytes()


class TestGenData:
    def test_writes_dataset(self, pipeline):
        sketches, shapes = (load_dataset(pipeline["data"], kind) for kind in ("sketch", "shape"))
        assert len(sketches.sketches("train").ids) == 36
        assert len(shapes.shapes("test").ids) == 18
        assert sketches.manifest.seed == 5

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
        _, model, _ = load_checkpoint(pipeline["run"] / "sketch.ckpt", "sketch")
        sketches = load_dataset(pipeline["data"], "sketch").sketches("test")
        ids, _, _, _, matrix = load_embeddings(pipeline["queries"])
        assert ids == sketches.ids
        mu, _ = encode_sketch_batch(model, sketches.features[:1])
        # padded blocks give one sample the bits it has in the whole split
        assert matrix[0].tobytes() == mu[0].tobytes()

    @pytest.mark.parametrize("kind, key", [("sketch", "queries"), ("shape", "gallery")])
    def test_embed_equals_whole_split_encode_bitwise(self, pipeline, kind, key):
        """embed's file holds the library's whole-split output bit for bit."""
        _, model, _ = load_checkpoint(pipeline["run"] / f"{kind}.ckpt", kind)
        samples = load_dataset(pipeline["data"], kind).subset(kind, "test")
        if kind == "sketch":
            encoded, _ = encode_sketch_batch(model, samples.features)
        else:
            encoded = encode_shape_batch(model, samples.features)
        ids, _, _, _, matrix = load_embeddings(pipeline[key])
        assert ids == samples.ids
        assert matrix.tobytes() == encoded.tobytes()

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

    def test_shape_checkpoint_rejected_for_uncertainty(self, pipeline, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(data_mod, "load_dataset", lambda *a: pytest.fail("dataset read"))
        ckpt = pipeline["run"] / "shape.ckpt"
        assert main(
            ["report-uncertainty", "--checkpoint", str(ckpt), "--data", str(pipeline["data"]), "--split", "train", "--out", str(tmp_path)]
        ) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: expected a sketch checkpoint, found kind 'shape'\n"


class TestGradcheckCommand:
    def test_passes_and_prints(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "margin_loss" in out
        assert "OK" in out


class TestRunAsModule:
    """``python -m sketchshape.cli`` from a checkout runs the command."""

    @staticmethod
    def _run(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-m", "sketchshape.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )

    def test_missing_input_exits_2_with_one_error_line(self, tmp_path):
        missing = str(tmp_path / "nonexistent.csv")
        done = self._run("eval", "--queries", missing, "--gallery", missing, "--out", str(tmp_path / "eval"))
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert line.startswith("error:") and missing in line

    def test_gradcheck_exits_0_and_prints_ok(self):
        done = self._run("gradcheck", "--seed", "0")
        assert done.returncode == 0
        assert "[gradcheck] OK" in done.stdout
