"""Synthetic dataset generator and file formats."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sketchshape import data
from sketchshape.data import (
    _BLOCK_ROWS,
    _POOL_MIN_VALUES,
    generate,
    load_dataset,
    load_embeddings,
    read_feature_csv,
    save_dataset,
    save_embeddings,
    write_feature_csv,
)
from sketchshape.ops import cosine_matrix
from sketchshape.rng import Rng


def small_dataset(seed=0, noise_frac=0.0, mode="ambiguous", classes=3, train=10, test=4, dim=8, views=3):
    return generate(classes, train, test, dim, views, noise_frac, mode, seed)


def assert_same_samples(got, want):
    """Every column of two Samples equal, the arrays bitwise and with the
    column dtypes (int64 labels, float64 features, bool or None noisy)."""
    assert got.ids == want.ids and got.splits == want.splits
    assert got.labels.dtype == np.int64 and got.labels.tobytes() == want.labels.tobytes()
    got_features, want_features = np.asarray(got.features), np.asarray(want.features)
    assert got_features.dtype == np.float64 and got_features.shape == want_features.shape
    assert got_features.tobytes() == want_features.tobytes()
    if want.noisy is None:
        assert got.noisy is None
    else:
        assert got.noisy.dtype == bool and got.noisy.tolist() == want.noisy.tolist()


class TestGenerate:
    def test_published_benchmark_counts(self):
        ds = generate(3, 50, 30, 8, 3, 0.0, "ambiguous", 1)
        assert len(ds.sketches("train").ids) == 150
        assert len(ds.sketches("test").ids) == 90
        assert len(ds.shapes("train").ids) == 150
        assert len(ds.shapes("test").ids) == 90

    def test_zero_noise_frac_flags_nothing(self):
        ds = small_dataset(noise_frac=0.0)
        assert not ds.sketch.noisy.any() and not ds.shape.noisy.any()

    def test_noisy_fraction_per_class_and_split(self):
        ds = small_dataset(seed=2, noise_frac=0.25, train=10, test=4)
        for split, per_class in (("train", 10), ("test", 4)):
            want = math.ceil(0.25 * per_class)
            sketches = ds.sketches(split)
            for label in range(3):
                got = int(np.sum((sketches.labels == label) & sketches.noisy))
                assert abs(got - want) <= 1

    def test_shapes_never_noisy_and_have_views(self):
        ds = small_dataset(seed=3, noise_frac=0.5)
        shapes = ds.shapes("train")
        assert not shapes.noisy.any()
        assert shapes.features.shape == (30, 3, 8)

    def test_same_seed_identical_datasets(self):
        a = small_dataset(seed=4, noise_frac=0.3)
        b = small_dataset(seed=4, noise_frac=0.3)
        assert_same_samples(a.sketch, b.sketch)
        assert_same_samples(a.shape, b.shape)

    def test_intra_class_cosine_beats_inter_class(self):
        ds = generate(5, 30, 5, 16, 2, 0.0, "ambiguous", 5)
        sketches = ds.sketches("train")
        feats, labels = sketches.features, sketches.labels
        cos = cosine_matrix(feats, feats)
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(len(labels), dtype=bool)
        intra = cos[same & off].mean()
        inter = cos[~same].mean()
        assert intra > inter + 0.2

    def test_label_mode_features_sit_near_wrong_class(self):
        ds = small_dataset(seed=6, noise_frac=0.5, mode="label", train=20)
        sketches = ds.sketches("train")
        feats, labels, noisy = sketches.features, sketches.labels, sketches.noisy
        clean_means = np.stack([feats[(labels == c) & ~noisy].mean(axis=0) for c in range(3)])
        cos = cosine_matrix(feats, clean_means)
        own = cos[np.arange(len(labels)), labels]
        # mislabeled features are far from their own class's clean centroid
        assert own[noisy].mean() < own[~noisy].mean() - 0.3
        # and each is a clean feature of another class: its nearest clean
        # centroid is another class's, at a cosine near one
        assert (cos[noisy].argmax(axis=1) != labels[noisy]).all()
        assert cos[noisy].max(axis=1).min() >= 0.9

    @pytest.mark.parametrize("views, dim", [(3, 4), (3, 5)], ids=["even", "odd"])
    def test_drawn_views_are_the_per_shape_loop(self, views, dim):
        """generate's shape views, drawn on demand from the generator at the
        first shape's draw, are bitwise the per-shape normal_matrix loop
        (an odd views x dim draws a spare normal per shape and drops it):
        through np.asarray, index arrays, integers and strided slices, and
        every cut of the shapes into runs of 1, of 5 and one run.  No draw
        moves the generator."""
        protos, labels = Rng(1).normal_matrix(4, dim), np.array([3, 0, 1, 1, 2, 0, 3] * 3 + [2, 1], dtype=np.int64)
        loop = Rng(2)
        want = np.stack([protos[label] + data.VIEW_NOISE_STD * loop.normal_matrix(views, dim)
                         for label in labels.tolist()])
        rng = Rng(2)
        drawn = data._DrawnViews(rng, protos, labels, views)
        assert (len(drawn), drawn.shape, drawn.ndim, drawn.size) == (23, want.shape, 3, want.size)
        assert np.asarray(drawn).dtype == np.float64 and np.asarray(drawn).tobytes() == want.tobytes()
        for run in (1, 5, len(labels)):
            got = np.concatenate([drawn[first : first + run] for first in range(0, len(labels), run)])
            assert got.tobytes() == want.tobytes(), run
        for index in (np.array([22, 0, 7, 7]), 5, -1, slice(None, None, 2), slice(20, 100), slice(-3, None)):
            assert drawn[index].tobytes() == want[index].tobytes(), index
        assert drawn[9:9].shape == drawn[30:40].shape == (0, views, dim)
        assert rng.next_u64() == Rng(2).next_u64()

    def test_take_keeps_the_noisy_flags(self):
        sketch = small_dataset(seed=2, noise_frac=0.5).sketch
        rows = np.concatenate([np.flatnonzero(sketch.noisy)[:3], np.flatnonzero(~sketch.noisy)[:3]])[::-1]
        got = sketch.take(rows)
        assert got.noisy.dtype == bool and got.noisy.tolist() == [False] * 3 + [True] * 3
        assert got.ids == [sketch.ids[i] for i in rows.tolist()]

    def test_prototype_constraint_failure_suggests_larger_dim(self):
        with pytest.raises(ValueError, match="increase the feature dimension"):
            generate(40, 2, 1, 2, 1, 0.0, "ambiguous", 0)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="noise_frac"):
            small_dataset(noise_frac=1.5)
        with pytest.raises(ValueError, match="noise_mode"):
            generate(3, 5, 2, 8, 2, 0.0, "bogus", 0)
        with pytest.raises(ValueError, match="classes"):
            generate(1, 5, 2, 8, 2, 0.0, "ambiguous", 0)


class TestDatasetFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        """Both modalities' columns load back, a split at a time, bitwise
        equal to generate's, without the noisy flags, which go to
        noisy.csv alone."""
        ds = small_dataset(seed=7, noise_frac=0.3)
        save_dataset(ds, tmp_path)
        for modality in ("sketch", "shape"):
            for split in ("train", "test"):
                loaded = load_dataset(tmp_path, modality, split)
                assert loaded.manifest == ds.manifest
                assert_same_samples(getattr(loaded, modality), ds.subset(modality, split)._replace(noisy=None))
        assert ds.sketch.noisy.any()
        flags = "".join(f"{i},{int(f)}\n" for i, f in zip(ds.sketch.ids, ds.sketch.noisy.tolist()))
        assert (tmp_path / "noisy.csv").read_text() == "id,noisy\n" + flags

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            save_dataset(small_dataset(seed=8, noise_frac=0.2), tmp_path / sub)
        for name in ("manifest.txt", "sketches.csv", "shapes.csv", "noisy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_truncated_row_reports_line_number(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1\nx,0,train,sketch,1.0,2.0\ny,1,train,sketch,3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_feature_csv(path, None)

    def test_header_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v2\n")
        with pytest.raises(ValueError, match="v0..v1"):
            read_feature_csv(path, None)

    def test_bad_value_reports_line_number(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0\nx,0,train,sketch,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            read_feature_csv(path, None)

    def test_non_finite_value_reports_line_and_id(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1\nx,0,train,sketch,1.0,2.0\ny,1,train,sketch,3.0,-inf\n")
        with pytest.raises(ValueError, match=r"feat.csv line 3: row y has non-finite"):
            read_feature_csv(path, None)

    def test_value_fault_outside_the_split_goes_unread(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1\nx,0,train,sketch,1.0,2.0\ny,1,test,sketch,nan,x\n")
        ids, labels, splits, modalities, matrix = read_feature_csv(path, "train")
        assert ids == ["x", "y"] and labels.tolist() == [0, 1] and splits == ["train", "test"]
        assert modalities == ["sketch"] * 2 and matrix.tolist() == [[1.0, 2.0]]
        with pytest.raises(ValueError, match=r"feat.csv line 3: could not convert string to float: 'x'$"):
            read_feature_csv(path, "test")

    def test_finite_values_with_overflowing_sum_accepted(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1\nx,0,train,sketch,1e308,1e308\n")
        *_, matrix = read_feature_csv(path, None)
        np.testing.assert_array_equal(matrix[0], [1e308, 1e308])

    def test_header_only_file_reads_as_empty_columns(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1,v2\n")
        ids, labels, splits, modalities, matrix = read_feature_csv(path, None)
        assert ids == splits == modalities == []
        assert labels.dtype == np.int64 and labels.shape == (0,)
        assert matrix.dtype == np.float64 and matrix.shape == (0, 3)
        with pytest.raises(ValueError, match=r"feat.csv: no embedding rows"):
            load_embeddings(path)

    def test_non_ascii_byte_reports_file_and_line(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_bytes(b"id,label,split,modality,v0\nx,0,train,sketch,1.0\ny,0,tr\xc3\xa9in,sketch,2.0\n")
        with pytest.raises(ValueError, match=r"feat.csv line 3: non-ASCII byte 0xc3"):
            read_feature_csv(path, None)

    def test_crlf_file_reads_like_lf(self, tmp_path):
        text = "id,label,split,modality,v0,v1\nx,0,train,sketch,1.0,2.0\ny,1,test,shape,-0.0,5e-324\n"
        (tmp_path / "lf.csv").write_bytes(text.encode("ascii"))
        (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        lf, crlf = read_feature_csv(tmp_path / "lf.csv", None), read_feature_csv(tmp_path / "crlf.csv", None)
        assert lf[0] == crlf[0] == ["x", "y"] and lf[2:4] == crlf[2:4]
        assert lf[1].tolist() == crlf[1].tolist() and lf[4].tobytes() == crlf[4].tobytes()

    def test_label_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0\nx,0,train,sketch,1.0\ny,99999999999999999999,train,sketch,2.0\n")
        with pytest.raises(ValueError, match=r"feat.csv line 3: "):
            read_feature_csv(path, None)

    def test_manifest_missing_key_named(self, tmp_path):
        save_dataset(small_dataset(seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(l for l in lines if not l.startswith("classes")) + "\n")
        with pytest.raises(ValueError, match=r"manifest.txt: missing key 'classes'"):
            load_dataset(tmp_path, "sketch", "train")

    def test_manifest_bad_value_reports_line(self, tmp_path):
        save_dataset(small_dataset(seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("views = 3", "views = three"))
        with pytest.raises(ValueError, match=r"manifest.txt line 4: views"):
            load_dataset(tmp_path, "shape", "train")

    def test_manifest_repeated_key_names_both_lines(self, tmp_path):
        save_dataset(small_dataset(seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "classes = 2\n")
        with pytest.raises(ValueError, match=r"manifest.txt line 12: key 'classes' repeats line 2"):
            load_dataset(tmp_path, "sketch", "train")

    def test_blank_manifest_lines_load(self, tmp_path):
        ds = small_dataset(seed=9)
        save_dataset(ds, tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text(lines[0] + "\n" + "  \n".join(lines[1:]) + "\n\n")
        loaded = load_dataset(tmp_path, "sketch", "train")
        assert loaded.manifest == ds.manifest
        assert_same_samples(loaded.sketch, ds.sketches("train")._replace(noisy=None))

    @pytest.mark.parametrize("modality, name", [("sketch", "sketches.csv"), ("shape", "shapes.csv")])
    def test_manifest_feature_dim_must_match_the_file(self, tmp_path, modality, name):
        save_dataset(small_dataset(seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("feature_dim = 8\n", "feature_dim = 9\n"))
        with pytest.raises(ValueError, match=rf"{name}: dim 8 != manifest feature_dim 9$"):
            load_dataset(tmp_path, modality, "train")

    def test_manifest_count_mismatch_detected(self, tmp_path):
        """The last shape's view rows removed: one test shape short, which
        a train-split load reports too."""
        save_dataset(small_dataset(seed=9), tmp_path)
        shapes = (tmp_path / "shapes.csv").read_text().splitlines()
        (tmp_path / "shapes.csv").write_text("\n".join(shapes[:-3]) + "\n")
        for split in ("train", "test"):
            with pytest.raises(ValueError, match="manifest count shape_test = 12 but found 11 records"):
                load_dataset(tmp_path, "shape", split)

    def test_sketch_load_checks_manifest_count(self, tmp_path):
        save_dataset(small_dataset(seed=9), tmp_path)
        sketches = (tmp_path / "sketches.csv").read_text().splitlines()
        (tmp_path / "sketches.csv").write_text("\n".join(sketches[:-1]) + "\n")
        for split in ("train", "test"):
            with pytest.raises(ValueError, match="manifest count sketch_test"):
                load_dataset(tmp_path, "sketch", split)

    @pytest.mark.parametrize("modality, skipped", [("sketch", ["shapes.csv", "noisy.csv"]),
                                                   ("shape", ["sketches.csv", "noisy.csv"])])
    def test_one_modality_reads_only_its_files(self, tmp_path, modality, skipped):
        """No load reads noisy.csv, so every loaded flag column is None."""
        ds = small_dataset(seed=9, noise_frac=0.3)
        save_dataset(ds, tmp_path)
        for name in skipped:
            (tmp_path / name).unlink()
        loaded = load_dataset(tmp_path, modality, "test")
        assert_same_samples(getattr(loaded, modality), ds.subset(modality, "test")._replace(noisy=None))
        assert getattr(loaded, "shape" if modality == "sketch" else "sketch") is None

    @pytest.mark.parametrize(
        "name, line, edit, pattern",
        [
            ("sketches.csv", 2, lambda f: f[:1] + ["3"] + f[2:],
             r"sketches.csv: row sketch_train_0000 has label 3, manifest says 3 classes"),
            ("sketches.csv", 3, lambda f: f[:1] + ["-1"] + f[2:], r"sketches.csv: row sketch_train_0001 has label -1"),
            ("shapes.csv", 2, lambda f: ["shape_train_0000.v01"] + f[1:],
             r"shapes.csv: expected view row shape_train_0000.v00 \(3 rows per shape, in order\), "
             r"got row shape_train_0000.v01$"),
            ("shapes.csv", 3, lambda f: f[:2] + ["test"] + f[3:],
             r"shapes.csv: view row shape_train_0000.v01 disagrees"),
            ("sketches.csv", 3, lambda f: f[:3] + ["shape"] + f[4:],
             r"sketches.csv: row sketch_train_0001 has modality 'shape', expected 'sketch'$"),
            ("shapes.csv", 4, lambda f: f[:3] + ["sketch"] + f[4:],
             r"shapes.csv: row shape_train_0000.v02 has modality 'sketch', expected 'shape'$"),
        ],
        ids=["label-too-large", "label-negative", "duplicate-view", "view-split", "sketch-row-modality",
             "view-row-modality"],
    )
    def test_inconsistent_rows_rejected(self, tmp_path, name, line, edit, pattern):
        """Each fault lies in the text columns of a train row, which every
        load checks, that of the test split too."""
        save_dataset(small_dataset(seed=9), tmp_path)
        lines = (tmp_path / name).read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        for split in ("train", "test"):
            with pytest.raises(ValueError, match=pattern):
                load_dataset(tmp_path, "sketch" if name == "sketches.csv" else "shape", split)

    @pytest.mark.parametrize(
        "line, edit, pattern",
        [
            (3, lambda text: [text.replace(",0,train,", ",1,train,", 1)],
             r"shapes.csv: view row shape_train_0000.v01 disagrees with shape shape_train_0000 on label or split$"),
            (4, lambda text: [], r"shapes.csv: expected view row shape_train_0000.v02 \(3 rows per shape, "
             r"in order\), got row shape_train_0001.v00$"),
            (2, lambda text: [text.replace(".v00,", ".v" + "9" * 25 + ",", 1)],
             r"shapes.csv: expected view row shape_train_0000.v00 \(3 rows per shape, in order\), "
             r"got row shape_train_0000.v9{25}$"),
        ],
        ids=["view-label", "missing-last-view", "huge-view-number"],
    )
    def test_view_row_faults_rejected(self, tmp_path, line, edit, pattern):
        """A view row whose label disagrees with its shape's first row, a
        shape short of its last view, and a view number past int64 are
        each named with the row at fault, by a load of either split."""
        save_dataset(small_dataset(seed=9), tmp_path)
        lines = (tmp_path / "shapes.csv").read_text().splitlines()
        lines[line - 1 : line] = edit(lines[line - 1])
        (tmp_path / "shapes.csv").write_text("\n".join(lines) + "\n")
        for split in ("train", "test"):
            with pytest.raises(ValueError, match=pattern):
                load_dataset(tmp_path, "shape", split)

    def test_first_faulty_view_row_is_named(self, tmp_path):
        """Of two view-row faults, a label disagreement on line 3 and a
        misnumbered view on line 8, the load names the first in the file,
        whichever kind of check finds it."""
        save_dataset(small_dataset(seed=9), tmp_path)
        lines = (tmp_path / "shapes.csv").read_text().splitlines()
        lines[2] = lines[2].replace(",0,train,", ",1,train,", 1)
        lines[7] = lines[7].replace(".v00,", ".v01,", 1)
        (tmp_path / "shapes.csv").write_text("\n".join(lines) + "\n")
        for split in ("train", "test"):
            with pytest.raises(ValueError, match=r"shapes.csv: view row shape_train_0000.v01 disagrees with shape "
                                                 r"shape_train_0000 on label or split$"):
                load_dataset(tmp_path, "shape", split)

    @pytest.mark.parametrize(
        "views, pattern",
        [
            (2, r"expected view row shape_train_0000.v00 \(2 rows per shape, in order\), got row shape_train_0000.v02$"),
            (10**12, r"expected view row shape_train_0000.v03 \(1000000000000 rows per shape, in order\), "
                     r"got row shape_train_0001.v00$"),
        ],
        ids=["fewer", "far-more"],
    )
    def test_manifest_view_count_must_match_the_file(self, tmp_path, views, pattern):
        """A manifest whose view count is not the file's names the first row
        out of place; a count far beyond the file's rows is reported as
        fast, without a suffix per manifest view."""
        save_dataset(small_dataset(seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("views = 3\n", f"views = {views}\n"))
        for split in ("train", "test"):
            with pytest.raises(ValueError, match=r"shapes.csv: " + pattern):
                load_dataset(tmp_path, "shape", split)

    def test_shuffled_view_rows_rejected(self, tmp_path):
        """Only the writer's layout loads: the same rows shuffled are a
        malformed file, for a load of either split."""
        save_dataset(small_dataset(seed=15, views=4), tmp_path)
        header, *rows = (tmp_path / "shapes.csv").read_text().splitlines()
        Rng(16).shuffle(rows)
        (tmp_path / "shapes.csv").write_text("\n".join([header, *rows]) + "\n")
        pattern = (r"shapes.csv: expected view row shape_test_0008.v00 \(4 rows per shape, in order\), "
                   r"got row shape_test_0008.v01$")
        for split in ("train", "test"):
            with pytest.raises(ValueError, match=pattern):
                load_dataset(tmp_path, "shape", split)

    def test_subset_is_a_copy_of_the_split_rows(self):
        ds = small_dataset(seed=9, noise_frac=0.3)
        for modality in ("sketch", "shape"):
            samples = getattr(ds, modality)
            for split in ("train", "test"):
                rows = np.flatnonzero(np.array(samples.splits) == split)
                got = ds.subset(modality, split)
                assert_same_samples(got, samples.take(rows))
                for name in ("labels", "features", "noisy"):
                    assert not np.shares_memory(getattr(got, name), getattr(samples, name)), (modality, split, name)

    def test_subset_of_another_field_rejected(self):
        with pytest.raises(ValueError, match="^the dataset holds no manifest samples$"):
            small_dataset(seed=9).subset("manifest", "train")

    def test_unknown_modality_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="modality"):
            load_dataset(tmp_path, "audio", "train")

    @pytest.mark.parametrize("split", [None, "validation"])
    def test_unknown_split_rejected(self, tmp_path, split):
        with pytest.raises(ValueError, match=rf"split must be 'train' or 'test', got {split!r}$"):
            load_dataset(tmp_path, "sketch", split)

    @pytest.mark.parametrize(
        "modality, missing",
        [("sketch", r"lacks shape records and the noisy flags of the sketches"), ("shape", r"lacks sketch records$")],
    )
    def test_partial_dataset_not_saved(self, tmp_path, modality, missing):
        save_dataset(small_dataset(seed=9, noise_frac=0.3), tmp_path / "full")
        partial = load_dataset(tmp_path / "full", modality, "train")
        with pytest.raises(ValueError, match=r"cannot save a partial dataset: it " + missing):
            save_dataset(partial, tmp_path / "copy")
        assert not (tmp_path / "copy").exists()


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        ds = small_dataset(seed=10)
        for samples in (ds.sketches("test"), ds.shapes("test")):
            matrix = Rng(11).uniform_matrix(len(samples.ids), 6, -1.0, 1.0)
            path = tmp_path / "emb.csv"
            save_embeddings(path, samples, matrix)
            ids, labels, splits, modalities, loaded = load_embeddings(path)
            assert ids == samples.ids
            assert labels.tolist() == samples.labels.tolist()
            assert set(splits) == {"test"}
            assert set(modalities) == {samples.modality}
            np.testing.assert_array_equal(loaded, matrix)
        assert [s.modality for s in (ds.sketch, ds.shape)] == ["sketch", "shape"]

    def test_non_finite_row_rejected_by_id(self, tmp_path):
        ds = small_dataset(seed=13)
        samples = ds.sketches("test")
        matrix = Rng(14).uniform_matrix(len(samples.ids), 3, -1.0, 1.0)
        matrix[2, 1] = np.inf
        matrix[5, 0] = np.nan
        path = tmp_path / "emb.csv"
        save_embeddings(path, samples, matrix)
        # sample 2 is on line 4 (header, then samples 0 and 1)
        with pytest.raises(ValueError, match=f"emb.csv line 4: row {samples.ids[2]} has non-finite"):
            load_embeddings(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        ds = small_dataset(seed=12)
        with pytest.raises(ValueError, match="records"):
            save_embeddings(tmp_path / "e.csv", ds.sketches("test"), np.zeros((1, 4)))

    def test_feature_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("ident,label,split,modality,v0\n")
        with pytest.raises(ValueError, match="header"):
            read_feature_csv(path, None)

    def test_write_read_feature_csv(self, tmp_path):
        matrix = np.array([[0.1, -2.0]])
        path = tmp_path / "f.csv"
        write_feature_csv(path, ["a"], [0], ["train"], ["sketch"], matrix)
        ids, *_, loaded = read_feature_csv(path, None)
        assert loaded.shape[1] == 2
        assert ids[0] == "a"
        np.testing.assert_array_equal(loaded[0], matrix[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_write_feature_csv_bytes(self, tmp_path, dtype):
        values = np.array([-0.0, 5e-324, 1e-05, 1e16, 0.1, -2.5, 1 / 3], dtype=dtype)
        path = tmp_path / "f.csv"
        matrix = np.stack([values, values[::-1]])
        write_feature_csv(path, ["a", "b"], [1, 0], ["test", "train"], ["shape", "shape"], matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,label,split,modality," + ",".join(f"v{i}" for i in range(7))
        assert lines[1] == "a,1,test,shape," + ",".join(repr(float(v)) for v in values)
        assert lines[2] == "b,0,train,shape," + ",".join(repr(float(v)) for v in values[::-1])
        if dtype is np.float64:
            assert lines[1] == "a,1,test,shape,-0.0,5e-324,1e-05,1e+16,0.1,-2.5,0.3333333333333333"

    @pytest.mark.parametrize("rows", [2, 2 * _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("short", range(4))
    def test_write_feature_csv_checks_column_lengths(self, tmp_path, rows, short):
        columns = [[f"s{i}" for i in range(rows)], [0] * rows, ["train"] * rows, ["sketch"] * rows]
        del columns[short][rows // 2]
        path = tmp_path / "f.csv"
        for matrix in (np.zeros((rows, 2)), np.zeros((rows, 3, 2))):
            with pytest.raises(ValueError, match=rf"matrix has {rows} rows"):
                write_feature_csv(path, *columns, matrix)
        assert not path.exists()

    @pytest.mark.parametrize("views", [1, 3, 12, 300])
    def test_view_block_writes_the_expanded_rows(self, tmp_path, views):
        """An N x views x dim matrix writes the bytes of the expanded rows,
        ids <id>.vNN, whether a block holds many samples or (at 300 views,
        more than _BLOCK_ROWS) one."""
        n = 300
        matrix = Rng(views).uniform_matrix(n * views, 2, -1.0, 1.0)
        ids, labels = [f"shape_{i:04d}" for i in range(n)], [i % 7 for i in range(n)]
        splits = [("train", "test")[i % 2] for i in range(n)]
        write_feature_csv(tmp_path / "block.csv", ids, labels, splits, ["shape"] * n, matrix.reshape(n, views, 2))
        write_feature_csv(
            tmp_path / "rows.csv", [f"{sample_id}.v{j:02d}" for sample_id in ids for j in range(views)],
            [label for label in labels for _ in range(views)], [split for split in splits for _ in range(views)],
            ["shape"] * (n * views), matrix,
        )
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("dtype, views, dim", [(np.float64, None, 8), (np.float32, None, 8), (np.float64, 12, 8),
                                                   (None, 11, 5)],
                             ids=["float64", "float32", "float64-12-views", "drawn-11-views-dim-5"])
    def test_share_writes_have_the_one_share_bytes(self, tmp_path, monkeypatch, dtype, views, dim):
        """A write above the share floor gives the same bytes in 2 and 3
        shares as in one, also when the share count does not divide the
        samples, and an N x views x dim matrix too, as does a write in as
        many shares as the process may use CPUs; it forks one process per
        extra share and leaves no part file.  So does generate's block of
        shape views drawn on demand (dtype None), which each share draws
        for its own shapes alone; at 11 x 5 values each shape's draw drops
        a spare normal.  A write below the floor forks nothing, whatever
        the CPU count."""
        per_sample = views or 1
        rows = _POOL_MIN_VALUES // (dim * per_sample) + 5
        assert rows % 2 and rows % 3
        if dtype is None:
            matrix = data._DrawnViews(Rng(17), Rng(18).normal_matrix(4, dim), np.arange(rows) % 4, views)
        else:
            matrix = Rng(17).uniform_matrix(rows * per_sample, dim, -1.0, 1.0)
            matrix[:, :4] = [-0.0, 5e-324, 1e16, 0.1]
            matrix = matrix.astype(dtype)
            if views:
                matrix = matrix.reshape(rows, views, dim)
        columns = [f"s{i}" for i in range(rows)], list(range(rows)), ["train"] * rows, ["shape"] * rows
        forks = _count_forks(monkeypatch)
        # One share per CPU this process may use (one under taskset -c 0).
        write_feature_csv(tmp_path / "0.csv", *columns, matrix)
        assert len(forks) == data._usable_cpus() - 1
        for shares in (1, 2, 3):
            monkeypatch.setattr(data, "_usable_cpus", lambda: shares)
            forks.clear()
            write_feature_csv(tmp_path / f"{shares}.csv", *columns, matrix)
            assert len(forks) == shares - 1
            assert sorted(p.name for p in tmp_path.iterdir()) == [f"{s}.csv" for s in range(shares + 1)]
        for shares in (0, 2, 3):
            assert (tmp_path / f"{shares}.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
        assert read_feature_csv(tmp_path / "3.csv", None)[4].tobytes() == np.asarray(matrix, np.float64).tobytes()
        below = _POOL_MIN_VALUES // (dim * per_sample) - 1
        forks.clear()
        write_feature_csv(tmp_path / "below.csv", *(column[:below] for column in columns), matrix[:below])
        assert forks == []


def _count_forks(monkeypatch) -> list:
    """A list that gets the pid of each process os.fork starts."""
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _assert_reaped(pids) -> None:
    """Each of the forked ``pids`` has exited and been waited for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _fail_in(monkeypatch, where: str, exc) -> None:
    """Make _format_rows raise ``exc`` in the forked share processes
    (``where = "child"``) or in the writing process alone ("owner")."""
    owner, format_rows = os.getpid(), data._format_rows

    def format_or_raise(*block):
        if (os.getpid() == owner) == (where == "owner"):
            raise exc
        return format_rows(*block)

    monkeypatch.setattr(data, "_format_rows", format_or_raise)


class TestShareFailures:
    """A share that fails, or an interrupt of the writing process, leaves
    no part file and no child process behind."""

    ROWS = _POOL_MIN_VALUES // 8 + 5

    def _write(self, path):
        rows = self.ROWS
        matrix = Rng(19).uniform_matrix(rows, 8, -1.0, 1.0)
        write_feature_csv(path, [f"s{i}" for i in range(rows)], [0] * rows, ["train"] * rows, ["sketch"] * rows,
                          matrix)

    @pytest.mark.parametrize("shares", [2, 3])
    def test_failed_share_raises_oserror_naming_the_file(self, tmp_path, monkeypatch, shares):
        monkeypatch.setattr(data, "_usable_cpus", lambda: shares)
        forks = _count_forks(monkeypatch)
        _fail_in(monkeypatch, "child", RuntimeError("a share fails"))
        path = tmp_path / "f.csv"
        with pytest.raises(OSError, match=re.escape(f"{path}: the process formatting rows ")):
            self._write(path)
        assert len(forks) == shares - 1
        _assert_reaped(forks)
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_interrupt_kills_the_shares_and_removes_their_parts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        forks = _count_forks(monkeypatch)
        _fail_in(monkeypatch, "owner", KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            self._write(tmp_path / "f.csv")
        assert len(forks) == 2
        _assert_reaped(forks)
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


# gen-data arguments whose shapes.csv (400 x 12 x 64 values) is above the
# share floor and whose sketches.csv is below it.
GEN_DATA_ARGS = ["--classes", "4", "--train-per-class", "80", "--test-per-class", "20", "--dim", "64", "--views", "12"]

# Runs cli.main on argv[4:] with _usable_cpus() = argv[1] and a line of
# text waiting in the buffer of an open file, argv[3]; with argv[2] = "fail",
# every forked share process raises in _format_rows.
GEN_DATA_SCRIPT = """
import os, sys
from sketchshape import cli, data
data._usable_cpus = lambda: int(sys.argv[1])
owner, format_rows = os.getpid(), data._format_rows
def format_or_fail(*block):
    if sys.argv[2] == "fail" and os.getpid() != owner:
        raise RuntimeError("a share fails")
    return format_rows(*block)
data._format_rows = format_or_fail
with open(sys.argv[3], "w") as log:
    log.write("buffered\\n")
    status = cli.main(sys.argv[4:])
raise SystemExit(status)
"""


def _gen_data(out, shares: int, mode: str = "ok"):
    """gen-data in a child interpreter, stdout and stderr piped and
    PYTHONUNBUFFERED unset, so its printed lines wait in a buffer while the
    shares fork, as does the line of ``out``.log."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-c", GEN_DATA_SCRIPT, str(shares), mode, f"{out}.log", "gen-data", "--out", str(out),
            *GEN_DATA_ARGS]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


def test_gen_data_in_shares_prints_each_line_once(tmp_path):
    """Two shares print what one share prints, each [gen-data] line once,
    and write the same files; a child that flushed an inherited buffer
    would print the lines before the fork twice, or write the log's line
    twice."""
    runs = {shares: _gen_data(tmp_path / str(shares), shares) for shares in (1, 2)}
    for shares, done in runs.items():
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert (tmp_path / f"{shares}.log").read_text() == "buffered\n"
    one, two = (runs[s].stdout.replace(str(tmp_path / str(s)), "OUT").splitlines() for s in (1, 2))
    assert two == one and len(two) == len(set(two)) >= 3 and all(line.startswith("[gen-data]") for line in two)
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == ["manifest.txt", "noisy.csv", "shapes.csv", "sketches.csv"]
    assert sorted(p.name for p in (tmp_path / "2").iterdir()) == names
    for name in names:
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name


def test_gen_data_with_a_failed_share_exits_2(tmp_path):
    """One error: line naming shapes.csv, no traceback from either
    process, and no part file left beside it."""
    done = _gen_data(tmp_path / "d", 2, "fail")
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith(f"error: {tmp_path / 'd' / 'shapes.csv'}: the process formatting rows "), line
    assert not [p.name for p in (tmp_path / "d").iterdir() if p.name.endswith(".part")]


# Finite float64 values, with the edge cases of repr round-trips mixed in.
EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7e308, -1.7e308, 0.1, 1e16)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(
    matrix=st.integers(1, 5).flatmap(
        lambda dim: hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.just(dim)),
            elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES)),
        )
    )
)
def test_feature_csv_round_trip_is_bitwise(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("roundtrip") / "f.csv"
    n = matrix.shape[0]
    ids, labels = [f"s{i}" for i in range(n)], list(range(n))
    splits, modalities = ["train"] * n, ["sketch"] * n
    write_feature_csv(path, ids, labels, splits, modalities, matrix)
    got = read_feature_csv(path, None)
    assert got[0] == ids and got[1].tolist() == labels and got[2] == splits and got[3] == modalities
    assert got[4].shape == matrix.shape and got[4].tobytes() == matrix.tobytes()


# Field values on which numpy's parser and float() could part ways, and
# faults: a label beyond int64, extra and split fields (None drops one).
READER_TOKENS = (
    "1_0", " 1.5", "+.5", "-0.0", "5e-324", "1e400", "nan", "inf", "", "0x1p3", "1\x1c", "\x1f2",
    "9223372036854775808", "1.0,2.0", "3\n4", None,
)

# Rows an edit lands on (modulo the row count): the last row, and either
# side of the first block boundaries.
EDITED_ROWS = (-1, 2 * _BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS, _BLOCK_ROWS - 1, 1, 0)


def _read_outcome(path, split, restrict=False):
    """read_feature_csv's columns as bytes and lists, or its error with the
    file named by its name alone; with ``restrict``, the matrix holds only
    the rows of ``split``."""
    try:
        ids, labels, splits, modalities, matrix = read_feature_csv(path, None if restrict else split)
    except ValueError as exc:
        return "error", str(exc).replace(str(path), path.name)
    if restrict:
        matrix = matrix[[s == split for s in splits]]
    return ids, labels.tobytes(), splits, modalities, matrix.shape, matrix.tobytes()


def _refuse(*args, **kwargs):
    raise ValueError("numpy parser disabled")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 3),
    rows=st.one_of(st.integers(_BLOCK_ROWS, 2 * _BLOCK_ROWS + 20), st.integers(1, 8)),
    edits=st.lists(
        st.tuples(st.sampled_from(EDITED_ROWS), st.integers(0, 6), st.sampled_from(READER_TOKENS)),
        max_size=3,
    ),
)
@example(dim=1, rows=1, edits=[(0, 4, "")])  # np.loadtxt warns on a block with no values
@example(dim=2, rows=2 * _BLOCK_ROWS + 1, edits=[(_BLOCK_ROWS, 1, "9223372036854775808")])
@example(dim=2, rows=2 * _BLOCK_ROWS + 1, edits=[(2 * _BLOCK_ROWS, 5, "1\x1c"), (_BLOCK_ROWS + 1, 4, "nan")])
# numpy strips each of \x1c-\x1f around a number, which float() rejects.
@example(dim=2, rows=2, edits=[(1, 4, "\x1c2.0")])
@example(dim=2, rows=2, edits=[(1, 5, "2.0\x1d")])
@example(dim=2, rows=2, edits=[(1, 4, "2\x1e")])
@example(dim=2, rows=2, edits=[(1, 5, "\x1f2")])
# numpy reads these blocks; a reader that lost the sign of -0.0 would differ.
@example(dim=2, rows=2, edits=[(1, 4, "-0.0")])
@example(dim=1, rows=_BLOCK_ROWS + 1, edits=[(_BLOCK_ROWS, 4, "-0.0"), (0, 4, "-0.0")])
# Every warning the reader raises is an error.  Reporting a failed example
# imports a module that raises a DeprecationWarning; as an error it would be
# a pytest INTERNALERROR that ends the run, so that one warning is ignored
# (a later filter of one mark takes precedence).
@pytest.mark.filterwarnings("error", r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning")
def test_block_reader_matches_line_loop(tmp_path_factory, dim, rows, edits):
    """The block reader gives the per-line loop's columns bitwise, or its
    error message, also when the first fault lies in a later block."""
    lines = [[f"s{i}", str(i % 3), "train", "sketch", *(repr((i * 7 + c) / 3) for c in range(dim))] for i in range(rows)]
    for row, column, token in edits:
        fields = lines[row % rows]
        if token is None:
            del fields[column % len(fields)]
        else:
            fields[column % len(fields)] = token
    path = tmp_path_factory.mktemp("blocks") / "f.csv"
    header = "id,label,split,modality," + ",".join(f"v{i}" for i in range(dim))
    path.write_text("\n".join([header, *map(",".join, lines)]) + "\n", encoding="ascii")
    got = _read_outcome(path, None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _refuse)
        assert got == _read_outcome(path, None)


SPLITS = ("train", "test")


def _values_cleaned_outside(text: str, split: str) -> str:
    """``text`` with each value of every row outside ``split`` set to 0:
    its field count and text columns stay."""
    lines = text.split("\n")
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) > 4 and fields[2] != split:
            lines[i] = ",".join(fields[:4] + ["0"] * (len(fields) - 4))
    return "\n".join(lines)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 3),
    rows=st.one_of(st.integers(_BLOCK_ROWS, 2 * _BLOCK_ROWS + 20), st.integers(1, 8)),
    edits=st.lists(
        st.tuples(st.sampled_from(EDITED_ROWS), st.integers(0, 6), st.sampled_from(READER_TOKENS + SPLITS)),
        max_size=3,
    ),
)
# A skipped value fault in a block that float() re-reads for another row.
@example(dim=2, rows=8, edits=[(1, 4, "nan"), (3, 5, "1_0")])
@example(dim=2, rows=8, edits=[(4, 5, "x"), (1, 4, "1e400")])
@example(dim=1, rows=2 * _BLOCK_ROWS + 1, edits=[(_BLOCK_ROWS, 4, "inf"), (_BLOCK_ROWS + 1, 1, "9223372036854775808")])
@example(dim=2, rows=8, edits=[(2, 4, "nan"), (0, 2, "test")])
# np.loadtxt warns on a block with no values.  Only that warning is made an
# error: a blanket filter also turns the DeprecationWarning that reporting
# a failed example raises into a pytest INTERNALERROR, which ends the run.
@pytest.mark.filterwarnings("error::UserWarning")
def test_split_read_is_the_full_read_restricted(tmp_path_factory, dim, rows, edits):
    """A split read gives every row's text columns and the split's values:
    what the full read gives, its matrix restricted to the split, once the
    values outside the split are cleaned.  So a value fault outside the
    split never raises, neither in np.loadtxt's blocks nor in the per-line
    fallback, and every other fault raises the full read's error."""
    lines = [[f"s{i}", str(i % 3), SPLITS[i // 3 % 2], "sketch", *(repr((i * 7 + c) / 3) for c in range(dim))]
             for i in range(rows)]
    for row, column, token in edits:
        fields = lines[row % rows]
        if token is None:
            del fields[column % len(fields)]
        else:
            fields[column % len(fields)] = token
    header = "id,label,split,modality," + ",".join(f"v{i}" for i in range(dim))
    text = "\n".join([header, *map(",".join, lines)]) + "\n"
    directory = tmp_path_factory.mktemp("splits")
    path, clean = directory / "f.csv", directory / "clean" / "f.csv"
    path.write_text(text, encoding="ascii")
    clean.parent.mkdir()
    for split in SPLITS:
        clean.write_text(_values_cleaned_outside(text, split), encoding="ascii")
        want = _read_outcome(clean, split, restrict=True)
        assert _read_outcome(path, split) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "loadtxt", _refuse)
            assert _read_outcome(path, split) == want
