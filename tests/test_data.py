"""Synthetic dataset generator and file formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sketchshape.data import (
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
    return generate(classes, train, test, dim, views, noise_frac, mode, Rng(seed), seed=seed)


class TestGenerate:
    def test_published_benchmark_counts(self):
        ds = generate(3, 50, 30, 8, 3, 0.0, "ambiguous", Rng(1), seed=1)
        assert len(ds.sketches("train")) == 150
        assert len(ds.sketches("test")) == 90
        assert len(ds.shapes("train")) == 150
        assert len(ds.shapes("test")) == 90

    def test_zero_noise_frac_flags_nothing(self):
        ds = small_dataset(noise_frac=0.0)
        assert not any(r.noisy for r in ds.records)

    def test_noisy_fraction_per_class_and_split(self):
        ds = small_dataset(seed=2, noise_frac=0.25, train=10, test=4)
        for split, per_class in (("train", 10), ("test", 4)):
            want = math.ceil(0.25 * per_class)
            for label in range(3):
                got = sum(1 for r in ds.sketches(split) if r.label == label and r.noisy)
                assert abs(got - want) <= 1

    def test_shapes_never_noisy_and_have_views(self):
        ds = small_dataset(seed=3, noise_frac=0.5)
        for r in ds.shapes("train"):
            assert not r.noisy
            assert r.features.shape == (3, 8)

    def test_same_seed_identical_datasets(self):
        a = small_dataset(seed=4, noise_frac=0.3)
        b = small_dataset(seed=4, noise_frac=0.3)
        for ra, rb in zip(a.records, b.records):
            assert ra.sample_id == rb.sample_id
            assert ra.noisy == rb.noisy
            np.testing.assert_array_equal(ra.features, rb.features)

    def test_intra_class_cosine_beats_inter_class(self):
        ds = generate(5, 30, 5, 16, 2, 0.0, "ambiguous", Rng(5), seed=5)
        records = ds.sketches("train")
        feats = np.stack([r.features for r in records])
        labels = np.array([r.label for r in records])
        cos = cosine_matrix(feats, feats)
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(len(records), dtype=bool)
        intra = cos[same & off].mean()
        inter = cos[~same].mean()
        assert intra > inter + 0.2

    def test_label_mode_features_sit_near_wrong_class(self):
        ds = small_dataset(seed=6, noise_frac=0.5, mode="label", train=20)
        records = ds.sketches("train")
        feats = np.stack([r.features for r in records])
        labels = np.array([r.label for r in records])
        noisy = np.array([r.noisy for r in records])
        clean_means = np.stack([feats[(labels == c) & ~noisy].mean(axis=0) for c in range(3)])
        cos = cosine_matrix(feats, clean_means)
        own = cos[np.arange(len(records)), labels]
        # mislabeled features are far from their own class's clean centroid
        assert own[noisy].mean() < own[~noisy].mean() - 0.3

    def test_prototype_constraint_failure_suggests_larger_dim(self):
        with pytest.raises(ValueError, match="increase the feature dimension"):
            generate(40, 2, 1, 2, 1, 0.0, "ambiguous", Rng(0))

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="noise_frac"):
            small_dataset(noise_frac=1.5)
        with pytest.raises(ValueError, match="noise_mode"):
            generate(3, 5, 2, 8, 2, 0.0, "bogus", Rng(0))
        with pytest.raises(ValueError, match="classes"):
            generate(1, 5, 2, 8, 2, 0.0, "ambiguous", Rng(0))


class TestDatasetFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        ds = small_dataset(seed=7, noise_frac=0.3)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.manifest.classes == ds.manifest.classes
        assert loaded.manifest.counts == ds.manifest.counts
        assert len(loaded.records) == len(ds.records)
        by_id = {r.sample_id: r for r in loaded.records}
        for r in ds.records:
            other = by_id[r.sample_id]
            assert (other.label, other.split, other.modality, other.noisy) == (
                r.label,
                r.split,
                r.modality,
                r.noisy,
            )
            np.testing.assert_array_equal(other.features, r.features)

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            save_dataset(small_dataset(seed=8, noise_frac=0.2), tmp_path / sub)
        for name in ("manifest.txt", "sketches.csv", "shapes.csv", "noisy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_truncated_row_reports_line_number(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1\nx,0,train,sketch,1.0,2.0\ny,1,train,sketch,3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_feature_csv(path)

    def test_header_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v2\n")
        with pytest.raises(ValueError, match="v0..v1"):
            read_feature_csv(path)

    def test_bad_value_reports_line_number(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0\nx,0,train,sketch,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            read_feature_csv(path)

    def test_non_finite_value_reports_line_and_id(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1\nx,0,train,sketch,1.0,2.0\ny,1,train,sketch,3.0,-inf\n")
        with pytest.raises(ValueError, match=r"feat.csv line 3: row y has non-finite"):
            read_feature_csv(path)

    def test_finite_values_with_overflowing_sum_accepted(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1\nx,0,train,sketch,1e308,1e308\n")
        *_, matrix = read_feature_csv(path)
        np.testing.assert_array_equal(matrix[0], [1e308, 1e308])

    def test_header_only_file_reads_as_empty_columns(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0,v1,v2\n")
        ids, labels, splits, modalities, matrix = read_feature_csv(path)
        assert ids == splits == modalities == []
        assert labels.dtype == np.int64 and labels.shape == (0,)
        assert matrix.dtype == np.float64 and matrix.shape == (0, 3)
        with pytest.raises(ValueError, match=r"feat.csv: no embedding rows"):
            load_embeddings(path)

    def test_non_ascii_byte_reports_file_and_line(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_bytes(b"id,label,split,modality,v0\nx,0,train,sketch,1.0\ny,0,tr\xc3\xa9in,sketch,2.0\n")
        with pytest.raises(ValueError, match=r"feat.csv line 3: non-ASCII byte 0xc3"):
            read_feature_csv(path)

    def test_crlf_file_reads_like_lf(self, tmp_path):
        text = "id,label,split,modality,v0,v1\nx,0,train,sketch,1.0,2.0\ny,1,test,shape,-0.0,5e-324\n"
        (tmp_path / "lf.csv").write_bytes(text.encode("ascii"))
        (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        lf, crlf = read_feature_csv(tmp_path / "lf.csv"), read_feature_csv(tmp_path / "crlf.csv")
        assert lf[0] == crlf[0] == ["x", "y"] and lf[2:4] == crlf[2:4]
        assert lf[1].tolist() == crlf[1].tolist() and lf[4].tobytes() == crlf[4].tobytes()

    def test_label_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("id,label,split,modality,v0\nx,0,train,sketch,1.0\ny,99999999999999999999,train,sketch,2.0\n")
        with pytest.raises(ValueError, match=r"feat.csv line 3: "):
            read_feature_csv(path)

    def test_manifest_missing_key_named(self, tmp_path):
        save_dataset(small_dataset(seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(l for l in lines if not l.startswith("classes")) + "\n")
        with pytest.raises(ValueError, match=r"manifest.txt: missing key 'classes'"):
            load_dataset(tmp_path)

    def test_manifest_bad_value_reports_line(self, tmp_path):
        save_dataset(small_dataset(seed=9), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("views = 3", "views = three"))
        with pytest.raises(ValueError, match=r"manifest.txt line 4: views"):
            load_dataset(tmp_path)

    def test_manifest_count_mismatch_detected(self, tmp_path):
        ds = small_dataset(seed=9)
        save_dataset(ds, tmp_path)
        sketches = (tmp_path / "sketches.csv").read_text().splitlines()
        (tmp_path / "sketches.csv").write_text("\n".join(sketches[:-1]) + "\n")
        with pytest.raises(ValueError, match="manifest count"):
            load_dataset(tmp_path)

    def test_sketch_load_checks_manifest_count(self, tmp_path):
        save_dataset(small_dataset(seed=9), tmp_path)
        sketches = (tmp_path / "sketches.csv").read_text().splitlines()
        (tmp_path / "sketches.csv").write_text("\n".join(sketches[:-1]) + "\n")
        with pytest.raises(ValueError, match="manifest count sketch_test"):
            load_dataset(tmp_path, "sketch")

    @pytest.mark.parametrize("modality, skipped", [("sketch", ["shapes.csv", "noisy.csv"]),
                                                   ("shape", ["sketches.csv", "noisy.csv"])])
    def test_one_modality_reads_only_its_files(self, tmp_path, modality, skipped):
        """Only the full load reads noisy.csv: a sketch-only load leaves
        every flag None (not read); shapes are always clean."""
        ds = small_dataset(seed=9, noise_frac=0.3)
        save_dataset(ds, tmp_path)
        for name in skipped:
            (tmp_path / name).unlink()
        loaded = load_dataset(tmp_path, modality)
        expected = [r for r in ds.records if r.modality == modality]
        assert [(r.sample_id, r.label, r.split, r.noisy) for r in loaded.records] == [
            (r.sample_id, r.label, r.split, None if modality == "sketch" else r.noisy) for r in expected
        ]
        for got, want in zip(loaded.records, expected):
            np.testing.assert_array_equal(got.features, want.features)

    @pytest.mark.parametrize(
        "name, line, edit, pattern",
        [
            ("sketches.csv", 2, lambda f: f[:1] + ["3"] + f[2:],
             r"sketches.csv: row sketch_train_0000 has label 3, manifest says 3 classes"),
            ("sketches.csv", 3, lambda f: f[:1] + ["-1"] + f[2:], r"sketches.csv: row sketch_train_0001 has label -1"),
            ("shapes.csv", 2, lambda f: ["shape_train_0000.v01"] + f[1:],
             r"shapes.csv: shape shape_train_0000 has views \[1, 1, 2\]"),
            ("shapes.csv", 3, lambda f: f[:2] + ["test"] + f[3:],
             r"shapes.csv: view row shape_train_0000.v01 disagrees"),
        ],
        ids=["label-too-large", "label-negative", "duplicate-view", "view-split"],
    )
    def test_inconsistent_rows_rejected(self, tmp_path, name, line, edit, pattern):
        save_dataset(small_dataset(seed=9), tmp_path)
        lines = (tmp_path / name).read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=pattern):
            load_dataset(tmp_path)

    def test_shuffled_view_rows_load_to_the_same_records(self, tmp_path):
        save_dataset(small_dataset(seed=15, views=4), tmp_path / "a")
        save_dataset(small_dataset(seed=15, views=4), tmp_path / "b")
        header, *rows = (tmp_path / "b" / "shapes.csv").read_text().splitlines()
        Rng(16).shuffle(rows)
        (tmp_path / "b" / "shapes.csv").write_text("\n".join([header, *rows]) + "\n")
        a, b = (load_dataset(tmp_path / sub, "shape").records for sub in ("a", "b"))
        assert sorted(r.sample_id for r in b) == sorted(r.sample_id for r in a)
        by_id = {r.sample_id: r for r in b}
        for r in a:
            other = by_id[r.sample_id]
            assert (other.label, other.split, other.modality, other.noisy) == (r.label, r.split, r.modality, False)
            assert type(other.label) is int
            assert other.features.shape == (4, 8) and other.features.tobytes() == r.features.tobytes()

    def test_unknown_modality_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="modality"):
            load_dataset(tmp_path, "audio")


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        ds = small_dataset(seed=10)
        records = ds.sketches("test")
        matrix = Rng(11).uniform_matrix(len(records), 6, -1.0, 1.0)
        path = tmp_path / "emb.csv"
        save_embeddings(path, records, matrix)
        ids, labels, splits, modalities, loaded = load_embeddings(path)
        assert ids == [r.sample_id for r in records]
        assert labels.tolist() == [r.label for r in records]
        assert set(splits) == {"test"}
        assert set(modalities) == {"sketch"}
        np.testing.assert_array_equal(loaded, matrix)

    def test_non_finite_row_rejected_by_id(self, tmp_path):
        ds = small_dataset(seed=13)
        records = ds.sketches("test")
        matrix = Rng(14).uniform_matrix(len(records), 3, -1.0, 1.0)
        matrix[2, 1] = np.inf
        matrix[5, 0] = np.nan
        path = tmp_path / "emb.csv"
        save_embeddings(path, records, matrix)
        # records[2] is on line 4 (header, then records 0 and 1)
        with pytest.raises(ValueError, match=f"emb.csv line 4: row {records[2].sample_id} has non-finite"):
            load_embeddings(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        ds = small_dataset(seed=12)
        with pytest.raises(ValueError, match="records"):
            save_embeddings(tmp_path / "e.csv", ds.sketches("test"), np.zeros((1, 4)))

    def test_feature_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("ident,label,split,modality,v0\n")
        with pytest.raises(ValueError, match="header"):
            read_feature_csv(path)

    def test_write_read_feature_csv(self, tmp_path):
        matrix = np.array([[0.1, -2.0]])
        path = tmp_path / "f.csv"
        write_feature_csv(path, ["a"], [0], ["train"], ["sketch"], matrix)
        ids, *_, loaded = read_feature_csv(path)
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
    got = read_feature_csv(path)
    assert got[0] == ids and got[1].tolist() == labels and got[2] == splits and got[3] == modalities
    assert got[4].shape == matrix.shape and got[4].tobytes() == matrix.tobytes()
