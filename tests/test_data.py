"""Synthetic dataset generator and file formats."""

import math

import numpy as np
import pytest

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

    def test_manifest_count_mismatch_detected(self, tmp_path):
        ds = small_dataset(seed=9)
        save_dataset(ds, tmp_path)
        sketches = (tmp_path / "sketches.csv").read_text().splitlines()
        (tmp_path / "sketches.csv").write_text("\n".join(sketches[:-1]) + "\n")
        with pytest.raises(ValueError, match="manifest count"):
            load_dataset(tmp_path)


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
        with pytest.raises(ValueError, match=f"emb.csv: embedding {records[2].sample_id} has non-finite"):
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
        rows = [("a", 0, "train", "sketch", np.array([0.1, -2.0]))]
        path = tmp_path / "f.csv"
        write_feature_csv(path, rows, 2)
        loaded, dim = read_feature_csv(path)
        assert dim == 2
        assert loaded[0][0] == "a"
        np.testing.assert_array_equal(loaded[0][4], rows[0][4])
