"""Two-stage trainer: schedule, SGD, determinism, stage contracts."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sketchshape.data import generate
from sketchshape.losses import Classifier, center_accuracy, transfer_loss, uncertainty_loss
from sketchshape.model import (
    _prepare_sketches,
    _named_matrices,
    _prepare_views,
    _shape_forward,
    _sketch_forward,
    encode_shape_batch,
    encode_sketch_batch,
    init_classifier,
    init_shape_model,
    init_sketch_model,
    reparameterize,
    shape_backward,
    sketch_backward,
)
from sketchshape.ops import require_finite
from sketchshape.rng import Rng
from sketchshape import train as train_mod
from sketchshape.train import (
    TrainConfig,
    TrainReport,
    cosine_lr,
    format_config,
    load_config,
    sgd_step,
    train_stage1,
    train_stage2,
)

EASY = dict(classes=3, train_per_class=20, test_per_class=8, dim=8, views=3)


def _parameters(model) -> list:
    """The model's matrices in checkpoint order."""
    return [a for _, a in _named_matrices(model)]


def easy_dataset(seed, noise_frac=0.0):
    return generate(
        EASY["classes"],
        EASY["train_per_class"],
        EASY["test_per_class"],
        EASY["dim"],
        EASY["views"],
        noise_frac,
        "ambiguous",
        seed,
    )


def easy_cfg(**overrides):
    base = dict(
        feature_dim=EASY["dim"],
        hidden=(32, 32),
        embed_dim=8,
        classes=EASY["classes"],
        batch_size=16,
        lr0=0.05,
        max_epochs=30,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.4) == 0.4
        assert cosine_lr(100, 100, 0.4) == 0.0
        assert cosine_lr(50, 100, 0.4) == pytest.approx(0.2, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 0.4)
        with pytest.raises(ValueError):
            cosine_lr(-1, 100, 0.4)

    def test_within_bounds_everywhere(self):
        for t in range(0, 201):
            lr = cosine_lr(t, 200, 4e-4)
            assert 0.0 <= lr <= 4e-4


class TestSgdStep:
    def test_plain_rule(self):
        p = np.array([[1.0]])
        sgd_step(p, np.array([[2.0]]), 0.1, 0.0, np.zeros((1, 1)))
        assert p[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_lr_is_noop(self):
        p = np.array([[1.0, 2.0]])
        before = p.copy()
        sgd_step(p, np.array([[5.0, -1.0]]), 0.0, 0.9, np.zeros((1, 2)))
        np.testing.assert_array_equal(p, before)

    def test_momentum_matches_hand_unrolled_recurrence(self):
        lr, mom = 0.1, 0.9
        g1 = np.array([[1.0]])
        g2 = np.array([[-2.0]])
        p = np.array([[0.5]])
        v = np.zeros((1, 1))
        sgd_step(p, g1, lr, mom, v)
        sgd_step(p, g2, lr, mom, v)
        v1 = 1.0
        v2 = mom * v1 + (-2.0)
        want = 0.5 - lr * v1 - lr * v2
        assert p[0, 0] == pytest.approx(want, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(np.zeros((2, 2)), np.zeros((2, 3)), 0.1, 0.0, np.zeros((2, 2)))

    def test_shape_mismatch_without_velocity(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(np.zeros((2, 2)), np.zeros((2, 3)), 0.1, 0.0)

    def test_momentum_needs_velocity(self):
        with pytest.raises(ValueError, match="velocity buffer"):
            sgd_step(np.zeros((1, 1)), np.ones((1, 1)), 0.1, 0.9, None)

    def test_no_buffer_at_momentum_zero_matches_buffer_bitwise(self):
        # gradients with signed zeros, steps with lr 0; parameters start
        # nonzero or +0.0, as every initialiser draws them
        rng = Rng(15)
        p_buf = rng.uniform_matrix(4, 5, -1.0, 1.0)
        p_buf[0] = 0.0
        p_free = p_buf.copy()
        velocity = np.zeros_like(p_buf)
        for lr in (0.1, 0.0, 0.05, 0.2):
            g = np.floor(rng.uniform_matrix(4, 5, -2.0, 2.0))
            g[:, ::2] = -g[:, ::2]  # turns the zeros of every other column into -0.0
            sgd_step(p_buf, g, lr, 0.0, velocity)
            sgd_step(p_free, g, lr, 0.0)
            assert p_buf.tobytes() == p_free.tobytes()


class TestTrainConfig:
    def test_published_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.lr0 == 4e-4
        assert cfg.max_epochs == 200
        assert (cfg.s_sketch, cfg.m_s) == (30.0, 0.5)
        assert (cfg.s_shape, cfg.m_v) == (15.0, 0.8)
        assert cfg.lam == 0.005
        assert cfg.momentum == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(classes=1)
        with pytest.raises(ValueError):
            TrainConfig(m_s=1.0)
        with pytest.raises(ValueError):
            TrainConfig(hidden=())
        with pytest.raises(ValueError):
            TrainConfig(lam=-0.1)

    @pytest.mark.parametrize("name", ["lr0", "lam", "momentum", "s_sketch", "s_shape"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_hyperparameter_rejected(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            TrainConfig(**{name: value})
        path = tmp_path / "train.cfg"
        path.write_text(f"{name} = {value}\n")
        with pytest.raises(ValueError, match=rf"train.cfg: {name} must be finite"):
            load_config(path)

    def test_config_file_round_trip(self, tmp_path):
        cfg = easy_cfg(lr0=0.123, hidden=(5, 6), lam=0.25)
        path = tmp_path / "train.cfg"
        path.write_text(format_config(cfg).replace(" = ", "=") + "\n")
        loaded = load_config(path)
        assert loaded == cfg

    def test_config_file_partial_keeps_defaults(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr0 = 0.01\nmax_epochs = 7  # comment\n")
        assert load_config(path) == TrainConfig(lr0=0.01, max_epochs=7)

    def test_blank_and_comment_lines_load(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# desk run\n\nlr0 = 0.01\n   \n#\n  # max_epochs = 9\nmax_epochs = 7\n\n")
        assert load_config(path) == TrainConfig(lr0=0.01, max_epochs=7)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr0 = 0.1\nmax_epochs = 7\nlr0 = 0.2  # the first lr0 would be lost\n")
        with pytest.raises(ValueError, match=r"train.cfg line 3: key 'lr0' repeats line 1"):
            load_config(path)

    def test_views_is_not_a_config_key(self, tmp_path):
        """A shape's views are the dataset's; training has no views setting."""
        path = tmp_path / "train.cfg"
        path.write_text("views = 99\n")
        with pytest.raises(ValueError, match=r"train.cfg line 1: unknown config key 'views'"):
            load_config(path)

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr0 = 0.01\nhidden = a\n")
        with pytest.raises(ValueError, match=r"train.cfg line 2: hidden: invalid literal"):
            load_config(path)

    def test_invalid_value_names_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("batch_size = 0\n")
        with pytest.raises(ValueError, match=r"train.cfg: batch_size must be >= 1"):
            load_config(path)


class TestTrainReport:
    def test_file_has_no_wall_time(self, tmp_path):
        report = TrainReport(losses=[1.5, 0.5], lrs=[0.1, 0.05], seed=3, wall_time=12.34)
        path = tmp_path / "report.txt"
        report.write(path)
        text = path.read_text()
        assert "12.34" not in text
        assert "# seed 3" in text
        assert text.splitlines()[2].startswith("0 ")


class TestStage1:
    def test_zero_lr_leaves_parameters_unchanged(self):
        ds = easy_dataset(0)
        cfg = easy_cfg(lr0=0.0, max_epochs=1)
        model, classifier, _ = train_stage1(ds.sketches("train"), cfg, Rng(0))
        from sketchshape.model import init_classifier, init_sketch_model

        rng = Rng(0)
        fresh, fresh_classifier = init_sketch_model(cfg, rng), init_classifier(cfg, rng)
        for a, b in zip(_parameters(model), _parameters(fresh)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(classifier.weights, fresh_classifier.weights)

    def test_same_seed_bitwise_identical(self):
        ds = easy_dataset(1)
        cfg = easy_cfg(max_epochs=5)
        m1, c1, r1 = train_stage1(ds.sketches("train"), cfg, Rng(7))
        m2, c2, r2 = train_stage1(ds.sketches("train"), cfg, Rng(7))
        assert r1.losses == r2.losses
        assert r1.lrs == r2.lrs
        np.testing.assert_array_equal(c1.weights, c2.weights)
        for a, b in zip(_parameters(m1), _parameters(m2)):
            np.testing.assert_array_equal(a, b)

    def test_easy_data_reaches_high_train_accuracy(self):
        ds = easy_dataset(2)
        sketches = ds.sketches("train")
        model, classifier, report = train_stage1(sketches, easy_cfg(), Rng(2))
        mu, _ = encode_sketch_batch(model, sketches.features)
        acc = center_accuracy(mu, classifier, sketches.labels)
        assert acc >= 0.99
        assert classifier.frozen
        assert all(math.isfinite(l) for l in report.losses)

    def test_loss_descends_after_warmup(self):
        # The epoch average is stochastic (fresh eps each forward): adjacent
        # epochs jitter up to ~18% even while the curve descends 10-50x, so
        # increases are only counted beyond that sampling envelope.
        ds = generate(10, 300, 2, 16, 3, 0.0, "ambiguous", 3)
        cfg = TrainConfig(
            feature_dim=16,
            hidden=(32, 32),
            embed_dim=16,
            classes=10,
            batch_size=64,
            lr0=0.005,
            max_epochs=40,
            seed=3,
        )
        _, _, report = train_stage1(ds.sketches("train"), cfg, Rng(3))
        tail = report.losses[10:]
        significant = sum(1 for a, b in zip(tail, tail[1:]) if b > 1.2 * a)
        assert significant <= math.ceil(0.05 * (len(tail) - 1))
        assert tail[-1] < 0.5 * tail[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_stage1(easy_dataset(4).sketches("validation"), easy_cfg(), Rng(0))

    def test_missing_class_rejected(self):
        sketches = easy_dataset(4).sketches("train")
        sketches = sketches.take(np.flatnonzero(sketches.labels != 1))
        with pytest.raises(ValueError, match="classes without any training sketch"):
            train_stage1(sketches, easy_cfg(), Rng(0))

    def test_missing_classes_message_stays_short(self):
        sketches = easy_dataset(4).sketches("train")
        with pytest.raises(ValueError) as err:
            train_stage1(sketches, easy_cfg(classes=200000), Rng(0))
        message = str(err.value)
        assert len(message.encode()) < 1024
        assert "199997 classes without any training sketch: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...]" in message

    @pytest.mark.parametrize("bad", [[3], [-1], [7, -2, 3, 7]])
    def test_label_out_of_range_rejected_before_training(self, bad):
        sketches = easy_dataset(4).sketches("train")
        sketches.labels[: len(bad)] = bad
        named = ", ".join(str(v) for v in sorted(set(bad)))
        with pytest.raises(ValueError, match=rf"sketch labels out of range \[0, 3\): \[{named}\]$"):
            train_stage1(sketches, easy_cfg(), Rng(0))

    def test_non_finite_feature_rejected_before_training(self, monkeypatch):
        sketches = easy_dataset(4).sketches("train")
        sketches.features[5, 2] = np.nan
        monkeypatch.setattr(train_mod, "_fit", _no_training)
        with pytest.raises(ValueError, match="^sketch features contains non-finite entries$"):
            train_stage1(sketches, easy_cfg(), Rng(0))

    def test_label_count_must_match_features(self):
        sketches = easy_dataset(4).sketches("train")
        with pytest.raises(ValueError, match=r"^sketch features: 59 labels for 60 samples$"):
            train_stage1(sketches._replace(labels=sketches.labels[:-1]), easy_cfg(), Rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        """The message names the epoch and the batch's position in that
        epoch's order (a multiple of the batch size), not a sample index."""
        ds = easy_dataset(5)
        cfg = easy_cfg(lr0=500.0, max_epochs=30)
        with pytest.raises(RuntimeError, match="non-finite loss") as err:
            train_stage1(ds.sketches("train"), cfg, Rng(5))
        found = re.fullmatch(
            r"stage 1 aborted: non-finite loss (?:nan|-?inf) at epoch (\d+), in the batch at position (\d+) of the "
            r"epoch's shuffled order",
            str(err.value),
        )
        assert found, str(err.value)
        epoch, start = int(found[1]), int(found[2])
        assert epoch < cfg.max_epochs
        assert start % cfg.batch_size == 0 and start < len(ds.sketches("train").ids)


class TestStage2:
    def _stage1(self, seed=6, **overrides):
        ds = easy_dataset(seed)
        cfg = easy_cfg(**overrides)
        model, classifier, _ = train_stage1(ds.sketches("train"), cfg, Rng(seed))
        return ds, cfg, model, classifier

    def test_classifier_bitwise_unchanged(self):
        ds, cfg, _, classifier = self._stage1()
        before = classifier.weights.copy()
        train_stage2(ds.shapes("train"), classifier, cfg, Rng(8))
        np.testing.assert_array_equal(before, classifier.weights)

    def test_unfrozen_classifier_rejected(self):
        ds, cfg, _, classifier = self._stage1()
        from sketchshape.losses import Classifier

        thawed = Classifier(classifier.weights.copy(), frozen=False)
        with pytest.raises(ValueError, match="frozen"):
            train_stage2(ds.shapes("train"), thawed, cfg, Rng(0))

    def test_classifier_of_another_embed_dim_rejected(self):
        ds, cfg, _, classifier = self._stage1()
        with pytest.raises(ValueError, match="embedding dim 5 != class-center dim 8"):
            train_stage2(ds.shapes("train"), classifier, replace(cfg, embed_dim=5), Rng(0))

    def test_non_finite_feature_rejected_before_training(self, monkeypatch):
        ds, cfg, _, classifier = self._stage1()
        shapes = ds.shapes("train")
        shapes.features[3, 1, 0] = np.inf
        monkeypatch.setattr(train_mod, "_fit", _no_training)
        with pytest.raises(ValueError, match="^shape view features contains non-finite entries$"):
            train_stage2(shapes, classifier, cfg, Rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_last_update_aborts(self):
        ds, cfg, _, classifier = self._stage1()
        shapes = ds.shapes("train")
        one_batch = replace(cfg, lr0=1e308, max_epochs=1, batch_size=len(shapes.ids))
        with pytest.raises(RuntimeError, match="stage 2 aborted: non-finite parameters"):
            train_stage2(shapes, classifier, one_batch, Rng(0))

    def test_label_outside_classifier_rejected(self):
        ds, cfg, _, classifier = self._stage1()
        shapes = ds.shapes("train")
        shapes.labels[0] = 7
        with pytest.raises(ValueError, match="missing from"):
            train_stage2(shapes, classifier, cfg, Rng(0))

    def test_view_order_within_a_shape_changes_no_bit(self):
        ds = easy_dataset(11)
        cfg = easy_cfg(max_epochs=3)
        classifier = Classifier(Rng(12).uniform_matrix(EASY["classes"], cfg.embed_dim, -1.0, 1.0), frozen=True)
        shapes = ds.shapes("train")
        perm_rng = Rng(13)
        permuted = shapes._replace(
            features=np.stack([views[perm_rng.permutation(EASY["views"])] for views in shapes.features])
        )
        assert not np.array_equal(shapes.features, permuted.features)
        m1, r1 = train_stage2(shapes, classifier, cfg, Rng(14))
        m2, r2 = train_stage2(permuted, classifier, cfg, Rng(14))
        assert r1.losses == r2.losses
        for a, b in zip(_parameters(m1), _parameters(m2)):
            np.testing.assert_array_equal(a, b)

    def test_zero_lr_leaves_shape_model_unchanged(self):
        ds, cfg, _, classifier = self._stage1()
        cfg0 = easy_cfg(lr0=0.0, max_epochs=1)
        model, _ = train_stage2(ds.shapes("train"), classifier, cfg0, Rng(9))
        from sketchshape.model import init_shape_model

        fresh = init_shape_model(cfg0, Rng(9))
        for a, b in zip(_parameters(model), _parameters(fresh)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("count", [1, 127, 128, 129, 300])
    def test_views_prepared_in_blocks_have_the_whole_split_bits(self, count):
        """train_stage2 prepares its views BLOCK_ROWS shapes at a time into
        one array, which holds one _prepare_views call on the whole split
        bit for bit, at a short last block too.  A repeated view and a zero
        view reach the canonical order's ties and the norm's floor."""
        x = Rng(count).normal_matrix(count * 5, 7).reshape(count, 5, 7)
        x[0, 3] = x[0, 1]
        x[-1, 2] = 0.0
        got = train_mod._prepare_view_blocks(x)
        assert got.shape == x.shape and got.tobytes() == _prepare_views(x).tobytes()

    def test_shapes_cluster_to_their_centers(self):
        ds, cfg, _, classifier = self._stage1()
        shapes = ds.shapes("train")
        model, _ = train_stage2(shapes, classifier, cfg, Rng(10))
        emb = encode_shape_batch(model, shapes.features)
        acc = center_accuracy(emb, classifier, shapes.labels)
        assert acc >= 0.99



def _reference_fit(cfg, rng, n, params, step):
    """The SGD loop step by step: one permutation per epoch, sgd_step with
    a velocity buffer at every momentum, epoch mean of the batch losses."""
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for epoch in range(cfg.max_epochs):
        lr = cosine_lr(epoch, cfg.max_epochs, cfg.lr0)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = step(batch)
            for p, g, v in zip(params, grads, velocity):
                sgd_step(p, g, lr, cfg.momentum, v)
            total += loss * len(batch)
        losses.append(total / n)
    return losses


def _fresh_grads(mlp):
    """Newly allocated gradient arrays of one network: weight, bias, layer
    by layer."""
    return [np.empty_like(a) for layer in mlp.layers for a in layer]


def reference_stage1(samples, cfg, rng):
    """train_stage1 built from the public checked functions alone, with
    the encoder's one-product forward pass checked per step."""
    x, y = samples.features, samples.labels
    model = init_sketch_model(cfg, rng)
    classifier = init_classifier(cfg, rng)

    def step(batch):
        mu, logvar, cache = _sketch_forward(model, _prepare_sketches(x[batch]))
        require_finite(mu, "sketch mu")
        require_finite(logvar, "sketch logvar")
        z = reparameterize(mu, logvar, rng.normal_matrix(len(batch), cfg.embed_dim))
        loss, dmu, dlogvar, dw = uncertainty_loss(z, mu, logvar, classifier, y[batch], cfg.sketch_margins(), cfg.lam)
        out = [_fresh_grads(model.backbone), _fresh_grads(model.mu_head), _fresh_grads(model.logvar_head)]
        sketch_backward(model, cache, dmu, dlogvar, out)
        return loss, [g for net in out for g in net] + [dw]

    losses = _reference_fit(cfg, rng, len(y), _parameters(model) + [classifier.weights], step)
    return model, classifier.freeze(), losses


def reference_stage2(samples, classifier, cfg, rng):
    """train_stage2 built from the public checked functions alone, with
    the encoder's one-product forward pass checked per step."""
    x, y = samples.features, samples.labels
    model = init_shape_model(cfg, rng)

    def step(batch):
        f, cache = _shape_forward(model, _prepare_views(x[batch]))
        require_finite(f, "shape embedding")
        loss, df, _ = transfer_loss(f, classifier, y[batch], cfg.shape_margins())
        out = [_fresh_grads(model.backbone), _fresh_grads(model.proj)]
        shape_backward(model, cache, df, out)
        return loss, [g for net in out for g in net]

    return model, _reference_fit(cfg, rng, len(y), _parameters(model), step)


DESK = dict(hidden=(64, 64), embed_dim=32, batch_size=8, lr0=0.08, max_epochs=60)


def _bits(arrays):
    return [a.tobytes() for a in arrays]


class TestSameBitsAsReference:
    """Both stages give the parameters and reported losses of a per-step
    loop of the public checked functions, byte for byte (signed zeros
    count), so validating once per run and the private loss cores change
    no bit."""

    @pytest.mark.parametrize(
        "name, data, overrides",
        [
            ("desk", dict(classes=10, train_per_class=4, dim=16, views=12), DESK),
            ("batch_not_dividing_n", {}, dict(batch_size=16)),
            ("odd_batch_odd_embed_dim", {}, dict(batch_size=7, embed_dim=5)),
            ("momentum", {}, dict(momentum=0.9)),
            ("no_kl", {}, dict(lam=0.0)),
            ("head_hidden", {}, dict(head_hidden=(6,))),
            ("odd_batch_odd_embed_dim_momentum", {}, dict(batch_size=7, embed_dim=5, momentum=0.9)),
        ],
    )
    def test_both_stages(self, name, data, overrides):
        shape = {**EASY, "test_per_class": 1, **data}
        ds = generate(shape["classes"], shape["train_per_class"], 1, shape["dim"], shape["views"], 0.25,
                      "ambiguous", 21)
        base = dict(feature_dim=shape["dim"], classes=shape["classes"], max_epochs=4)
        cfg = easy_cfg(**{**base, **overrides})
        sketches, shapes = ds.sketches("train"), ds.shapes("train")
        if name in ("batch_not_dividing_n", "odd_batch_odd_embed_dim", "odd_batch_odd_embed_dim_momentum"):
            assert len(sketches.ids) % cfg.batch_size  # a short last batch

        model, classifier, report = train_stage1(sketches, cfg, Rng(22))
        ref_model, ref_classifier, ref_losses = reference_stage1(sketches, cfg, Rng(22))
        assert _bits(_parameters(model) + [classifier.weights]) == _bits(
            _parameters(ref_model) + [ref_classifier.weights]
        )
        assert np.array(report.losses).tobytes() == np.array(ref_losses).tobytes()

        shape_model, shape_report = train_stage2(shapes, classifier, cfg, Rng(23))
        ref_shape_model, ref_shape_losses = reference_stage2(shapes, ref_classifier, cfg, Rng(23))
        assert _bits(_parameters(shape_model)) == _bits(_parameters(ref_shape_model))
        assert np.array(shape_report.losses).tobytes() == np.array(ref_shape_losses).tobytes()
