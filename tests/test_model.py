"""Encoders: forward oracles, reparameterization, view fusion, init,
checkpoint round-trips."""

import math

import numpy as np
import pytest

from reference import mlp_forward_bruteforce
from sketchshape import gradcheck, train
from sketchshape.gradcheck import check_shape_chain, check_sketch_chain
from sketchshape.losses import Classifier
from sketchshape.model import (
    _canonical_view_order,
    _named_matrices,
    Mlp,
    encode_shape_batch,
    encode_sketch_batch,
    init_classifier,
    init_mlp,
    init_shape_model,
    init_sketch_model,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    reparameterize,
    save_shape_checkpoint,
    save_sketch_checkpoint,
    unit_scale_backward,
    unit_scale_forward,
)
from sketchshape.ops import l2_normalize_rows
from sketchshape.rng import Rng
from sketchshape.train import TrainConfig


def _parameters(model) -> list:
    """The model's matrices in checkpoint order."""
    return [a for _, a in _named_matrices(model)]


def _tiny_cfg(**overrides):
    base = dict(feature_dim=5, hidden=(7, 6), embed_dim=4, classes=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _encode_one_sketch(model, x):
    """(mu, logvar) of one feature vector, through a one-row batch."""
    mu, logvar = encode_sketch_batch(model, np.asarray(x)[None, :])
    return mu[0], logvar[0]


def _encode_one_shape(model, views):
    """The embedding of one V x D_in view matrix, through a one-shape batch."""
    f = encode_shape_batch(model, np.asarray(views)[None, :, :])
    return f[0]


def _fresh_grads(mlp):
    """Newly allocated gradient arrays for mlp_backward: weight, bias, layer
    by layer."""
    return [np.empty_like(a) for layer in mlp.layers for a in layer]


class TestMlpForward:
    def test_matches_straight_line_oracle(self):
        rng = Rng(21)
        mlp = init_mlp(rng, [5, 7, 4])
        x = rng.uniform_matrix(3, 5, -2.0, 2.0)
        out, _ = mlp_forward(mlp, x)
        layers = [(w.tolist(), b.tolist()) for w, b in mlp.layers]
        for i in range(3):
            want = mlp_forward_bruteforce(layers, x[i].tolist())
            np.testing.assert_allclose(out[i], want, rtol=1e-12)

    def test_input_dim_checked(self):
        mlp = init_mlp(Rng(0), [5, 4])
        with pytest.raises(ValueError, match="input dim"):
            mlp_forward(mlp, np.zeros((2, 6)))

    def test_backward_without_input_grad_gives_the_same_parameter_grads(self):
        rng = Rng(22)
        mlp = init_mlp(rng, [5, 7, 4])
        _, cache = mlp_forward(mlp, rng.uniform_matrix(3, 5, -2.0, 2.0))
        dout = rng.uniform_matrix(3, 4, -1.0, 1.0)
        grads, skipped = _fresh_grads(mlp), _fresh_grads(mlp)
        dinput = mlp_backward(mlp, cache, dout, grads)
        none = mlp_backward(mlp, cache, dout, skipped, input_grad=False)
        assert dinput.shape == (3, 5) and none is None
        assert [g.tobytes() for g in skipped] == [g.tobytes() for g in grads]


def _backward_from_pre_activations(mlp, x, pres, dout):
    """mlp_backward's arithmetic with each relu mask taken from the
    pre-activations ``pres`` rather than from the activations."""
    last = len(mlp.layers) - 1
    acts = [x] + [np.maximum(pre, 0.0) for pre in pres[:-1]]
    grads = [None] * (2 * len(mlp.layers))
    g = dout
    for i in range(last, -1, -1):
        if i < last:
            g = g * (pres[i] > 0.0)
        grads[2 * i] = g.T @ acts[i]
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ mlp.layers[i][0]
    return g, grads


class TestReluMask:
    """mlp_backward masks each hidden layer by its activation, which must
    give the bits of a mask taken from the pre-activation."""

    EDGES = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324)

    def _assert_same_bits(self, mlp, cache, pres, dout):
        grads = _fresh_grads(mlp)
        dinput = mlp_backward(mlp, cache, dout, grads)
        want_dinput, want = _backward_from_pre_activations(mlp, cache[0], pres, dout)
        assert dinput.tobytes() == want_dinput.tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]

    def test_forward_pre_activations_at_zero_and_tiny(self):
        """Zero weight rows leave a pre-activation equal to its bias, and the
        rows (1, -1, 0) and (1e-300, 0, 0) give an exact 0.0 and about
        +-1e-300 from the product; the pre-activations are recomputed
        here, apart from mlp_forward."""
        rng = Rng(23)
        w1 = np.zeros((9, 3))
        w1[6], w1[7], w1[8] = [1.0, -1.0, 0.0], [1e-300, 0.0, 0.0], rng.uniform_matrix(1, 3, -1.0, 1.0)[0]
        b1 = np.array([*self.EDGES, 0.0, 0.0, 0.1])
        w2 = rng.uniform_matrix(8, 9, -1.0, 1.0)
        w2[:6] = 0.0
        b2 = np.array([*self.EDGES, 0.2, -0.2])
        mlp = Mlp([(w1, b1), (w2, b2), (rng.uniform_matrix(2, 8, -1.0, 1.0), np.zeros(2))])
        x = np.array([[1.0, 1.0, 0.5], [-1.0, -1.0, 2.0], [0.25, 0.25, -3.0], [3.0, 3.0, 1.0]])
        pres, a = [], x
        for w, b in mlp.layers:
            pres.append(a @ w.T + b)
            a = np.maximum(pres[-1], 0.0)
        hidden = np.concatenate([pres[0].ravel(), pres[1].ravel()])
        tiny = hidden[(hidden != 0.0) & (np.abs(hidden) < 1e-290)]
        assert (hidden == 0.0).any() and (tiny > 0.0).any() and (tiny < 0.0).any()
        _, cache = mlp_forward(mlp, x)
        self._assert_same_bits(mlp, cache, pres, rng.uniform_matrix(4, 2, -1.0, 1.0))

    def test_negative_zero_pre_activation(self):
        """A product plus bias is -0.0 only where both are -0.0, and the
        BLAS products tried give +0.0 wherever every term is zero, so the
        -0.0 pre-activations reach mlp_backward in a cache built from
        them."""
        rng = Rng(24)
        mlp = init_mlp(rng, [3, 6, 2])
        x = rng.uniform_matrix(2, 3, -1.0, 1.0)
        pre = np.array([self.EDGES, self.EDGES[::-1]])
        out = np.maximum(pre, 0.0) @ mlp.layers[1][0].T + mlp.layers[1][1]
        cache = [x, np.maximum(pre, 0.0), out]
        self._assert_same_bits(mlp, cache, [pre, out], rng.uniform_matrix(2, 2, -1.0, 1.0))


class TestEncodeSketch:
    def test_zero_parameters_give_zero_embedding(self):
        mlp = Mlp([(np.zeros((6, 5)), np.zeros(6))])
        head = Mlp([(np.zeros((4, 6)), np.zeros(4))])
        model_zero = init_sketch_model(_tiny_cfg(), Rng(0))
        model_zero.backbone = mlp
        model_zero.mu_head = head
        model_zero.logvar_head = Mlp([(np.zeros((4, 6)), np.zeros(4))])
        mu, logvar = _encode_one_sketch(model_zero, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(mu, np.zeros(4))
        np.testing.assert_array_equal(logvar, np.zeros(4))
        np.testing.assert_array_equal(np.exp(0.5 * logvar), np.ones(4))

    def test_deterministic(self):
        model = init_sketch_model(_tiny_cfg(), Rng(3))
        x = Rng(4).uniform_matrix(1, 5, -1.0, 1.0)[0]
        a_mu, a_logvar = _encode_one_sketch(model, x)
        b_mu, b_logvar = _encode_one_sketch(model, x)
        np.testing.assert_array_equal(a_mu, b_mu)
        np.testing.assert_array_equal(a_logvar, b_logvar)

    def test_matches_forward_oracle(self):
        rng = Rng(22)
        model = init_sketch_model(_tiny_cfg(), rng)
        x = rng.uniform_matrix(1, 5, -2.0, 2.0)[0]
        mu, logvar = _encode_one_sketch(model, x)
        # the encoder L2-normalises its input row before the backbone
        xn = (x / math.sqrt(math.fsum(v * v for v in x))).tolist()
        layers = [(w.tolist(), b.tolist()) for w, b in model.backbone.layers]
        h = mlp_forward_bruteforce(layers, xn)
        mu_layers = [(w.tolist(), b.tolist()) for w, b in model.mu_head.layers]
        lv_layers = [(w.tolist(), b.tolist()) for w, b in model.logvar_head.layers]
        # the heads' Gaussian is reported on the unit scale: both divided by |mu|
        raw_mu = mlp_forward_bruteforce(mu_layers, h)
        norm = math.sqrt(math.fsum(v * v for v in raw_mu))
        want_mu = [v / norm for v in raw_mu]
        want_lv = [v - 2.0 * math.log(norm) for v in mlp_forward_bruteforce(lv_layers, h)]
        np.testing.assert_allclose(mu, want_mu, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(logvar, want_lv, rtol=1e-10, atol=1e-12)

    def test_finite_outputs(self):
        model = init_sketch_model(_tiny_cfg(), Rng(5))
        x = Rng(6).uniform_matrix(20, 5, -2.0, 2.0)
        mu, lv = encode_sketch_batch(model, x)
        assert np.isfinite(mu).all() and np.isfinite(lv).all()

    def test_non_finite_parameter_rejected(self):
        model = init_sketch_model(_tiny_cfg(), Rng(5))
        model.backbone.layers[0][0][0, 0] = np.nan
        with pytest.raises(ValueError, match="^sketch mu contains non-finite entries$"):
            encode_sketch_batch(model, Rng(6).uniform_matrix(4, 5, -2.0, 2.0))


class TestReparameterize:
    def test_zero_eps_returns_mu_bitwise(self):
        rng = Rng(23)
        mu = rng.uniform_matrix(3, 4, -2.0, 2.0)
        lv = rng.uniform_matrix(3, 4, -1.0, 1.0)
        z = reparameterize(mu, lv, np.zeros((3, 4)))
        np.testing.assert_array_equal(z, mu)

    def test_standard_normal_case(self):
        eps = Rng(24).normal_matrix(2, 3)
        z = reparameterize(np.zeros((2, 3)), np.zeros((2, 3)), eps)
        np.testing.assert_array_equal(z, eps)

    def test_hand_case(self):
        z = reparameterize(
            np.array([1.0, 1.0]), np.array([math.log(4.0), math.log(4.0)]), np.array([1.0, -1.0])
        )
        np.testing.assert_allclose(z, [3.0, -1.0], rtol=1e-15)

    def test_one_row_sample(self):
        mu, logvar = np.array([[1.0, 2.0]]), np.zeros((1, 2))
        np.testing.assert_array_equal(reparameterize(mu, logvar, np.zeros((1, 2))), mu)
        np.testing.assert_allclose(np.exp(logvar), np.ones((1, 2)))

    def test_empirical_variance_matches_sigma2(self):
        # variance of z over many draws tracks sigma^2 within 5% per dim
        rng = Rng(25)
        mu = np.array([[0.5, -1.0, 2.0, 0.0]])
        lv = np.array([[math.log(0.25), 0.0, math.log(4.0), math.log(2.0)]])
        draws = 100_000
        eps = rng.normal_matrix(draws, 4)
        z = reparameterize(np.repeat(mu, draws, axis=0), np.repeat(lv, draws, axis=0), eps)
        var = z.var(axis=0)
        np.testing.assert_allclose(var, np.exp(lv[0]), rtol=0.05)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            reparameterize(np.zeros(3), np.zeros(3), np.zeros(4))


class TestUnitScale:
    """The sketch Gaussian is reported divided by the length of its mean.

    Stage 1 relies on two properties: a sample from the reported Gaussian
    points the same way as a sample from the heads' raw Gaussian, so the
    losses see the same directions; and the reported variance is relative
    to the mean's length, so growing the mean cannot hide uncertainty.
    """

    def _raw(self, seed):
        rng = Rng(seed)
        return rng.uniform_matrix(5, 6, -2.0, 2.0), rng.uniform_matrix(5, 6, -3.0, 1.0), rng.normal_matrix(5, 6)

    def test_samples_point_like_raw_samples(self):
        mu, lv, eps = self._raw(90)
        mu_hat, lv_hat, _ = unit_scale_forward(mu, lv)
        np.testing.assert_allclose(
            l2_normalize_rows(reparameterize(mu_hat, lv_hat, eps)),
            l2_normalize_rows(reparameterize(mu, lv, eps)),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_longer_mean_reports_smaller_variance(self):
        mu, lv, _ = self._raw(92)
        base_mu, base_lv, _ = unit_scale_forward(mu, lv)
        for c in (0.5, 4.0, 100.0):
            mu_c, lv_c, _ = unit_scale_forward(c * mu, lv)
            np.testing.assert_allclose(mu_c, base_mu, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(lv_c, base_lv - 2.0 * math.log(c), rtol=1e-12, atol=1e-12)
            # the same relative spread is the same reported Gaussian
            _, same_lv, _ = unit_scale_forward(c * mu, lv + 2.0 * math.log(c))
            np.testing.assert_allclose(same_lv, base_lv, rtol=1e-12, atol=1e-12)

    def test_zero_mean_row_unchanged(self):
        mu = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
        lv = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
        mu_hat, lv_hat, cache = unit_scale_forward(mu, lv)
        np.testing.assert_array_equal(mu_hat[0], mu[0])
        np.testing.assert_array_equal(lv_hat[0], lv[0])
        np.testing.assert_allclose(mu_hat[1], [0.6, 0.0, 0.8], rtol=1e-15)
        dmu, dlv = unit_scale_backward(cache, np.ones((2, 3)), np.ones((2, 3)))
        np.testing.assert_array_equal(dmu[0], np.ones(3))
        np.testing.assert_array_equal(dlv, np.ones((2, 3)))


class TestEncodeShape:
    def test_identical_views_equal_single_view(self):
        model = init_shape_model(_tiny_cfg(), Rng(26))
        view = Rng(27).uniform_matrix(1, 5, -1.0, 1.0)
        stacked = np.repeat(view, 6, axis=0)
        np.testing.assert_allclose(_encode_one_shape(model, stacked), _encode_one_shape(model, view), rtol=1e-12)

    def test_permutation_invariance_bitwise(self):
        model = init_shape_model(_tiny_cfg(), Rng(28))
        views = Rng(29).uniform_matrix(12, 5, -1.0, 1.0)
        base = _encode_one_shape(model, views)
        perm_rng = Rng(30)
        for _ in range(5):
            perm = perm_rng.permutation(12)
            np.testing.assert_array_equal(_encode_one_shape(model, views[perm]), base)

    def test_matches_forward_oracle(self):
        rng = Rng(31)
        model = init_shape_model(_tiny_cfg(), rng)
        views = rng.uniform_matrix(12, 5, -2.0, 2.0)
        got = _encode_one_shape(model, views)
        layers = [(w.tolist(), b.tolist()) for w, b in model.backbone.layers]
        normed = [
            (np.asarray(v) / math.sqrt(math.fsum(x * x for x in v))).tolist() for v in views.tolist()
        ]
        per_view = [mlp_forward_bruteforce(layers, v) for v in normed]
        pooled = [math.fsum(col) / 12.0 for col in zip(*per_view)]
        proj_layers = [(w.tolist(), b.tolist()) for w, b in model.proj.layers]
        want = mlp_forward_bruteforce(proj_layers, pooled)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_non_finite_parameter_rejected(self):
        model = init_shape_model(_tiny_cfg(), Rng(5))
        model.proj.layers[0][1][0] = np.nan
        with pytest.raises(ValueError, match="^shape embedding contains non-finite entries$"):
            encode_shape_batch(model, Rng(6).uniform_matrix(6, 5, -2.0, 2.0).reshape(2, 3, 5))

    def test_empty_views_rejected(self):
        model = init_shape_model(_tiny_cfg(), Rng(0))
        with pytest.raises(ValueError, match="at least one view"):
            _encode_one_shape(model, np.zeros((0, 5)))

    def test_batch_matches_single(self):
        model = init_shape_model(_tiny_cfg(), Rng(32))
        views = Rng(33).uniform_matrix(9, 5, -1.0, 1.0).reshape(3, 3, 5)
        batch = encode_shape_batch(model, views)
        for i in range(3):
            np.testing.assert_allclose(batch[i], _encode_one_shape(model, views[i]), atol=1e-14)


    def test_canonical_order_matches_per_shape_lexsort(self):
        # integer-valued views tie on leading columns; the last view of each
        # shape duplicates its first
        rng = Rng(34)
        for _ in range(200):
            n, v, d = 1 + rng.integer(4), 1 + rng.integer(6), 1 + rng.integer(4)
            views = np.floor(rng.uniform_matrix(n * v, d, -2.0, 2.0)).reshape(n, v, d)
            views[:, -1] = views[:, 0]
            order = _canonical_view_order(views)
            for i in range(n):
                np.testing.assert_array_equal(order[i], np.lexsort(views[i].T[::-1]))


class TestInit:
    def test_same_seed_identical_parameters(self):
        cfg = _tiny_cfg()

        def draw(seed):
            rng = Rng(seed)
            sketch, classifier, shape = init_sketch_model(cfg, rng), init_classifier(cfg, rng), init_shape_model(cfg, rng)
            return _parameters(sketch) + [classifier.weights] + _parameters(shape)

        for pa, pb in zip(draw(77), draw(77)):
            np.testing.assert_array_equal(pa, pb)

    def test_biases_zero_and_weight_bounds(self):
        cfg = _tiny_cfg()
        model = init_sketch_model(cfg, Rng(78))
        for w, b in model.backbone.layers + model.mu_head.layers:
            assert np.all(b == 0.0)
            bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.abs(w).max() <= bound

    def test_logvar_head_scaled_down(self):
        cfg = _tiny_cfg()
        model = init_sketch_model(cfg, Rng(79))
        w, b = model.logvar_head.layers[-1]
        bound = 0.1 * math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.abs(w).max() <= bound
        assert np.all(b == 0.0)

    def test_classifier_shape(self):
        cfg = _tiny_cfg()
        c = init_classifier(cfg, Rng(80))
        assert c.weights.shape == (3, 4)
        assert not c.frozen


class TestCheckpoints:
    def test_sketch_round_trip_bitwise(self, tmp_path):
        cfg = _tiny_cfg()
        rng = Rng(81)
        model = init_sketch_model(cfg, rng)
        classifier = Classifier(rng.uniform_matrix(3, 4, -1.0, 1.0), frozen=True)
        path = tmp_path / "sketch.ckpt"
        save_sketch_checkpoint(path, model, classifier)
        _, loaded, loaded_classifier = load_checkpoint(path, "sketch")
        for pa, pb in zip(_parameters(model), _parameters(loaded)):
            np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(classifier.weights, loaded_classifier.weights)
        assert loaded_classifier.frozen

    def test_shape_round_trip_bitwise(self, tmp_path):
        model = init_shape_model(_tiny_cfg(), Rng(82))
        path = tmp_path / "shape.ckpt"
        save_shape_checkpoint(path, model)
        kind, loaded, classifier = load_checkpoint(path)
        assert kind == "shape" and classifier is None
        for pa, pb in zip(_parameters(model), _parameters(loaded)):
            np.testing.assert_array_equal(pa, pb)

    def test_wrong_kind_rejected(self, tmp_path):
        model = init_shape_model(_tiny_cfg(), Rng(83))
        path = tmp_path / "shape.ckpt"
        save_shape_checkpoint(path, model)
        with pytest.raises(ValueError, match="expected a sketch checkpoint"):
            load_checkpoint(path, "sketch")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestFullChainGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_sketch_chain(self, seed):
        assert check_sketch_chain(seed) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_shape_chain(self, seed):
        assert check_shape_chain(seed) < 1e-4

    def test_chain_checks_run_the_training_objectives(self):
        assert gradcheck._sketch_objective is train._sketch_objective
        assert gradcheck._shape_objective is train._shape_objective

    @pytest.mark.parametrize(
        "name, check", [("_sketch_objective", check_sketch_chain), ("_shape_objective", check_shape_chain)]
    )
    @pytest.mark.parametrize("which", [0, -1])
    def test_wrong_objective_gradient_fails(self, monkeypatch, name, check, which):
        objective = getattr(gradcheck, name)

        def skewed(*args):
            loss = objective(*args)
            grads = [g for group in args[-1] for g in group]
            grads[which] *= 1.001
            return loss

        monkeypatch.setattr(gradcheck, name, skewed)
        assert check(0) > gradcheck.TOLERANCE

    def test_gradient_written_into_another_parameters_view_fails(self, monkeypatch):
        """The chain check reads the gradient vector training steps with,
        not the views the objective was handed: with the mu_head and
        logvar_head weight views swapped (both 8 x 8 here), each head's
        weight gradient lands in the other's slot of the vector."""
        assert check_sketch_chain(0) < gradcheck.TOLERANCE
        flat_parameters = gradcheck._flat_parameters

        def swapped(model, classifier=None):
            params, grads, out = flat_parameters(model, classifier)
            (_, mu_head, logvar_head, _) = out
            assert mu_head[0].shape == logvar_head[0].shape == (8, 8)
            mu_head[0], logvar_head[0] = logvar_head[0], mu_head[0]
            return params, grads, out

        monkeypatch.setattr(gradcheck, "_flat_parameters", swapped)
        assert check_sketch_chain(0) >= gradcheck.TOLERANCE
