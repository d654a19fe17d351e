"""Loss oracles, invariants and gradient checks.

Closed-form expectations were computed by direct substitution into the loss
definitions and are frozen here:
  kl(mu=1, logvar=0), 1 dim      -> -(1 + 0 - 1 - 1)/2 = 0.5
  kl(mu=0, logvar=-2), 1 dim     -> -(1 - 2 - 0 - e^-2)/2 = 0.5676676416183063
  margin loss, cos=(1, -1), s=30, m=0.5 -> log(1 + e^-45) < 1e-12
  margin loss, all cosines equal, m=0   -> ln C
"""

import math

import numpy as np
import pytest

from sketchshape.gradcheck import (
    check_kl,
    check_margin_loss,
    check_transfer_loss,
    check_uncertainty_loss,
)
from sketchshape.losses import (
    Classifier,
    MarginParams,
    center_accuracy,
    kl_gaussian,
    margin_cosine_loss,
    transfer_loss,
    uncertainty_loss,
)
from sketchshape.model import reparameterize
from sketchshape.rng import Rng


def _dyadic(a, bits=40):
    # entries k / 2^bits: products with 3 and 100 stay exactly representable
    return np.round(np.asarray(a) * 2.0**bits) / 2.0**bits


class TestMarginParams:
    def test_validation(self):
        MarginParams(30.0, 0.5)
        with pytest.raises(ValueError):
            MarginParams(0.0, 0.5)
        with pytest.raises(ValueError):
            MarginParams(30.0, 1.0)
        with pytest.raises(ValueError):
            MarginParams(30.0, -0.1)


class TestClassifier:
    def test_validation_and_freeze(self):
        c = Classifier(np.zeros((3, 4)))
        assert not c.frozen
        f = c.freeze()
        assert f.frozen and np.array_equal(f.weights, c.weights)
        c.weights[0, 0] = 1.0
        assert f.weights[0, 0] == 0.0  # frozen copy does not alias
        with pytest.raises(ValueError):
            Classifier(np.zeros((1, 4)))


class TestMarginCosineLoss:
    def test_perfectly_separated_pair(self):
        z = np.array([[1.0, 0.0]])
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss, _, _ = margin_cosine_loss(z, w, [0], MarginParams(30.0, 0.5))
        assert loss == pytest.approx(math.log1p(math.exp(-45.0)), abs=1e-15)
        assert loss < 1e-12

    @pytest.mark.parametrize("classes", [2, 3, 7])
    def test_equal_cosines_no_margin_gives_log_c(self, classes):
        z = np.array([[1.0, 0.0]])
        # all centers at the same angle to z
        w = np.stack([np.array([1.0, float(j)]) for j in range(classes)])
        w[:, 1] = 1.0
        loss, _, _ = margin_cosine_loss(z, w, [0], MarginParams(30.0, 0.0))
        assert loss == pytest.approx(math.log(classes), abs=1e-12)

    def test_scale_invariance_bitwise(self):
        rng = Rng(10)
        z = _dyadic(rng.uniform_matrix(5, 8, -2.0, 2.0))
        w = rng.uniform_matrix(4, 8, -2.0, 2.0)
        labels = [0, 1, 2, 3, 0]
        params = MarginParams(30.0, 0.5)
        base, _, _ = margin_cosine_loss(z, w, labels, params)
        for c in (0.5, 3.0, 100.0):
            scaled, _, _ = margin_cosine_loss(c * z, w, labels, params)
            assert scaled == base

    def test_margin_monotonicity(self):
        rng = Rng(11)
        z = rng.uniform_matrix(6, 8, -2.0, 2.0)
        w = rng.uniform_matrix(5, 8, -2.0, 2.0)
        labels = [1, 2, 3, 4, 0, 1]
        losses = []
        for m in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            loss, _, _ = margin_cosine_loss(z, w, labels, MarginParams(30.0, m))
            losses.append(loss)
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_label_out_of_range(self):
        z = np.ones((2, 3))
        w = np.ones((4, 3))
        with pytest.raises(ValueError, match="out of range"):
            margin_cosine_loss(z, w, [0, 4], MarginParams(30.0, 0.5))

    def test_label_range_message_stays_short(self):
        with pytest.raises(ValueError) as err:
            margin_cosine_loss(np.ones((500, 3)), np.ones((2, 3)), np.arange(500), MarginParams(30.0, 0.5))
        message = str(err.value)
        assert message.startswith("labels out of range [0, 2)") and len(message) < 200

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            margin_cosine_loss(np.zeros((0, 3)), np.ones((2, 3)), [], MarginParams(30.0, 0.5))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        assert check_margin_loss(seed) < 1e-4


class TestKlGaussian:
    def test_zero_at_standard_normal(self):
        loss, dmu, dlv = kl_gaussian(np.zeros((2, 3)), np.zeros((2, 3)))
        assert loss == 0.0
        np.testing.assert_array_equal(dmu, np.zeros((2, 3)))
        np.testing.assert_array_equal(dlv, np.zeros((2, 3)))

    def test_unit_mean_case(self):
        loss, _, _ = kl_gaussian(np.array([[1.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(0.5, abs=1e-15)

    def test_small_sigma_case(self):
        loss, _, _ = kl_gaussian(np.array([[0.0]]), np.array([[-2.0]]))
        assert loss == pytest.approx(0.5676676416183063, abs=1e-15)

    def test_reduction_is_mean_over_dims_then_samples(self):
        mu = np.array([[1.0, 0.0], [0.0, 0.0]])
        lv = np.zeros((2, 2))
        loss, _, _ = kl_gaussian(mu, lv)
        # sample terms: (0.5 + 0)/2 = 0.25 and 0 -> mean 0.125
        assert loss == pytest.approx(0.125, abs=1e-15)

    def test_non_negative_and_zero_only_at_standard(self):
        rng = Rng(12)
        for _ in range(50):
            mu = rng.uniform_matrix(3, 4, -2.0, 2.0)
            lv = rng.uniform_matrix(3, 4, -2.0, 2.0)
            loss, _, _ = kl_gaussian(mu, lv)
            assert loss > 0.0

    def test_monotone_decreasing_in_sigma_below_one(self):
        # raising any single sigma in (0, 1) strictly lowers the loss
        grid = [0.1 * k for k in range(1, 10)]
        sigma = np.array(grid)
        base_lv = np.log(sigma**2)[None, :]
        base, _, _ = kl_gaussian(np.zeros((1, 9)), base_lv)
        for d in range(9):
            for higher in grid:
                if higher <= grid[d]:
                    continue
                lv = base_lv.copy()
                lv[0, d] = math.log(higher**2)
                bumped, _, _ = kl_gaussian(np.zeros((1, 9)), lv)
                assert bumped < base or higher == grid[d]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            kl_gaussian(np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        assert check_kl(seed) < 1e-4


class TestUncertaintyLoss:
    def test_lambda_zero_equals_margin_loss(self):
        rng = Rng(13)
        mu = rng.uniform_matrix(4, 6, -1.0, 1.0)
        lv = rng.uniform_matrix(4, 6, -1.0, 1.0)
        eps = rng.normal_matrix(4, 6)
        w = rng.uniform_matrix(3, 6, -1.0, 1.0)
        labels = [0, 1, 2, 0]
        z = reparameterize(mu, lv, eps)
        params = MarginParams(30.0, 0.5)
        plain, dz, dw_plain = margin_cosine_loss(z, w, labels, params)
        combined, dmu, dlv, dw = uncertainty_loss(z, mu, lv, Classifier(w), labels, params, 0.0)
        assert combined == plain
        np.testing.assert_array_equal(dw, dw_plain)
        np.testing.assert_array_equal(dmu, dz)

    def test_combination_weight(self):
        rng = Rng(14)
        mu = rng.uniform_matrix(3, 5, -1.0, 1.0)
        lv = rng.uniform_matrix(3, 5, -1.0, 1.0)
        eps = rng.normal_matrix(3, 5)
        w = rng.uniform_matrix(4, 5, -1.0, 1.0)
        labels = [0, 1, 3]
        z = reparameterize(mu, lv, eps)
        params = MarginParams(30.0, 0.5)
        lam = 0.005
        total, _, _, _ = uncertainty_loss(z, mu, lv, Classifier(w), labels, params, lam)
        lmc, _, _ = margin_cosine_loss(z, w, labels, params)
        kl, _, _ = kl_gaussian(mu, lv)
        assert total == pytest.approx(lmc + lam * kl, rel=1e-15)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            uncertainty_loss(
                np.ones((1, 2)),
                np.ones((1, 2)),
                np.zeros((1, 2)),
                Classifier(np.ones((2, 2))),
                [0],
                MarginParams(30.0, 0.5),
                -0.1,
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        assert check_uncertainty_loss(seed) < 1e-4


class TestTransferLoss:
    def test_same_formula_as_margin_loss(self):
        rng = Rng(15)
        emb = rng.uniform_matrix(4, 6, -1.0, 1.0)
        w = rng.uniform_matrix(3, 6, -1.0, 1.0)
        labels = [0, 1, 2, 1]
        params = MarginParams(15.0, 0.8)
        frozen = Classifier(w, frozen=True)
        t_loss, t_demb, dw = transfer_loss(emb, frozen, labels, params)
        m_loss, m_demb, _ = margin_cosine_loss(emb, w, labels, params)
        assert t_loss == m_loss
        np.testing.assert_array_equal(t_demb, m_demb)

    def test_classifier_gradient_exactly_zero(self):
        rng = Rng(16)
        emb = rng.uniform_matrix(5, 4, -1.0, 1.0)
        frozen = Classifier(rng.uniform_matrix(3, 4, -1.0, 1.0), frozen=True)
        _, _, dw = transfer_loss(emb, frozen, [0, 1, 2, 0, 1], MarginParams(15.0, 0.8))
        assert np.all(dw == 0.0)
        assert dw.shape == frozen.weights.shape

    def test_unfrozen_classifier_rejected(self):
        with pytest.raises(ValueError, match="frozen"):
            transfer_loss(np.ones((1, 2)), Classifier(np.ones((2, 2))), [0], MarginParams(15.0, 0.8))

    def test_scale_invariance_bitwise(self):
        rng = Rng(17)
        emb = _dyadic(rng.uniform_matrix(4, 6, -2.0, 2.0))
        frozen = Classifier(rng.uniform_matrix(3, 6, -1.0, 1.0), frozen=True)
        labels = [0, 1, 2, 2]
        params = MarginParams(15.0, 0.8)
        base, _, _ = transfer_loss(emb, frozen, labels, params)
        for c in (0.5, 3.0, 100.0):
            scaled, _, _ = transfer_loss(c * emb, frozen, labels, params)
            assert scaled == base

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        assert check_transfer_loss(seed) < 1e-4


def test_center_accuracy():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    emb = np.array([[2.0, 0.1], [0.1, 3.0], [1.0, 0.0]])
    assert center_accuracy(emb, Classifier(w), [0, 1, 1]) == pytest.approx(2.0 / 3.0)
