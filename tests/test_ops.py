"""Numeric core: shapes, normalisation, cosines, gradient checker."""

import numpy as np
import pytest

from sketchshape import gradcheck, ops
from sketchshape.rng import Rng


class TestNormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(ops.l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]], rtol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(ops.l2_normalize_rows(v), v)

    def test_zero_row_passes_through(self):
        v = np.zeros((1, 3))
        np.testing.assert_array_equal(ops.l2_normalize_rows(v, eps=1e-12), v)

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        m = Rng(seed).uniform_matrix(4, 6, -2.0, 2.0)
        once = ops.l2_normalize_rows(m)
        twice = ops.l2_normalize_rows(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_unit_norm_output(self):
        m = Rng(1).uniform_matrix(8, 5, -2.0, 2.0)
        norms = np.linalg.norm(ops.l2_normalize_rows(m), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_power_of_two_rescaling_is_bitwise(self):
        m = Rng(2).uniform_matrix(6, 7, -2.0, 2.0)
        np.testing.assert_array_equal(ops.l2_normalize_rows(m), ops.l2_normalize_rows(0.5 * m))
        np.testing.assert_array_equal(ops.l2_normalize_rows(m), ops.l2_normalize_rows(256.0 * m))

    def test_exact_nonbinary_rescaling_is_bitwise(self):
        # entries rounded to 40 mantissa bits make 3x and 100x exact products
        m = Rng(3).uniform_matrix(6, 7, -2.0, 2.0)
        m = np.round(m * 2.0**40) / 2.0**40
        for c in (3.0, 100.0):
            np.testing.assert_array_equal(ops.l2_normalize_rows(m), ops.l2_normalize_rows(c * m))

    def test_backward_matches_fd(self):
        rng = Rng(4)
        m = rng.uniform_matrix(3, 5, -2.0, 2.0)
        g = rng.uniform_matrix(3, 5, -1.0, 1.0)

        def f(ps):
            out, norms, full = ops.normalize_rows_fwd(ps[0])
            return float(np.sum(g * out)), [ops.normalize_rows_bwd(g, out, norms, full)]

        assert ops.grad_check(f, [m]) < 1e-4


class TestCosineMatrix:
    def test_self_similarity_is_one(self):
        v = Rng(5).uniform_matrix(1, 6, -1.0, 1.0)
        assert ops.cosine_matrix(v, v)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert ops.cosine_matrix(a, b)[0, 0] == 0.0

    def test_hand_case(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[1.0, 0.0]])
        assert ops.cosine_matrix(a, b)[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim mismatch"):
            ops.cosine_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_values_in_range(self, seed):
        rng = Rng(seed)
        a = rng.uniform_matrix(7, 9, -2.0, 2.0)
        b = rng.uniform_matrix(5, 9, -2.0, 2.0)
        c = ops.cosine_matrix(a, b)
        assert c.min() >= -1.0 - 1e-12
        assert c.max() <= 1.0 + 1e-12


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        x = Rng(6).uniform_matrix(3, 3, -2.0, 2.0)

        def f(ps):
            return float(np.sum(ps[0] ** 2)), [2.0 * ps[0]]

        assert ops.grad_check(f, [x]) < 1e-6

    def test_detects_wrong_gradient(self):
        x = np.array([[1.0, 2.0]])

        def f(ps):
            return float(np.sum(ps[0] ** 2)), [3.0 * ps[0]]  # wrong on purpose

        assert ops.grad_check(f, [x]) > 0.1

    @pytest.mark.parametrize("seed", [53, 54, 84])
    def test_near_zero_entries_do_not_fail_correct_gradients(self, seed):
        # at these seeds an entry of about 1e-7, in arrays whose largest
        # entry is 0.03-4.4, made the entry-wise relative error exceed 1e-4
        for name, err in gradcheck.run_all(seed).items():
            assert err < gradcheck.TOLERANCE, name

    def test_single_wrong_entry_in_large_gradient_fails(self):
        x = Rng(7).uniform_matrix(20, 20, -2.0, 2.0)
        x[5, 6] = 0.25

        def f(ps):
            g = 2.0 * ps[0]
            g[5, 6] = 0.0  # one dropped term among 400 correct entries
            return float(np.sum(ps[0] ** 2)), [g]

        assert ops.grad_check(f, [x]) > 0.05

    def test_nan_objective_reported(self):
        def f(ps):
            return float("nan"), [np.zeros_like(ps[0])]

        with pytest.raises(ValueError, match="non-finite"):
            ops.grad_check(f, [np.ones((1, 1))])

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            ops.grad_check(lambda ps: (0.0, [np.zeros((1, 1))]), [np.zeros((1, 1))], step=0.0)
