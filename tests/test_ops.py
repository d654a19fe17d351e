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
        np.testing.assert_array_equal(ops.l2_normalize_rows(v), v)

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


def _masked_normalize_rows(m, eps=ops.NORM_EPS):
    """normalize_rows_fwd as first written: full rows and eps-clipped rows
    filled in through boolean masks."""
    scale = np.max(np.abs(m), axis=1, keepdims=True)
    safe = np.where(scale > 0.0, scale, 1.0)
    u = m / safe
    unorm = np.sqrt(np.sum(u * u, axis=1, keepdims=True))
    norms = scale * unorm
    full = norms >= eps
    out = np.empty_like(m)
    big = full[:, 0]
    out[big] = u[big] / unorm[big]
    if not big.all():
        out[~big] = m[~big] / eps
    return out, np.where(full, norms, eps), full


class TestNormalizeRowsBytes:
    """normalize_rows_fwd returns the masked formula's three arrays byte for
    byte, signed zeros included, on full, clipped and zero rows."""

    def _rows(self):
        rng = Rng(8)
        return np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [-0.0, 0.0, -0.0, 0.0],
                1e-300 * rng.uniform_matrix(1, 4, -1.0, 1.0)[0],
                [1e-300, -1e-300, 0.0, 5e-324],
                [1e300, -1e300, 1e300, -1e300],
                [1e300, 0.0, -0.0, 1.0],
                [-1e300, -1e300, -1e300, -1e300],
                [1e-12, 0.0, 0.0, 0.0],
                [9e-13, 0.0, -0.0, 0.0],
                [3.0, -4.0, 0.0, -0.0],
                *rng.uniform_matrix(3, 4, -2.0, 2.0),
            ]
        )

    def _assert_same_bytes(self, m):
        got = ops.normalize_rows_fwd(m)
        want = _masked_normalize_rows(m)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_mixed_matrix(self):
        m = self._rows()
        full = _masked_normalize_rows(m)[2][:, 0]
        assert full.any() and not full.all()
        self._assert_same_bytes(m)

    @pytest.mark.parametrize("rows", [[0], [0, 1, 2, 3, 8], [4, 5, 6], [9, 10, 11, 12], [12, 3, 4, 0]])
    def test_row_subsets(self, rows):
        self._assert_same_bytes(self._rows()[rows])


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

    def test_reused_gradient_buffer_gets_the_error_of_a_fresh_one(self):
        """An objective that writes its gradient into one buffer on every
        call, as the training objectives do, is checked on the gradient of
        the first call, not the last finite-difference one."""
        x = Rng(8).uniform_matrix(4, 5, -2.0, 2.0)
        buffer = np.empty_like(x)

        def fresh(ps):
            return float(np.sum(np.sin(ps[0]))), [np.cos(ps[0])]

        def reused(ps):
            return float(np.sum(np.sin(ps[0]))), [np.cos(ps[0], out=buffer)]

        assert ops.grad_check(reused, [x]) == ops.grad_check(fresh, [x])
