"""Dense float64 row normalisation with its hand-derived gradient, cosine
similarities, and the finite-difference gradient checker.

``normalize_rows_fwd`` has a matching ``normalize_rows_bwd``, and
``grad_check`` verifies any (value, gradients) pair against central finite
differences.  Row normalisation pre-scales each row by its largest entry
magnitude before taking the norm: this cannot overflow, and an exactly
rescaled row normalises to bit-identical output, which is what makes the
cosine losses and retrieval metrics exactly scale-invariant.
"""

import itertools

import numpy as np

NORM_EPS = 1e-12


def _shape(a: np.ndarray) -> str:
    return "x".join(str(d) for d in a.shape)


def _first(values, total: int, limit: int = 10) -> str:
    """The first ``limit`` of ``total`` values, then "..." if there are
    more, so an error message stays short however many values fail."""
    shown = [str(v) for v in itertools.islice(values, limit)]
    return "[" + ", ".join(shown + ["..."] * (total > limit)) + "]"


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    """Raise ValueError if any entry is NaN or infinite."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def normalize_rows_fwd(m: np.ndarray, eps: float = NORM_EPS):
    """Divide each row by max(||row||_2, eps); returns (out, norms, full).

    ``norms`` is the per-row divisor actually used (column vector) and
    ``full`` marks rows that were divided by their true norm rather than by
    eps.  Rows are pre-scaled by their largest entry magnitude so the norm
    never overflows and the result is invariant under exact row rescaling.
    Zero rows pass through unchanged (0 / eps).
    """
    m = np.asarray(m, dtype=np.float64)
    scale = np.maximum.reduce(np.abs(m), axis=1, keepdims=True)
    u = m / np.where(scale > 0.0, scale, 1.0)
    unorm = np.sqrt(np.add.reduce(u * u, axis=1, keepdims=True))
    norms = scale * unorm
    full = norms >= eps
    out = np.where(full, u, m)
    out /= np.where(full, unorm, eps)
    return out, np.where(full, norms, eps), full


def normalize_rows_bwd(grad, out, norms, full):
    """Backward pass matching normalize_rows_fwd.

    For full rows: d(x/||x||) = (g - (g.v) v) / ||x|| with v the normalised
    row; for eps-clipped rows the map is linear, so the gradient is g / eps.
    """
    gv = np.add.reduce(grad * out, axis=1, keepdims=True)
    return (grad - np.where(full, gv, 0.0) * out) / norms


def l2_normalize_rows(m: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Each row divided by max(||row||_2, eps)."""
    out, _, _ = normalize_rows_fwd(m, eps)
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Pairwise cosine similarities: entry (i, j) = cos(a_i, b_j)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine_matrix dim mismatch: {_shape(a)} vs {_shape(b)}")
    return l2_normalize_rows(a, eps) @ l2_normalize_rows(b, eps).T


def central_difference(f, params, step):
    """Central finite-difference gradients of a scalar function.

    ``f`` is called with the (mutated in place, then restored) parameter
    list and must return a scalar; nothing else about f is used, so this is
    independent of any analytic gradient code.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f(params)
            flat[i] = orig - step
            down = f(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def grad_check(f, params, step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``f(params)`` must return ``(value, grads)`` with one gradient array per
    parameter.  Each entry's error is measured against the scale of its
    array, |a - d| / (max(|a| + |d|) + 1e-12) with the max taken over that
    array, and the worst error over every entry is returned; raises if the
    objective is non-finite anywhere it is evaluated.  (An entry-wise
    relative error is ill-conditioned: an entry near zero makes rounding in
    the finite difference look like a wrong gradient.)
    """
    if step <= 0.0:
        raise ValueError(f"grad_check needs step > 0, got {step}")

    def value_only(ps):
        v = float(f(ps)[0])
        if not np.isfinite(v):
            raise ValueError(f"grad_check: objective returned non-finite value {v}")
        return v

    value_only(params)
    _, analytic = f(params)
    numeric = central_difference(value_only, params, step)
    worst = 0.0
    for a, d in zip(analytic, numeric):
        if a.shape != d.shape:
            raise ValueError(f"grad_check: gradient shape {_shape(a)} != parameter shape {_shape(d)}")
        if a.size:
            scale = float(np.max(np.abs(a) + np.abs(d)))
            worst = max(worst, float(np.max(np.abs(a - d))) / (scale + 1e-12))
    return worst
