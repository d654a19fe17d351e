"""Dense float64 row normalisation with its hand-derived gradient, cosine
similarities, padded row blocks, and the finite-difference gradient
checker.

``normalize_rows_fwd`` has a matching ``normalize_rows_bwd``, and
``grad_check`` verifies any (value, gradients) pair against central finite
differences.  Row normalisation pre-scales each row by its largest entry
magnitude before taking the norm: this cannot overflow, and an exactly
rescaled row normalises to bit-identical output, which is what makes the
cosine losses and retrieval metrics exactly scale-invariant.

``padded_blocks`` cuts an array into blocks of BLOCK_ROWS rows, padding a
short last block with copies of one of its rows.  OpenBLAS multiplies a
product of few rows with another kernel, which rounds differently, so a
row's product would otherwise depend on how many rows share it; with every
product at BLOCK_ROWS rows it depends on that row alone.  ``padded_columns``
pads the right operand to a multiple of _COLUMN_MULTIPLE rows the same
way: OpenBLAS's SkylakeX kernel rounds the last (columns mod 8) columns of
a product depending on the left row's place in the block, and with none
left over a repeated right-operand row gets the same bits in every column.
"""

import itertools

import numpy as np

NORM_EPS = 1e-12
BLOCK_ROWS = 128
_COLUMN_MULTIPLE = 16
_FD_STEP = 1e-5


def _first(values, total: int) -> str:
    """The first 10 of ``total`` values, then "..." if there are more, so
    an error message stays short however many values fail."""
    shown = [str(v) for v in itertools.islice(values, 10)]
    return "[" + ", ".join(shown + ["..."] * (total > 10)) + "]"


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Raise ValueError if any entry is NaN or infinite."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def normalize_rows_fwd(m: np.ndarray):
    """Divide each row by max(||row||_2, eps), eps = NORM_EPS; returns
    (out, norms, full).

    ``norms`` is the per-row divisor actually used (column vector) and
    ``full`` marks rows that were divided by their true norm rather than by
    eps.  Rows are pre-scaled by their largest entry magnitude so the norm
    never overflows and the result is invariant under exact row rescaling.
    Zero rows pass through unchanged (0 / eps).  When every row is full,
    the row selections are skipped.
    """
    m = np.asarray(m, dtype=np.float64)
    scale = np.maximum.reduce(np.abs(m), axis=1, keepdims=True)
    u = m / np.where(scale > 0.0, scale, 1.0)
    unorm = np.sqrt(np.add.reduce(u * u, axis=1, keepdims=True))
    norms = scale * unorm
    full = norms >= NORM_EPS
    if np.logical_and.reduce(full, axis=None):
        u /= unorm
        return u, norms, full
    out = np.where(full, u, m)
    out /= np.where(full, unorm, NORM_EPS)
    return out, np.where(full, norms, NORM_EPS), full


def normalize_rows_bwd(grad, out, norms, full, into=None):
    """Backward pass matching normalize_rows_fwd, written into ``into`` when
    given.

    For full rows: d(x/||x||) = (g - (g.v) v) / ||x|| with v the normalised
    row; for eps-clipped rows the map is linear, so the gradient is g / eps.
    """
    gv = np.add.reduce(grad * out, axis=1, keepdims=True)
    return np.divide(grad - np.where(full, gv, 0.0) * out, norms, out=into)


def _pad_rows(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` with copies of its first row appended, up to ``rows`` rows."""
    if len(a) >= rows:
        return a
    return np.concatenate([a, np.repeat(a[:1], rows - len(a), axis=0)])


def padded_blocks(a: np.ndarray):
    """Yield (start, stop, block) for rows ``start:stop`` of ``a``, BLOCK_ROWS
    at a time along its first axis.  ``block`` always has BLOCK_ROWS rows:
    a short last block is padded with copies of its first row, so its real
    rows are ``block[:stop - start]``."""
    for start in range(0, len(a), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(a))
        yield start, stop, _pad_rows(a[start:stop], BLOCK_ROWS)


def padded_columns(b: np.ndarray) -> np.ndarray:
    """``b.T`` with copies of b's first row appended as columns, up to a
    multiple of _COLUMN_MULTIPLE; the real columns are the first len(b)."""
    return _pad_rows(b, -(-len(b) // _COLUMN_MULTIPLE) * _COLUMN_MULTIPLE).T


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Each row divided by max(||row||_2, NORM_EPS)."""
    out, _, _ = normalize_rows_fwd(m)
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities: entry (i, j) = cos(a_i, b_j)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine_matrix dim mismatch: {a.shape} vs {b.shape}")
    return l2_normalize_rows(a) @ l2_normalize_rows(b).T


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


def grad_check(f, params) -> float:
    """Compare analytic gradients against central finite differences.

    ``f(params)`` must return ``(value, grads)`` with one gradient array per
    parameter, copied before f is called again (f may reuse its buffers).
    Each entry's error is measured against the scale of its array,
    |a - d| / (max(|a| + |d|) + 1e-12) with the max taken over that array,
    and the worst error over every entry is returned; raises if the
    objective is non-finite anywhere it is evaluated.  (An entry-wise
    relative error is ill-conditioned: an entry near zero makes rounding in
    the finite difference look like a wrong gradient.)
    """
    def value_only(ps):
        v = float(f(ps)[0])
        if not np.isfinite(v):
            raise ValueError(f"grad_check: objective returned non-finite value {v}")
        return v

    value_only(params)
    analytic = [np.array(g) for g in f(params)[1]]
    numeric = central_difference(value_only, params, _FD_STEP)
    worst = 0.0
    for a, d in zip(analytic, numeric):
        if a.shape != d.shape:
            raise ValueError(f"grad_check: gradient shape {a.shape} != parameter shape {d.shape}")
        if a.size:
            scale = float(np.max(np.abs(a) + np.abs(d)))
            worst = max(worst, float(np.max(np.abs(a - d))) / (scale + 1e-12))
    return worst
