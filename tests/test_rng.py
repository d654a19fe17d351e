"""Deterministic generator: reproducibility and distribution quality."""

import numpy as np
import pytest

from sketchshape.rng import Rng


def test_same_seed_same_stream_10k():
    a = Rng(12345)
    b = Rng(12345)
    assert [a.next_u64() for _ in range(10_000)] == [b.next_u64() for _ in range(10_000)]


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_seed_zero_gives_reference_splitmix64_outputs():
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_block_matches_scalar_stream():
    scalar = Rng(99)
    block = Rng(99)
    want = [(scalar.next_u64() >> 11) * 2**-53 for _ in range(257)]
    got = block.uniform_block(257).tolist()
    assert want == got


def test_uniform_range():
    u = Rng(7).uniform_block(100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_uniform_matrix_is_row_major_affine():
    r1 = Rng(5)
    m = r1.uniform_matrix(3, 4, -2.0, 2.0)
    r2 = Rng(5)
    flat = r2.uniform_block(12)
    np.testing.assert_array_equal(m.ravel(), -2.0 + 4.0 * flat)
    assert m.min() >= -2.0 and m.max() < 2.0


def test_normal_moments_one_million():
    # empirical mean within 0.02 and variance within 0.05 of (0, 1)
    z = Rng(2024).normal_matrix(1_000_000, 1).ravel()
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_normal_matrix_matches_scalar_draws():
    m = Rng(11).normal_matrix(2, 3)
    scalars = Rng(11)
    # a one-entry draw consumes a full pair, so compare against a fresh
    # generator's block of the same total count instead
    again = Rng(11).normal_matrix(1, 6)
    np.testing.assert_array_equal(m.ravel(), again.ravel())
    assert np.isfinite(m).all()
    assert scalars.normal_matrix(1, 1)[0, 0] == pytest.approx(m[0, 0])


@pytest.mark.parametrize("rows", [5, 23])
@pytest.mark.parametrize("cols", [5, 32])
@pytest.mark.parametrize("batch", [1, 7, 8])
def test_normal_batches_match_per_batch_draws(batch, cols, rows):
    """One epoch draw gives the values of one normal_matrix call per batch,
    bitwise, and leaves the stream where those calls leave it.  An odd
    batch x cols draws a spare value per batch and drops it."""
    if batch > 1:
        assert rows % batch  # a short last batch
    for seed in range(5):
        epoch, per_batch = Rng(seed), Rng(seed)
        got = epoch.normal_batches(rows, batch, cols)
        want = np.concatenate([per_batch.normal_matrix(min(batch, rows - start), cols)
                               for start in range(0, rows, batch)])
        assert got.shape == (rows, cols)
        assert got.tobytes() == want.tobytes()
        assert epoch.next_u64() == per_batch.next_u64()


def test_normal_batches_rejects_empty_batches():
    with pytest.raises(ValueError, match="batch >= 1"):
        Rng(0).normal_batches(8, 0, 4)


def test_normal_all_finite():
    z = Rng(3).normal_matrix(10_000, 4)
    assert np.isfinite(z).all()


def test_integer_bounds_and_determinism():
    r = Rng(42)
    draws = [r.integer(10) for _ in range(1000)]
    assert min(draws) == 0
    assert max(draws) == 9
    r2 = Rng(42)
    assert draws == [r2.integer(10) for _ in range(1000)]
    with pytest.raises(ValueError):
        r.integer(0)


def test_shuffle_is_permutation_and_deterministic():
    r = Rng(8)
    items = list(range(50))
    r.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))
    r2 = Rng(8)
    again = list(range(50))
    r2.shuffle(again)
    assert items == again


def test_permutation_helper():
    assert sorted(Rng(3).permutation(17)) == list(range(17))


def _scalar_permutation(r, n):
    """Fisher-Yates with one integer() call per swap, the stream the block
    draw must reproduce."""
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = r.integer(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 500])
def test_block_permutation_and_shuffle_match_scalar_loop(n):
    for seed in range(50):
        block, shuffled, scalar = Rng(seed), Rng(seed), Rng(seed)
        want = _scalar_permutation(scalar, n)
        items = list(range(n))
        shuffled.shuffle(items)
        assert block.permutation(n) == want
        assert items == want
        assert block.next_u64() == shuffled.next_u64() == scalar.next_u64()


def test_rejected_block_draw_falls_back_to_scalar_loop(monkeypatch):
    calls = []
    next_u64, raw_block = Rng.next_u64, Rng._raw_block

    def counted_next_u64(self):
        calls.append(1)
        return next_u64(self)

    def rejected_raw_block(self, n):
        raw = raw_block(self, n)
        # integer(17) rejects raw >= 2^64 - (2^64 mod 17) = 2^64 - 1
        raw[0] = np.uint64((1 << 64) - 1)
        return raw

    want_rng = Rng(4)
    want = _scalar_permutation(want_rng, 17)
    monkeypatch.setattr(Rng, "next_u64", counted_next_u64)
    monkeypatch.setattr(Rng, "_raw_block", rejected_raw_block)
    got_rng = Rng(4)
    assert got_rng.permutation(17) == want
    assert len(calls) == 16  # the scalar loop drew every swap
    monkeypatch.undo()
    assert got_rng.next_u64() == want_rng.next_u64()
