"""Row stability: a sample's encoder outputs, and a query's similarities and
metrics, are the same bits whichever other rows share the call.

The encoders and the ranking multiply in blocks of ops.BLOCK_ROWS rows,
the last block padded with copies of one of its rows.  That rests on one
property of the BLAS, stated by ``test_padded_row_rule``: a row of a
product with at least BLOCK_ROWS rows has the same bits whatever the other
rows are.  OpenBLAS takes a small-matrix kernel, which rounds differently,
for a product of few rows, so unpadded short blocks would not have it.
The ranking also pads the gallery (``ops.padded_columns``), and
``test_padded_column_rule`` states what that gives: repeated gallery rows
get the same bits in every column, so they tie.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchshape.metrics import _blocks, evaluate
from sketchshape.model import encode_shape_batch, encode_sketch_batch, init_shape_model, init_sketch_model
from sketchshape.ops import BLOCK_ROWS, padded_blocks, padded_columns
from sketchshape.rng import Rng
from sketchshape.train import TrainConfig

CFG = TrainConfig(feature_dim=16, hidden=(64, 64), embed_dim=32)
SPLIT = 300
VIEWS = 12
ROWS = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def _rows(data) -> np.ndarray:
    """Indices into a split of SPLIT rows: its first rows (a truncated
    file) or a random subset in random order, of 1, 127, 128, 129 or any
    number of rows up to SPLIT."""
    size = data.draw(st.one_of(st.sampled_from([1, 127, 128, 129]), st.integers(1, SPLIT)), label="size")
    if data.draw(st.booleans(), label="truncated"):
        return np.arange(size)
    return np.array(data.draw(st.permutations(range(SPLIT)), label="order")[:size])


@functools.cache
def _sketch_split():
    rng = Rng(41)
    model = init_sketch_model(CFG, rng)
    features = rng.normal_matrix(SPLIT, CFG.feature_dim)
    return model, features, encode_sketch_batch(model, features)


@functools.cache
def _shape_split():
    rng = Rng(42)
    model = init_shape_model(CFG, rng)
    views = rng.normal_matrix(SPLIT * VIEWS, CFG.feature_dim).reshape(SPLIT, VIEWS, CFG.feature_dim)
    return model, views, encode_shape_batch(model, views)


def _keys(queries, gallery, query_labels, gallery_labels) -> np.ndarray:
    """Every query's negated similarities, as _blocks ranks them."""
    return np.concatenate([keys for _, keys, _ in _blocks(queries, gallery, query_labels, gallery_labels)])


@functools.cache
def _query_split():
    """The desk pipeline's eval shape: SPLIT queries against SPLIT gallery
    items of dim 32 in 10 classes."""
    rng = Rng(43)
    queries, gallery = rng.normal_matrix(SPLIT, 32), rng.normal_matrix(SPLIT, 32)
    labels = np.arange(SPLIT) % 10
    ids = [f"q{i}" for i in range(SPLIT)]
    report = evaluate(queries, gallery, labels, labels, ids)
    return queries, gallery, labels, ids, _keys(queries, gallery, labels, labels), report.per_query


def _blocked_product(x, right, order) -> np.ndarray:
    """Rows ``order`` of the N x group x in array ``x``, times ``right`` in
    padded blocks of BLOCK_ROWS x group rows, as the encoders multiply."""
    out = np.empty((len(order), x.shape[1], right.shape[1]))
    for start, stop, block in padded_blocks(x[order]):
        out[start:stop] = (block.reshape(-1, x.shape[2]) @ right).reshape(BLOCK_ROWS, x.shape[1], -1)[: stop - start]
    return out


@pytest.mark.parametrize(
    "inputs, outputs, group",
    [(16, 64, 1), (64, 64, 1), (64, 32, 1), (16, 64, VIEWS), (64, 64, VIEWS), (32, SPLIT, 1)],
)
def test_padded_row_rule(inputs, outputs, group):
    """In a product of BLOCK_ROWS x group rows, each row's bits depend on
    that row alone: not on the other rows, nor on its place among them.
    The shapes are the encoder layers' (in -> out), the shape backbone's
    with VIEWS rows per shape, and the desk eval's: 32-dim queries against
    SPLIT gallery items, padded as eval pads them."""
    rng = Rng(inputs * 1000 + outputs)
    x = rng.normal_matrix((3 * BLOCK_ROWS + 44) * group, inputs).reshape(-1, group, inputs)
    w = rng.normal_matrix(outputs, inputs)
    right = padded_columns(w) if outputs == SPLIT else w.T
    whole = _blocked_product(x, right, np.arange(len(x)))
    order = np.array(rng.permutation(len(x)))
    for rows in (order, order[: BLOCK_ROWS - 1], order[:1], np.arange(44)):
        assert _blocked_product(x, right, rows).tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("items, dim", [(300, 32), (4097, 64), (10000, 32)])
def test_padded_column_rule(items, dim):
    """In a product of padded blocks with ``padded_columns`` of a gallery,
    each copy of a repeated gallery row gets the same bits in every column,
    wherever it sits, the last (items mod 16) columns included.  Unpadded,
    OpenBLAS's SkylakeX kernel gives other bits in the last (items mod 8)
    columns at 300 and 4097 items."""
    rng = Rng(items + dim)
    queries = rng.normal_matrix(3 * BLOCK_ROWS + 44, dim)
    gallery = rng.normal_matrix(items, dim)
    order = np.array(rng.permutation(items - 12))
    sources = order[48:56]
    copies = np.concatenate([order[:48], np.arange(items - 12, items)])
    gallery[copies] = gallery[sources[np.arange(len(copies)) % len(sources)]]
    right = padded_columns(gallery)
    product = np.concatenate([(block @ right)[: stop - start, :items] for start, stop, block in padded_blocks(queries)])
    for i, source in enumerate(sources):
        columns = np.concatenate([[source], copies[i :: len(sources)]])
        expected = np.repeat(product[:, [source]], len(columns), axis=1)
        assert product[:, columns].tobytes() == expected.tobytes(), source


def test_padded_blocks_pad_the_last_block_with_a_real_row():
    a = np.arange(2 * BLOCK_ROWS + 3, dtype=np.float64).reshape(-1, 1) * [1.0, -1.0]
    blocks = list(padded_blocks(a))
    assert [(start, stop) for start, stop, _ in blocks] == [(0, 128), (128, 256), (256, 259)]
    assert all(block.shape == (BLOCK_ROWS, 2) for _, _, block in blocks)
    for start, stop, block in blocks:
        assert block[: stop - start].tobytes() == a[start:stop].tobytes()
        assert (block[stop - start :] == a[start]).all()
    assert list(padded_blocks(a[:0])) == []


@ROWS
@given(st.data())
def test_sketch_rows_match_the_whole_split(data):
    model, features, (mu, logvar) = _sketch_split()
    rows = _rows(data)
    got_mu, got_logvar = encode_sketch_batch(model, features[rows])
    assert got_mu.tobytes() == mu[rows].tobytes()
    assert got_logvar.tobytes() == logvar[rows].tobytes()


@ROWS
@given(st.data())
def test_shape_rows_match_the_whole_split(data):
    model, views, embeddings = _shape_split()
    rows = _rows(data)
    assert encode_shape_batch(model, views[rows]).tobytes() == embeddings[rows].tobytes()


def test_empty_batches_give_empty_outputs_of_the_embedding_width():
    sketch_model, features, _ = _sketch_split()
    shape_model, views, _ = _shape_split()
    mu, logvar = encode_sketch_batch(sketch_model, features[:0])
    assert mu.shape == logvar.shape == (0, CFG.embed_dim)
    assert encode_shape_batch(shape_model, views[:0]).shape == (0, CFG.embed_dim)


@ROWS
@given(st.data())
def test_query_rows_match_the_whole_query_file(data):
    """A query's similarities and per-query metrics do not depend on which
    other queries the file holds, or in what order."""
    queries, gallery, labels, ids, keys, per_query = _query_split()
    rows = _rows(data)
    assert _keys(queries[rows], gallery, labels[rows], labels).tobytes() == keys[rows].tobytes()
    report = evaluate(queries[rows], gallery, labels[rows], labels, [ids[i] for i in rows])
    assert report.per_query == [per_query[i] for i in rows]
