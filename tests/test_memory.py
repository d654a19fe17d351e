"""Peak memory of the dataset writer, the shape load, the encoder and the
ranking, traced with tracemalloc.

numpy and Python report their allocations to tracemalloc, so the traced
peak of a call bounds the memory it holds at once.  The inputs are fixed
and built before tracing starts; the bounds are multiples of the data a
call must hold, so they fail if the writer expands the view rows' columns,
the shape load copies the view matrix, the encoder holds more than a few
blocks of activations, or a ranking block holds a second copy of its
similarities.
"""

import tracemalloc

import numpy as np

from sketchshape.data import _POOL_MIN_VALUES, generate, load_dataset, save_dataset
from sketchshape.metrics import evaluate
from sketchshape.model import encode_shape_batch, init_shape_model
from sketchshape.ops import BLOCK_ROWS
from sketchshape.rng import Rng
from sketchshape.train import TrainConfig


def _traced_peak(call) -> int:
    """Bytes of the largest traced allocation total while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_shape_batch_holds_one_array_per_layer():
    """Beyond its output, the encoder holds a padded block's prepared views
    and each backbone layer's output, a block of BLOCK_ROWS x 12 x 64
    values each, and the prepare step's temporaries: about 4.2 blocks,
    whatever the number of shapes.  Encoding the whole batch at once takes
    it to 24 blocks at 1000 shapes and 97 at 4000."""
    rng = Rng(3)
    model = init_shape_model(TrainConfig(feature_dim=64, hidden=(64, 64), embed_dim=32), rng)
    block = BLOCK_ROWS * 12 * 64 * 8
    for shapes in (1000, 4000):
        views = rng.normal_matrix(shapes * 12, 64).reshape(shapes, 12, 64)
        output = shapes * 32 * 8
        assert _traced_peak(lambda: encode_shape_batch(model, views)) - output <= 5 * block, shapes


def test_save_dataset_formats_one_block_of_view_rows_at_a_time(tmp_path):
    """save_dataset writes shapes.csv from the N x views x dim block, a
    block of samples at a time: about 0.71 times the feature bytes, the
    Python floats and text of one block.  Expanding the view rows' ids,
    labels and splits into lists first takes it to about 0.89.  The
    dataset is below the pool's size floor, so the write runs in this
    process, where tracemalloc sees it."""
    ds = generate(10, 10, 10, 64, 12, 0.2, "ambiguous", 1)
    assert ds.shape.features.size < _POOL_MIN_VALUES
    feature_bytes = ds.sketch.features.nbytes + ds.shape.features.nbytes
    assert _traced_peak(lambda: save_dataset(ds, tmp_path)) <= 0.8 * feature_bytes


def test_shape_load_holds_one_copy_of_the_view_matrix(tmp_path):
    """A shapes.csv in the writer's order loads as a view of the parsed
    matrix: about 1.55 times the view bytes, the rest being ids and
    per-row bookkeeping.  Gathering a second copy of the block takes it
    to about 2.5."""
    ds = generate(10, 30, 30, 64, 12, 0.0, "ambiguous", 1)
    save_dataset(ds, tmp_path)
    view_bytes = ds.shape.features.nbytes
    del ds
    assert _traced_peak(lambda: load_dataset(tmp_path, "shape")) <= 2.0 * view_bytes


def _evaluate_peak(classes: int, count: int = 1000, items: int = 10000) -> float:
    """Traced peak of ``evaluate`` on ``count`` x ``items`` normals (dim 32)
    with ``classes`` classes, in blocks of BLOCK_ROWS x G similarities."""
    rng = Rng(3)
    queries, gallery = rng.normal_matrix(count, 32), rng.normal_matrix(items, 32)
    query_labels, gallery_labels = np.arange(count) % classes, np.arange(items) % classes
    peak = _traced_peak(lambda: evaluate(queries, gallery, query_labels, gallery_labels))
    return peak / (BLOCK_ROWS * len(gallery) * 8)


def test_evaluate_holds_a_block_its_keys_and_their_sorted_copy():
    """A block's similarity keys and their sorted copy, beside the gallery
    and small masks: negating the product into a second array takes the
    peak to about four blocks."""
    assert _evaluate_peak(100) <= 3.5


def test_evaluate_frees_the_gallery_dedup_copies():
    """With 10 classes each query has 1000 relevant items.  The ranking
    multiplies the padded gallery directly and keeps no deduplicated
    copy of it: holding such a copy and its sorted rows for the whole
    evaluation as well takes the peak past the bound."""
    assert _evaluate_peak(10) <= 3.5


def test_evaluate_scores_many_relevant_items_in_arrays():
    """With 2 classes, half the gallery is relevant to each query, and
    scoring a block holds a few int64 and float64 values per relevant
    item: about 5.5 blocks in all.  Counting the items below each recall
    level through an items x 11 comparison cast to int64, or turning a
    whole block's precisions and discounts into Python floats, takes it to
    about 10.6.  One block of 128 queries against 2000 items shows it."""
    assert _evaluate_peak(2, BLOCK_ROWS, 2000) <= 7.0
