"""Peak memory of the dataset writer, the shape load, stage-2 training, the
encoder and the ranking, traced with tracemalloc.

numpy and Python report their allocations to tracemalloc, so the traced
peak of a call bounds the memory it holds at once.  The inputs are fixed
and built before tracing starts; the bounds are multiples of the data a
call must hold, so they fail if the writer expands the view rows' columns,
the shape load copies the view matrix or holds the other split's, stage 2
prepares its views in one piece, the encoder holds more than a few blocks
of activations, or a ranking block holds a second copy of its
similarities or outlives the next block's product.
"""

import tracemalloc

import numpy as np

from sketchshape.data import _POOL_MIN_VALUES, generate, load_dataset, save_dataset
from sketchshape.losses import Classifier
from sketchshape.metrics import evaluate
from sketchshape.model import encode_shape_batch, init_shape_model
from sketchshape.ops import BLOCK_ROWS
from sketchshape.rng import Rng
from sketchshape.train import TrainConfig, train_stage2


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


def _train_shape_load_peak(tmp_path, train_per_class: int, test_per_class: int) -> float:
    """Traced peak of a train-split shape load, in train view bytes."""
    ds = generate(10, train_per_class, test_per_class, 64, 12, 0.0, "ambiguous", 1)
    save_dataset(ds, tmp_path)
    view_bytes = ds.shapes("train").features.nbytes
    del ds
    return _traced_peak(lambda: load_dataset(tmp_path, "shape", "train")) / view_bytes


def test_shape_load_holds_one_copy_of_the_view_matrix(tmp_path):
    """shapes.csv, in the writer's layout, loads a split as a view of the
    parsed matrix: about 1.9 times the split's view bytes, the rest being
    ids and bookkeeping of every row of both splits.  Gathering a second
    copy of the block takes it to about 2.7, and holding both splits'
    values to about 3.1."""
    assert _train_shape_load_peak(tmp_path, 30, 30) <= 2.4


def test_shape_load_holds_only_its_split(tmp_path):
    """A train-split load parses the values of the train rows alone: about
    3.5 times their view bytes when the test split is five times larger,
    the rest being the text columns of every row.  Holding both splits'
    values, as a load of every row does, takes it to about 9.2."""
    assert _train_shape_load_peak(tmp_path, 10, 50) <= 5.0


def test_stage2_prepares_its_views_a_block_at_a_time():
    """One epoch of stage 2 holds the prepared views, one copy of the
    split's, and one block of shapes' temporaries: about 1.45 times the
    split's view bytes.  Preparing the whole split in one call takes it to
    about 3.1."""
    ds = generate(10, 100, 1, 64, 12, 0.0, "ambiguous", 1)
    shapes = ds.shapes("train")
    cfg = TrainConfig(feature_dim=64, hidden=(64, 64), embed_dim=32, classes=10, batch_size=64, max_epochs=1)
    classifier = Classifier(Rng(2).normal_matrix(10, 32)).freeze()
    peak = _traced_peak(lambda: train_stage2(shapes, classifier, cfg, Rng(3)))
    assert peak <= 2.0 * shapes.features.nbytes


def _evaluate_peak(classes: int, count: int = 1000, items: int = 10000) -> float:
    """Traced peak of ``evaluate`` on ``count`` x ``items`` normals (dim 32)
    with ``classes`` classes, in blocks of BLOCK_ROWS x G similarities."""
    rng = Rng(3)
    queries, gallery = rng.normal_matrix(count, 32), rng.normal_matrix(items, 32)
    query_labels, gallery_labels = np.arange(count) % classes, np.arange(items) % classes
    peak = _traced_peak(lambda: evaluate(queries, gallery, query_labels, gallery_labels))
    return peak / (BLOCK_ROWS * len(gallery) * 8)


def test_evaluate_holds_one_block_of_similarities():
    """A block's similarity keys, beside the gallery, one sorted row and
    small masks: about 1.5 blocks.  Sorting the whole block into a copy
    takes it to about 2.5, and keeping the previous block's keys alive
    while the next product is formed to about 2.6."""
    assert _evaluate_peak(100) <= 1.8


def test_evaluate_frees_the_gallery_dedup_copies():
    """With 10 classes each query has 1000 relevant items, and the traced
    peak stays within 3.5 blocks, as in the 100-class case.  The name dates
    from the gallery deduplication, which is gone: a deduplicated copy kept
    alive read 3.08 blocks here, under the bound, so the test no longer
    detects one."""
    assert _evaluate_peak(10) <= 3.5


def test_evaluate_scores_many_relevant_items_in_arrays():
    """With 2 classes, half the gallery is relevant to each query, and
    scoring a block holds a few int64 and float64 values per relevant
    item: about 5.5 blocks in all.  Counting the items below each recall
    level through an items x 11 comparison cast to int64, or turning a
    whole block's precisions and discounts into Python floats, takes it to
    about 10.6.  One block of 128 queries against 2000 items shows it."""
    assert _evaluate_peak(2, BLOCK_ROWS, 2000) <= 7.0
