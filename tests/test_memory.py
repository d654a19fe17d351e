"""Peak memory of dataset generation and writing, the shape load, stage-2
training, the encoder and the ranking, traced with tracemalloc.

numpy and Python report their allocations to tracemalloc, so the traced
peak of a call bounds the memory it holds at once.  The inputs are fixed
and built before tracing starts, except in the gen-data test, which
traces generate with the write; the bounds are multiples of
the data a call must hold, so they fail if gen-data holds every shape's
views from generation to write, the writer expands the view rows' columns
or holds more than a block in the writing process, the shape load copies
the view matrix, holds the other split's or a list of every expected view
row id, stage 2 prepares its views in one piece, the encoder holds more
than a few blocks of activations, or a ranking block holds a second copy
of its similarities or outlives the next block's product.
"""

import tracemalloc

import numpy as np
import pytest

from sketchshape import data
from sketchshape.data import _BLOCK_ROWS, _POOL_MIN_VALUES, generate, load_dataset, save_dataset, write_feature_csv
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
    dataset is below the share floor, so the whole write runs in this
    process, where tracemalloc sees it."""
    ds = generate(10, 10, 10, 64, 12, 0.2, "ambiguous", 1)
    # The views drawn into an array before tracing, so that the bound is the
    # writer's alone; the next test traces generate's drawing in the write.
    ds.shape = ds.shape._replace(features=np.asarray(ds.shape.features))
    assert ds.shape.features.size < _POOL_MIN_VALUES
    feature_bytes = ds.sketch.features.nbytes + ds.shape.features.nbytes
    assert _traced_peak(lambda: save_dataset(ds, tmp_path)) <= 0.8 * feature_bytes


def test_gen_data_draws_the_shape_views_a_block_at_a_time(tmp_path):
    """generate leaves the shape views undrawn, and save_dataset draws each
    block of samples as it formats it, so from 100 to 600 shapes the
    traced peak of both grows by the sketch matrix and the ids alone:
    about 0.23 times the shapes' added view bytes.  Drawing every shape's
    views in generate, and holding them until the write, adds them all:
    about 1.23.  Both datasets are below the share floor, so the whole
    write runs in this process, where tracemalloc sees it."""
    peaks, view_bytes = [], []
    for per_class in (5, 30):
        shapes = 10 * 2 * per_class
        assert shapes * 12 * 16 < _POOL_MIN_VALUES
        outdir = tmp_path / str(per_class)
        peaks.append(_traced_peak(lambda: save_dataset(generate(10, per_class, per_class, 16, 12, 0.2, "ambiguous", 1),
                                                       outdir)))
        view_bytes.append(shapes * 12 * 16 * 8)
    assert peaks[1] - peaks[0] <= 0.6 * (view_bytes[1] - view_bytes[0])


@pytest.mark.parametrize("views", [None, 12])
def test_two_share_write_holds_one_block_in_this_process(tmp_path, monkeypatch, views):
    """Above the share floor, with two shares, this process formats the
    first half a block at a time and copies the other half's part file:
    about 7.1 blocks of float64 values (rows x dim x 8 bytes of a block),
    one block's values as Python floats and its text.  The forked share's
    allocations are its own.  Sending every block to a pool of two workers
    and holding up to five formatted blocks in flight took it to 11 to 24
    blocks, depending on how many blocks were in flight."""
    monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
    per_sample, dim = views or 1, 64
    rows = 2 * _POOL_MIN_VALUES // (dim * per_sample)
    matrix = Rng(5).uniform_matrix(rows * per_sample, dim, -1.0, 1.0)
    if views:
        matrix = matrix.reshape(rows, views, dim)
    columns = [f"shape_train_{i:04d}" for i in range(rows)], list(range(rows)), ["train"] * rows, ["shape"] * rows
    block = (_BLOCK_ROWS // per_sample) * per_sample * dim * 8
    peak = _traced_peak(lambda: write_feature_csv(tmp_path / "f.csv", *columns, matrix))
    assert peak <= 9 * block


def _train_shape_load_peak(tmp_path, train_per_class: int, test_per_class: int, dim: int = 64) -> float:
    """Traced peak of a train-split shape load, in train view bytes."""
    ds = generate(10, train_per_class, test_per_class, dim, 12, 0.0, "ambiguous", 1)
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


def test_shape_load_checks_the_view_ids_without_a_copy(tmp_path):
    """At dim 8 the text of a view row outweighs its values, and the load
    peaks at about 5.1 times the train split's view bytes, the id of every
    view row of both splits held once.  Building the expected id of every
    row, and each row's expected split, as lists for the layout check
    takes it to about 7.2."""
    assert _train_shape_load_peak(tmp_path, 30, 30, dim=8) <= 6.0


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


def test_evaluate_holds_one_block_at_1000_relevant_items_per_query():
    """With 10 classes each query has 1000 relevant items: about 1.86
    blocks, a block's keys and the ranks of its relevant items.  A _blocks
    that keeps the previous block's keys alive while the next product is
    formed reads about 2.43."""
    assert _evaluate_peak(10) <= 2.2


def test_evaluate_scores_many_relevant_items_in_arrays():
    """With 2 classes, half the gallery is relevant to each query, and
    scoring a block holds a few int64 and float64 values per relevant
    item: about 5.5 blocks in all.  Counting the items below each recall
    level through an items x 11 comparison cast to int64, or turning a
    whole block's precisions and discounts into Python floats, takes it to
    about 10.6.  One block of 128 queries against 2000 items shows it."""
    assert _evaluate_peak(2, BLOCK_ROWS, 2000) <= 7.0
