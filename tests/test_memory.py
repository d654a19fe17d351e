"""Peak memory of the encoder and the ranking, traced with tracemalloc.

numpy reports its array allocations to tracemalloc, so the traced peak of
a call bounds the memory it holds at once.  The inputs are fixed and built
before tracing starts; the bounds are multiples of the data a call must
hold, so they fail if a layer keeps a pre-activation beside its output or
a ranking block holds a second copy of its similarities.
"""

import tracemalloc

import numpy as np

from sketchshape.metrics import BLOCK_QUERIES, evaluate
from sketchshape.model import encode_shape_batch, init_shape_model
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
    """The prepared views and each backbone layer's output, one view block
    each, and little more: a layer keeping its pre-activation too, or
    adding the bias into a second array, takes the peak to four blocks or
    more."""
    rng = Rng(3)
    model = init_shape_model(TrainConfig(feature_dim=64, hidden=(64, 64), embed_dim=32), rng)
    views = rng.normal_matrix(1000 * 12, 64).reshape(1000, 12, 64)
    assert _traced_peak(lambda: encode_shape_batch(model, views)) <= 3.5 * views.nbytes


def _evaluate_peak(classes: int) -> float:
    """Traced peak of ``evaluate`` on 1000 x 10000 normals (dim 32) with
    ``classes`` classes, in blocks of BLOCK_QUERIES x G similarities."""
    rng = Rng(3)
    queries, gallery = rng.normal_matrix(1000, 32), rng.normal_matrix(10000, 32)
    query_labels, gallery_labels = np.arange(1000) % classes, np.arange(10000) % classes
    peak = _traced_peak(lambda: evaluate(queries, gallery, query_labels, gallery_labels))
    return peak / (BLOCK_QUERIES * len(gallery) * 8)


def test_evaluate_holds_a_block_its_keys_and_their_sorted_copy():
    """A block's similarity keys and their sorted copy, beside the gallery
    and small masks: negating the product into a second array takes the
    peak to about four blocks."""
    assert _evaluate_peak(100) <= 3.5


def test_evaluate_frees_the_gallery_dedup_copies():
    """With 10 classes each query has 1000 relevant items, whose per-query
    lists add to the peak.  Holding the deduplication's gallery copy and its
    sorted rows for the whole evaluation as well takes it past the bound."""
    assert _evaluate_peak(10) <= 3.5
