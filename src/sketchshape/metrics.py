"""Cosine-similarity ranking and the six standard retrieval metrics.

For each query the gallery is sorted by descending cosine similarity (ties
broken by ascending gallery position) and the binary relevance sequence of
that ranking feeds six metrics: nearest neighbor, first/second tier,
E-measure at a fixed cutoff, normalised discounted cumulated gain, and
average precision.  With R the number of gallery items sharing the query's
label and rel_k the relevance at rank k:

  NN  = rel_1
  FT  = (relevant within top R) / R
  ST  = (relevant within top min(2R, G)) / R
  E   = 2 P Rc / (P + Rc) at cutoff K = min(32, G), 0 if nothing relevant
  DCG = (rel_1 + sum_{k>=2} rel_k / log2 k) / (ideal list's value)
  AP  = (1/R) sum over relevant ranks k of precision@k

Queries with no relevant gallery item have no defined metrics; they are
excluded from averages and counted in the report.  Aggregation uses exactly
rounded summation (math.fsum), so any correct implementation of these
definitions produces bit-identical averages.

Queries are ranked and scored in blocks of BLOCK_QUERIES, so memory grows
with BLOCK_QUERIES x G rather than with Q x G; each block's similarities
are one matrix product of unit-length rows.  A block's similarity rows
are sorted with numpy's default argsort, the fastest; a row in which two
sorted keys are equal is sorted again with a stable sort, which keeps equal
similarities in gallery order.  A row without equal keys has exactly one
sorted order, so both sorts agree on it.  Embeddings must be finite: NaN
compares unequal to itself and would hide a tie.  Equal cosines rank by
gallery position only where both round to the same value, as for identical
or all-zero rows; parallel rows such as (1, 1) and (3, 3) may not.  Every
metric, and the interpolated precision-recall curve, follows from the ranks
of the relevant items alone, and all of them come from one function,
``_score_block``; the single-query functions call it with a one-row block.

The DCG discounts come from math.log2, as in the brute-force oracle, since
np.log2 may differ from it in the last ulp.
"""

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .ops import _shape, l2_normalize_rows, require_finite

E_MEASURE_CUTOFF = 32
PR_RECALL_LEVELS = tuple(i / 10.0 for i in range(11))
BLOCK_QUERIES = 128


@dataclass
class RankedList:
    """One query's gallery ordering, best match first."""

    query_id: str
    gallery_ids: list
    relevance: np.ndarray  # 0/1 per rank


@dataclass
class PerQueryMetrics:
    query_id: str
    nn: float
    ft: float
    st: float
    e: float
    dcg: float
    ap: float


@dataclass
class MetricReport:
    nn: float
    ft: float
    st: float
    e: float
    dcg: float
    map: float
    per_query: list = field(default_factory=list)
    pr_curve: list = field(default_factory=list)  # (recall, precision) pairs
    num_queries: int = 0
    num_excluded: int = 0
    excluded_ids: list = field(default_factory=list)

    @property
    def per_query_ap(self) -> list:
        return [q.ap for q in self.per_query]


def _ids(ids, count: int) -> list:
    ids = [str(i) for i in (range(count) if ids is None else ids)]
    if len(ids) != count:
        raise ValueError(f"query_ids has {len(ids)} entries for {count} queries")
    return ids


def _ranked_blocks(queries, gallery, query_labels, gallery_labels):
    """Yield (start, order, rel) per block of up to BLOCK_QUERIES queries
    from row ``start`` on: ``order[i]`` holds the gallery positions by
    descending cosine, ties by ascending position, and ``rel[i]`` marks
    which of them share query ``start + i``'s label."""
    queries = require_finite(np.asarray(queries, dtype=np.float64), "queries")
    gallery = require_finite(np.asarray(gallery, dtype=np.float64), "gallery")
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise ValueError(f"query/gallery dim mismatch: {_shape(queries)} vs {_shape(gallery)}")
    if gallery.shape[0] < 1:
        raise ValueError("gallery must not be empty")
    query_labels = np.asarray(query_labels, dtype=np.int64)
    gallery_labels = np.asarray(gallery_labels, dtype=np.int64)
    for name, labels, rows in (("query_labels", query_labels, queries), ("gallery_labels", gallery_labels, gallery)):
        if labels.shape != rows.shape[:1]:
            raise ValueError(f"{name} has shape {labels.shape} for {rows.shape[0]} {name.partition('_')[0]} rows")
    unit_queries = l2_normalize_rows(queries)
    unit_gallery_t = l2_normalize_rows(gallery).T
    # numpy multiplies a one-row block as a vector (gemv), which may round
    # differently from the matrix product (gemm) that ranks every other
    # block, so a single leftover query joins the block before it.
    count = queries.shape[0]
    starts = list(range(0, count, BLOCK_QUERIES))
    if count > 1 and count % BLOCK_QUERIES == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [count]):
        keys = -(unit_queries[start:stop] @ unit_gallery_t)
        order = np.argsort(keys, axis=1)
        ranked = np.take_along_axis(keys, order, axis=1)
        tied = np.any(ranked[:, 1:] == ranked[:, :-1], axis=1)
        if tied.any():
            order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
        yield start, order, gallery_labels[order] == query_labels[start:stop, None]


def rank(queries, gallery, query_labels, gallery_labels, query_ids=None, gallery_ids=None):
    """RankedList per query: descending cosine, ties by gallery position.

    >>> import numpy as np
    >>> ranked = rank(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [2.0, 0.0]]),
    ...               np.array([7]), np.array([3, 7]))
    >>> ranked[0].gallery_ids, ranked[0].relevance.tolist()
    ([1, 0], [1, 0])
    """
    query_ids = _ids(query_ids, len(queries))
    ranked = []
    for start, order, rel in _ranked_blocks(queries, gallery, query_labels, gallery_labels):
        for i, (positions, hits) in enumerate(zip(order.tolist(), rel.astype(np.int64))):
            ids = positions if gallery_ids is None else [gallery_ids[j] for j in positions]
            ranked.append(RankedList(query_ids[start + i], ids, hits))
    return ranked


def _discounts(size: int) -> np.ndarray:
    # rank 1 undiscounted; rank k >= 2 contributes 1 / log2(k)
    return np.array([1.0] + [1.0 / math.log2(k) for k in range(2, size + 1)])


def _score_block(rel, discounts):
    """Six metrics and 11-point interpolated precisions for every row of a
    boolean relevance matrix: one query per row, best rank first, at least
    one relevant item per row, and ``discounts`` from ``_discounts`` of the
    row length.

    Returns a list with one (nn, ft, st, e, dcg, ap) tuple of floats per
    row and a rows x 11 array of interpolated precisions.  The j-th of a
    row's R relevant items, found at rank k, has precision j / k and
    recall j / R; precision falls between relevant items, so they alone
    decide every metric.
    """
    size = rel.shape[1]
    if not rel.shape[0]:
        return [], np.empty((0, len(PR_RECALL_LEVELS)))
    totals = rel.sum(axis=1)
    row, col = np.nonzero(rel)  # relevant items, row by row, best rank first
    first = np.cumsum(totals) - totals  # each row's first entry in row / col
    nth = np.arange(1, col.size + 1) - first[row]
    precision = nth / (col + 1)
    recall = nth / totals[row]

    def found(within):
        """Relevant items per row ranked within the top ``within``."""
        return np.bincount(row[col < within], minlength=totals.size)

    nn = rel[:, 0].astype(np.float64)
    ft = found(totals[row]) / totals
    st = found(np.minimum(2 * totals, size)[row]) / totals
    cutoff = min(E_MEASURE_CUTOFF, size)
    hits = found(cutoff)
    p, rc = hits / cutoff, hits / totals
    with np.errstate(invalid="ignore"):
        e = np.where(hits > 0, 2.0 * p * rc / (p + rc), 0.0)

    # Interpolated precision at a recall level is the largest precision from
    # the first relevant item whose recall reaches the level to the row's
    # last one; ``below`` counts the items before it.  One reduceat takes
    # the maximum over every (start, end) pair; the results between pairs
    # are dropped, and the appended 0.0 keeps the last end a valid index.
    levels = np.array(PR_RECALL_LEVELS)
    below = np.add.reduceat(recall[:, None] < levels, first, axis=0, dtype=np.int64)
    starts = first[:, None] + below
    ends = np.broadcast_to((first + totals)[:, None], starts.shape)
    bounds = np.stack([starts, ends], axis=-1).ravel()
    pr = np.maximum.reduceat(np.append(precision, 0.0), bounds)[::2].reshape(starts.shape)

    precisions, gains = precision.tolist(), discounts[col].tolist()
    ideal = {total: math.fsum(discounts[:total].tolist()) for total in set(totals.tolist())}
    metrics = []
    heads = zip(nn.tolist(), ft.tolist(), st.tolist(), e.tolist())
    for a, total, head in zip(first.tolist(), totals.tolist(), heads):
        b = a + total
        metrics.append((*head, math.fsum(gains[a:b]) / ideal[total], math.fsum(precisions[a:b]) / total))
    return metrics, pr


def _score_one(r: RankedList):
    """_score_block for one ranked list: its metrics tuple and its list of
    interpolated precisions."""
    rel = np.asarray(r.relevance, dtype=bool)
    if not rel.any():
        raise ValueError(f"query {r.query_id}: no relevant gallery items, metrics undefined")
    [metrics], pr = _score_block(rel[None, :], _discounts(rel.size))
    return metrics, pr[0].tolist()


def query_metrics(r: RankedList) -> PerQueryMetrics:
    """The six metrics of one ranked list."""
    metrics, _ = _score_one(r)
    return PerQueryMetrics(r.query_id, *metrics)


def _interpolated_precisions(r: RankedList) -> list:
    """Precision interpolated at the 11 standard recall levels.

    Nothing in the package calls it; it keeps the name that
    perfbench/tracing.py traces.

    >>> _interpolated_precisions(RankedList("q", [0, 1, 2, 3], np.array([1, 0, 1, 0])))[4:8]
    [1.0, 1.0, 0.6666666666666666, 0.6666666666666666]
    """
    return _score_one(r)[1]


def average_precision(r: RankedList) -> float:
    """Mean of precision@k over the ranks k that hold a relevant item.

    >>> ap = average_precision(RankedList("q", [0, 1, 2, 3], np.array([1, 0, 1, 0])))
    >>> round(ap, 6)
    0.833333
    """
    return query_metrics(r).ap


def tier_metrics(r: RankedList):
    """(NN, FT, ST): top-1 relevance, recall within top R and top 2R."""
    q = query_metrics(r)
    return q.nn, q.ft, q.st


def e_measure(r: RankedList) -> float:
    """Harmonic mean of precision and recall at E_MEASURE_CUTOFF."""
    return query_metrics(r).e


def dcg(r: RankedList) -> float:
    """Discounted cumulated gain normalised by the ideal ordering's value.

    >>> round(dcg(RankedList("q", [0, 1, 2, 3], np.array([0, 0, 0, 1]))), 6)
    0.5
    """
    return query_metrics(r).dcg


def evaluate(queries, gallery, query_labels, gallery_labels, query_ids=None) -> MetricReport:
    """Rank every query and average the six metrics over queries that have
    at least one relevant gallery item; also builds the averaged 11-point
    interpolated precision-recall curve."""
    query_ids = _ids(query_ids, len(queries))
    discounts = _discounts(len(gallery))
    per_query = []
    excluded = []
    pr_blocks = []
    for start, _, rel in _ranked_blocks(queries, gallery, query_labels, gallery_labels):
        found = rel.any(axis=1)
        metrics, pr = _score_block(rel[found], discounts)
        ids = query_ids[start : start + len(rel)]
        excluded.extend(compress(ids, ~found))
        per_query.extend(PerQueryMetrics(qid, *m) for qid, m in zip(compress(ids, found), metrics))
        pr_blocks.append(pr)
    if not per_query:
        raise ValueError("no query has a relevant gallery item; nothing to evaluate")

    n = len(per_query)
    pr_columns = np.concatenate(pr_blocks).T.tolist()
    return MetricReport(
        nn=math.fsum(q.nn for q in per_query) / n,
        ft=math.fsum(q.ft for q in per_query) / n,
        st=math.fsum(q.st for q in per_query) / n,
        e=math.fsum(q.e for q in per_query) / n,
        dcg=math.fsum(q.dcg for q in per_query) / n,
        map=math.fsum(q.ap for q in per_query) / n,
        per_query=per_query,
        pr_curve=[(level, math.fsum(col) / n) for level, col in zip(PR_RECALL_LEVELS, pr_columns)],
        num_queries=n,
        num_excluded=len(excluded),
        excluded_ids=excluded,
    )


def write_metric_report(report: MetricReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key in ("nn", "ft", "st", "e", "dcg", "map"):
            fh.write(f"{key} = {getattr(report, key)!r}\n")
        fh.write(f"num_queries = {report.num_queries}\n")
        fh.write(f"num_excluded = {report.num_excluded}\n")
        if report.excluded_ids:
            fh.write(f"excluded_ids = {','.join(report.excluded_ids)}\n")


def write_per_query_csv(report: MetricReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("query_id,nn,ft,st,e,dcg,ap\n")
        for q in report.per_query:
            fh.write(f"{q.query_id},{q.nn!r},{q.ft!r},{q.st!r},{q.e!r},{q.dcg!r},{q.ap!r}\n")


def write_pr_curve(report: MetricReport, path) -> None:
    """Two columns, 'recall precision', one line per recall level."""
    with open(path, "w", encoding="ascii") as fh:
        for recall, precision in report.pr_curve:
            fh.write(f"{recall!r} {precision!r}\n")
