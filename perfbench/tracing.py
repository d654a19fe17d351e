"""Out-of-program tracing of the sketchshape layers.

Run as a script, this executes one CLI command in this process through
``sketchshape.cli.main(argv)`` with the functions in TARGETS wrapped in
timing spans, and writes the spans to a JSON file::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json gen-data --out data ...

Nothing inside ``src/`` is edited: each function is replaced, after import,
at every module attribute that refers to it (``encode_sketch_batch`` for
instance is bound in ``cli``, ``gradcheck``, ``model`` and ``train``), and
methods are replaced on their class.  A target missing from the code under
test is recorded as absent instead of failing, so the benchmark runs
unchanged on later versions of the program.

A span is ``[name, start_ns, end_ns, parent, payload]``: ``parent`` is the
index of the innermost enclosing traced span (-1 for none) and ``payload``
an optional list of counts taken from the call (rows parsed, bytes
written).  Spans stay in memory and are written once, at exit.
"""

import builtins
import functools
import importlib
import json
import os
import sys
import time
from collections import namedtuple

Target = namedtuple("Target", "name module attr measure")


def _rows_parsed(args, kwargs, result):
    return [len(result[0])]


def _bytes_written(args, kwargs, result):
    return [os.path.getsize(args[0] if args else kwargs["path"])]


def _records_taken(args, kwargs, result):
    """[shape records, feature rows] returned by Dataset.subset: a shape
    record holds one row per view."""
    shapes = sum(1 for r in result if r.modality == "shape")
    rows = sum(r.features.shape[0] if r.features.ndim == 2 else 1 for r in result)
    return [shapes, rows]


def _shapes_encoded(args, kwargs, result):
    return [args[1].shape[0]]


def _t(name, attr=None, measure=None):
    module, _, rest = name.partition(".")
    return Target(name, module, attr or rest, measure)


# Span name, then (when it differs) the attribute path inside
# ``sketchshape.<layer>``.  The layer is the span name's first part.  Some
# targets have no metric of their own (sketch_backward, shape_backward,
# reparameterize): they are traced so that their time is not charged to
# the caller's self time.
TARGETS = (
    _t("rng.normal_matrix", "Rng.normal_matrix"),
    _t("rng.permutation", "Rng.permutation"),
    _t("rng.uniform_matrix", "Rng.uniform_matrix"),
    _t("ops.normalize_rows_fwd"),
    _t("ops.normalize_rows_bwd"),
    _t("ops.cosine_matrix"),
    _t("ops.grad_check"),
    _t("model.mlp_forward"),
    _t("model.mlp_backward"),
    _t("model.encode_sketch_batch"),
    _t("model.encode_shape_batch", measure=_shapes_encoded),
    _t("model.sketch_backward"),
    _t("model.shape_backward"),
    _t("model.reparameterize"),
    _t("model._canonical_view_order"),
    _t("model._read_checkpoint"),
    _t("model.save_sketch_checkpoint"),
    _t("model.save_shape_checkpoint"),
    _t("losses.margin_cosine_loss"),
    _t("losses.kl_gaussian"),
    _t("losses.uncertainty_loss"),
    _t("losses.transfer_loss"),
    _t("train.sgd_step"),
    _t("train.train_stage1"),
    _t("train.train_stage2"),
    _t("metrics.rank"),
    _t("metrics.query_metrics"),
    _t("metrics._interpolated_precisions"),
    _t("metrics.evaluate"),
    _t("metrics.write_metric_report"),
    _t("metrics.write_per_query_csv"),
    _t("metrics.write_pr_curve"),
    _t("data.generate"),
    _t("data.save_dataset"),
    _t("data.write_feature_csv", measure=_bytes_written),
    _t("data.read_feature_csv", measure=_rows_parsed),
    _t("data.load_dataset"),
    _t("data.subset", "Dataset.subset", measure=_records_taken),
    _t("data.load_embeddings"),
    _t("data.save_embeddings"),
    _t("uncertainty.analyze"),
    _t("uncertainty.write_report"),
    _t("gradcheck.run_all"),
)

CHECKPOINT_SUFFIX = ".ckpt"


class Tracer:
    """Collects spans for one process.  ``names`` interns span names; the
    stack holds the indices of the spans currently open."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.absent = []
        self.checkpoint_reads = []

    def wrap(self, fn, name, measure=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name_id, clock(), 0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if measure is not None:
                try:
                    spans[index][4] = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    pass  # a changed signature loses the count, never the run
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the others as absent."""
        importlib.import_module("sketchshape.cli")
        modules = [m for key, m in list(sys.modules.items()) if key == "sketchshape" or key.startswith("sketchshape.")]
        for target in targets:
            try:
                owner = importlib.import_module(f"sketchshape.{target.module}")
            except ImportError:
                self.absent.append(target.name)
                continue
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(target.name)
                continue
            traced = self.wrap(original, target.name, target.measure)
            if path:  # a method: replacing it on the class reaches every instance
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def count_checkpoint_reads(self):
        """Every opening of a checkpoint file for reading is one parse, so
        the count survives a rename of the parser."""
        real_open = builtins.open
        reads = self.checkpoint_reads

        @functools.wraps(real_open)
        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode and str(file).endswith(CHECKPOINT_SUFFIX):
                reads.append(str(file))
            return real_open(file, mode, *args, **kwargs)

        builtins.open = counting_open

    def run_command(self, argv):
        """``cli.main(argv)`` inside a root span named after the command."""
        from sketchshape import cli

        root = self.wrap(cli.main, "cli." + argv[0].replace("-", "_"))
        return root(argv)

    def dump(self, path, rc):
        # One json.dumps and one write: streaming json.dump is ~5x slower
        # and its time would count as tracing overhead.
        data = {"rc": rc, "names": self.names, "spans": self.spans, "absent": self.absent,
                "checkpoint_reads": self.checkpoint_reads}
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(data))


def self_times(spans):
    """Per span: its duration minus the time its traced children cover.

    Children of one span run one after another in a single thread, so the
    part of the parent they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def under(spans, names, ancestor_names):
    """Per span: whether an enclosing span carries one of ancestor_names."""
    flags = []
    for span in spans:
        parent = span[3]
        flags.append(parent >= 0 and (names[spans[parent][0]] in ancestor_names or flags[parent]))
    return flags


def main(argv):
    out, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.count_checkpoint_reads()
    rc = tracer.run_command(command)
    tracer.dump(out, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
