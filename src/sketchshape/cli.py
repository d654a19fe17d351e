"""Command-line interface for the full pipeline.

Commands: gen-data, train-sketch, train-shape, embed, eval,
report-uncertainty, gradcheck.  Exit codes: 0 success, 1 usage error,
2 runtime or data error with one ``error:`` line (numpy's floating-point
warnings are silenced: the finiteness checks report a diverging run).
Every run prints its resolved configuration and seed; all randomness flows
from the explicit --seed flag.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import metrics as metrics_mod
from . import uncertainty as uncert_mod
from .model import (
    encode_shape_batch,
    encode_sketch_batch,
    load_checkpoint,
    save_shape_checkpoint,
    save_sketch_checkpoint,
)
from .rng import Rng
from .train import TrainConfig, format_config, load_config, train_stage1, train_stage2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _train_config(command: str, args, manifest) -> TrainConfig:
    """The config file or the defaults, then --epochs, --seed and the dataset's sizes; printed."""
    cfg = load_config(args.config) if args.config else TrainConfig()
    overrides = {"feature_dim": manifest.feature_dim, "classes": manifest.classes}
    if args.epochs is not None:
        overrides["max_epochs"] = args.epochs
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = replace(cfg, **overrides)
    print(f"[{command}] resolved configuration:")
    for line in format_config(cfg).splitlines():
        print(f"[{command}]   {line}")
    return cfg


def cmd_gen_data(args) -> int:
    print(f"[gen-data] seed = {args.seed}")
    print(
        f"[gen-data] classes = {args.classes}, train_per_class = {args.train_per_class}, "
        f"test_per_class = {args.test_per_class}, dim = {args.dim}, views = {args.views}, "
        f"noise_frac = {args.noise_frac}, noise_mode = {args.noise_mode}"
    )
    ds = data_mod.generate(args.classes, args.train_per_class, args.test_per_class, args.dim, args.views,
                           args.noise_frac, args.noise_mode, args.seed)
    data_mod.save_dataset(ds, args.out)
    print(f"[gen-data] wrote {len(ds.sketch.ids) + len(ds.shape.ids)} records to {args.out}")
    return 0


def _write_run(command: str, out, checkpoint: str, report_name: str, report, save, *state) -> int:
    """Write a trained stage's checkpoint, ``save(path, *state)``, and its report."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save(out / checkpoint, *state)
    report.write(out / report_name)
    print(f"[{command}] final epoch loss = {report.losses[-1]!r}")
    print(f"[{command}] wall time = {report.wall_time:.2f}s")
    print(f"[{command}] wrote {out / checkpoint}")
    return 0


def cmd_train_sketch(args) -> int:
    ds = data_mod.load_dataset(args.data, "sketch")
    cfg = _train_config("train-sketch", args, ds.manifest)
    model, classifier, report = train_stage1(ds.sketches("train"), cfg, Rng(cfg.seed))
    return _write_run("train-sketch", args.out, "sketch.ckpt", "stage1_report.txt", report,
                      save_sketch_checkpoint, model, classifier)


def cmd_train_shape(args) -> int:
    ds = data_mod.load_dataset(args.data, "shape")
    cfg = _train_config("train-shape", args, ds.manifest)
    classifier = load_checkpoint(args.checkpoint, "sketch")[2].freeze()
    model, report = train_stage2(ds.shapes("train"), classifier, cfg, Rng(cfg.seed))
    return _write_run("train-shape", args.out, "shape.ckpt", "stage2_report.txt", report, save_shape_checkpoint, model)


def _encode_split(args, only=None):
    """(samples of ``args.split``, encoder outputs): (mu, logvar) for
    sketches, (embeddings,) for shapes.  The checkpoint (of kind ``only``
    if given) is read before the dataset of its kind."""
    kind, model, _ = load_checkpoint(args.checkpoint, only)
    samples = data_mod.load_dataset(args.data, kind).subset(kind, args.split)
    if not samples.ids:
        raise ValueError(f"no {kind} records in split {args.split!r}")
    if kind == "sketch":
        return samples, encode_sketch_batch(model, samples.features)
    return samples, (encode_shape_batch(model, samples.features),)


def cmd_embed(args) -> int:
    print(f"[embed] checkpoint = {args.checkpoint}, data = {args.data}, split = {args.split}")
    samples, (emb, *_) = _encode_split(args)
    data_mod.save_embeddings(args.out, samples, emb)
    print(f"[embed] wrote {emb.shape[0]} x {emb.shape[1]} embeddings to {args.out}")
    return 0


def cmd_eval(args) -> int:
    print(f"[eval] queries = {args.queries}, gallery = {args.gallery}")
    qids, qlabels, _, _, queries = data_mod.load_embeddings(args.queries)
    _, glabels, _, _, gallery = data_mod.load_embeddings(args.gallery)
    if queries.shape[1] != gallery.shape[1]:
        raise ValueError(f"query dim {queries.shape[1]} != gallery dim {gallery.shape[1]}")
    report = metrics_mod.evaluate(queries, gallery, qlabels, glabels, qids)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_mod.write_metric_report(report, out / "metrics.txt")
    metrics_mod.write_per_query_csv(report, out / "per_query.csv")
    metrics_mod.write_pr_curve(report, out / "pr_curve.txt")
    for key in ("nn", "ft", "st", "e", "dcg", "map"):
        print(f"[eval] {key} = {getattr(report, key):.4f}")
    if report.num_excluded:
        print(f"[eval] excluded {report.num_excluded} queries with no relevant gallery item")
    print(f"[eval] wrote {out / 'metrics.txt'}")
    return 0


def cmd_report_uncertainty(args) -> int:
    print(f"[report-uncertainty] checkpoint = {args.checkpoint}, data = {args.data}, split = {args.split}")
    samples, (_, logvar) = _encode_split(args, only="sketch")
    scores = uncert_mod.analyze(samples.ids, np.exp(logvar))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    uncert_mod.write_report(samples.ids, scores, out / "uncertainty.csv", out / "uncertainty_summary.txt")
    for name in uncert_mod.BUCKETS:
        print(f"[report-uncertainty] percent_{name} = {scores.percentages[name]:.1f}")
    print(f"[report-uncertainty] wrote {out / 'uncertainty.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    print(f"[gradcheck] seed = {args.seed}")
    results = gradcheck_mod.run_all(args.seed)
    worst = 0.0
    for name, err in results.items():
        print(f"[gradcheck] {name}: max relative error = {err:.3e}")
        worst = max(worst, err)
    if worst >= gradcheck_mod.TOLERANCE:
        print(f"[gradcheck] FAIL: worst error {worst:.3e} >= {gradcheck_mod.TOLERANCE}", file=sys.stderr)
        return 2
    print(f"[gradcheck] OK: all gradients within {gradcheck_mod.TOLERANCE}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sketchshape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic two-modality dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--train-per-class", type=int, default=50)
    p.add_argument("--test-per-class", type=int, default=30)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--views", type=int, default=12)
    p.add_argument("--noise-frac", type=float, default=0.0)
    p.add_argument("--noise-mode", choices=data_mod.NOISE_MODES, default="ambiguous")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-sketch", help="stage 1: sketch uncertainty learning")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_sketch)

    p = sub.add_parser("train-shape", help="stage 2: shape transfer onto frozen centers")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="stage-1 sketch checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_shape)

    p = sub.add_parser("embed", help="write embeddings for one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="six-metric retrieval evaluation of embedding files")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report-uncertainty", help="score and bucket sketch uncertainty")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_uncertainty)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
