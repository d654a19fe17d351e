"""Command-line interface for the full pipeline.

Commands: gen-data, train-sketch, train-shape, embed, eval,
report-uncertainty, gradcheck.  Exit codes: 0 success, 1 usage error,
2 runtime or data error.  Every run prints its resolved configuration and
seed; all randomness flows from the explicit --seed flag.
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
    load_sketch_checkpoint,
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


def _print_config(command: str, cfg: TrainConfig) -> None:
    print(f"[{command}] resolved configuration:")
    for line in format_config(cfg).splitlines():
        print(f"[{command}]   {line}")


def _resolve_config(args) -> TrainConfig:
    cfg = TrainConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    overrides = {}
    if getattr(args, "epochs", None) is not None:
        overrides["max_epochs"] = args.epochs
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _config_for_dataset(args, manifest) -> TrainConfig:
    cfg = _resolve_config(args)
    return replace(cfg, feature_dim=manifest.feature_dim, classes=manifest.classes, views=manifest.views)


def cmd_gen_data(args) -> int:
    print(f"[gen-data] seed = {args.seed}")
    print(
        f"[gen-data] classes = {args.classes}, train_per_class = {args.train_per_class}, "
        f"test_per_class = {args.test_per_class}, dim = {args.dim}, views = {args.views}, "
        f"noise_frac = {args.noise_frac}, noise_mode = {args.noise_mode}"
    )
    rng = Rng(args.seed)
    ds = data_mod.generate(
        args.classes,
        args.train_per_class,
        args.test_per_class,
        args.dim,
        args.views,
        args.noise_frac,
        args.noise_mode,
        rng,
        seed=args.seed,
    )
    data_mod.save_dataset(ds, args.out)
    print(f"[gen-data] wrote {len(ds.records)} records to {args.out}")
    return 0


def cmd_train_sketch(args) -> int:
    ds = data_mod.load_dataset(args.data, "sketch")
    cfg = _config_for_dataset(args, ds.manifest)
    _print_config("train-sketch", cfg)
    rng = Rng(cfg.seed)
    model, classifier, report = train_stage1(ds.sketches("train"), cfg, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_sketch_checkpoint(out / "sketch.ckpt", model, classifier)
    report.write(out / "stage1_report.txt")
    print(f"[train-sketch] final epoch loss = {report.losses[-1]!r}")
    print(f"[train-sketch] wall time = {report.wall_time:.2f}s")
    print(f"[train-sketch] wrote {out / 'sketch.ckpt'}")
    return 0


def cmd_train_shape(args) -> int:
    ds = data_mod.load_dataset(args.data, "shape")
    cfg = _config_for_dataset(args, ds.manifest)
    _print_config("train-shape", cfg)
    _, classifier = load_sketch_checkpoint(args.checkpoint)
    if not classifier.frozen:
        classifier = classifier.freeze()
    rng = Rng(cfg.seed)
    model, report = train_stage2(ds.shapes("train"), classifier, cfg, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_shape_checkpoint(out / "shape.ckpt", model)
    report.write(out / "stage2_report.txt")
    print(f"[train-shape] final epoch loss = {report.losses[-1]!r}")
    print(f"[train-shape] wall time = {report.wall_time:.2f}s")
    print(f"[train-shape] wrote {out / 'shape.ckpt'}")
    return 0


def cmd_embed(args) -> int:
    print(f"[embed] checkpoint = {args.checkpoint}, data = {args.data}, split = {args.split}")
    kind, model, _ = load_checkpoint(args.checkpoint)
    ds = data_mod.load_dataset(args.data, kind)
    records = ds.subset(kind, args.split)
    if not records:
        raise ValueError(f"no {kind} records in split {args.split!r}")
    encode = encode_sketch_batch if kind == "sketch" else encode_shape_batch
    emb = encode(model, np.stack([r.features for r in records]))[0]
    data_mod.save_embeddings(args.out, records, emb)
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
    model, _ = load_sketch_checkpoint(args.checkpoint)
    ds = data_mod.load_dataset(args.data, "sketch")
    records = ds.sketches(args.split)
    if not records:
        raise ValueError(f"no sketch records in split {args.split!r}")
    x = np.stack([r.features for r in records])
    _, logvar, _ = encode_sketch_batch(model, x)
    sigma2 = np.exp(logvar)
    recs, percentages = uncert_mod.analyze([r.sample_id for r in records], sigma2)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    uncert_mod.write_report(recs, percentages, out / "uncertainty.csv", out / "uncertainty_summary.txt")
    for name in uncert_mod.BUCKETS:
        print(f"[report-uncertainty] percent_{name} = {percentages[name]:.1f}")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
