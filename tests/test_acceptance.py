"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criteria 5-7 train real models on the synthetic benchmark
(about two minutes total); everything else is fast.

Desk-scale note: the training-loop hyperparameters that the published
defaults leave tied to large pretrained backbones (learning rate, batch
size, hidden widths) are set here to values suited to a from-scratch
float64 MLP: hidden (64, 64), batch 8, initial lr 0.08.  Margins, scales,
lambda, epoch budget and all dataset parameters follow the stated setup.
"""

import math
import time

import numpy as np
import pytest

from reference import evaluate_bruteforce
from sketchshape.cli import main as cli_main
from sketchshape.data import generate
from sketchshape.gradcheck import (
    check_kl,
    check_margin_loss,
    check_transfer_loss,
    check_uncertainty_loss,
)
from sketchshape.losses import MarginParams, kl_gaussian, margin_cosine_loss
from sketchshape.metrics import RankedList, average_precision, dcg, e_measure, evaluate, tier_metrics
from sketchshape.model import encode_shape_batch, encode_sketch_batch
from sketchshape.rng import Rng
from sketchshape.train import TrainConfig, train_stage1, train_stage2
from sketchshape.uncertainty import detection_auc, harmonic_mean

SEEDS = (0, 1, 2, 3, 4)


def bench_config(seed, lam=0.005, noise_frac=0.2):
    return TrainConfig(
        feature_dim=16,
        hidden=(64, 64),
        embed_dim=32,
        classes=10,
        views=12,
        batch_size=8,
        lr0=0.08,
        max_epochs=60,
        lam=lam,
        seed=seed,
    ), noise_frac


def _bench_dataset(seed, noise_frac):
    return generate(10, 50, 30, 16, 12, noise_frac, "ambiguous", Rng(seed), seed=seed)


def _sigma_scores(model, sketches):
    _, logvar, _ = encode_sketch_batch(model, sketches.features)
    return [harmonic_mean(row) for row in np.exp(logvar)]


def _cross_modal_map(sketch_model, shape_model, ds):
    sketches, shapes = ds.sketches("test"), ds.shapes("test")
    queries, _, _ = encode_sketch_batch(sketch_model, sketches.features)
    gallery, _ = encode_shape_batch(shape_model, shapes.features)
    return evaluate(queries, gallery, sketches.labels, shapes.labels).map


@pytest.fixture(scope="module")
def benchmark_runs():
    """Noisy-benchmark training for every seed and both lambda settings."""
    runs = {}
    for seed in SEEDS:
        cfg, noise = bench_config(seed)
        ds = _bench_dataset(seed, noise)
        train = ds.sketches("train")
        flags = train.noisy.tolist()

        t0 = time.perf_counter()
        model, classifier, _ = train_stage1(train, cfg, Rng(seed))
        stage1_time = time.perf_counter() - t0
        scores = _sigma_scores(model, train)
        noisy = [s for s, f in zip(scores, flags) if f]
        clean = [s for s, f in zip(scores, flags) if not f]

        cfg0, _ = bench_config(seed, lam=0.0)
        model0, classifier0, _ = train_stage1(train, cfg0, Rng(seed))

        shape_model, _ = train_stage2(ds.shapes("train"), classifier, cfg, Rng(seed + 1000))
        shape_model0, _ = train_stage2(ds.shapes("train"), classifier0, cfg0, Rng(seed + 1000))

        runs[seed] = {
            "auc": detection_auc(scores, flags),
            "mean_noisy": float(np.mean(noisy)),
            "mean_clean": float(np.mean(clean)),
            "map_lam": _cross_modal_map(model, shape_model, ds),
            "map_zero": _cross_modal_map(model0, shape_model0, ds),
            "stage1_time": stage1_time,
        }
    return runs


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = {"margin": 0.0, "kl": 0.0, "uncertainty": 0.0, "transfer": 0.0}
    for seed in range(20):
        worst["margin"] = max(worst["margin"], check_margin_loss(seed, n=8, dim=16, classes=6))
        worst["kl"] = max(worst["kl"], check_kl(seed, n=8, dim=16))
        worst["uncertainty"] = max(worst["uncertainty"], check_uncertainty_loss(seed, n=8, dim=16, classes=6))
        worst["transfer"] = max(worst["transfer"], check_transfer_loss(seed, n=8, dim=16, classes=6))
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    print(
        f"ACCEPTANCE 1 gradient-correctness: {'PASS' if ok else 'FAIL'} "
        f"(worst rel errors {({k: float(f'{v:.2e}') for k, v in worst.items()})}, {elapsed:.1f}s)"
    )
    for name, err in worst.items():
        assert err < 1e-4, f"{name} gradient error {err}"
    assert elapsed < 30.0


def test_criterion_2_closed_form_loss_oracles():
    kl_zero, _, _ = kl_gaussian(np.zeros((1, 1)), np.zeros((1, 1)))
    kl_unit_mean, _, _ = kl_gaussian(np.array([[1.0]]), np.array([[0.0]]))
    params = MarginParams(30.0, 0.5)
    sep_loss, _, _ = margin_cosine_loss(
        np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]]), [0], params
    )
    w = np.ones((5, 2))
    eq_loss, _, _ = margin_cosine_loss(np.array([[1.0, 1.0]]), w, [0], MarginParams(30.0, 0.0))
    checks = [
        ("kl(0,0) == 0", abs(kl_zero) < 1e-12),
        ("kl(mu=1, sigma=1) == 0.5", abs(kl_unit_mean - 0.5) < 1e-12),
        ("separated margin loss < 1e-12", sep_loss < 1e-12),
        ("equal-cosine loss == ln C", abs(eq_loss - math.log(5.0)) < 1e-12),
    ]
    ok = all(flag for _, flag in checks)
    print(f"ACCEPTANCE 2 closed-form-oracles: {'PASS' if ok else 'FAIL'} ({[n for n, f in checks if not f]})")
    for name, flag in checks:
        assert flag, name


def test_criterion_3_kl_monotone_in_sigma():
    t0 = time.perf_counter()
    grid = [0.1 * k for k in range(1, 10)]
    base_lv = np.log(np.array(grid) ** 2)[None, :]
    violations = []
    for d in range(9):
        for higher in grid:
            if higher <= grid[d]:
                continue
            lv = base_lv.copy()
            lv[0, d] = math.log(higher**2)
            base, _, _ = kl_gaussian(np.zeros((1, 9)), base_lv)
            bumped, _, _ = kl_gaussian(np.zeros((1, 9)), lv)
            if not bumped < base:
                violations.append((grid[d], higher))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 1.0
    print(f"ACCEPTANCE 3 kl-monotonicity: {'PASS' if ok else 'FAIL'} ({len(violations)} violations, {elapsed:.3f}s)")
    assert not violations
    assert elapsed < 1.0


def test_criterion_4_exact_scale_invariance():
    rng = Rng(40)
    # entries on a 2^-40 lattice so that 3x and 100x are exact float products
    z = np.round(rng.uniform_matrix(6, 8, -2.0, 2.0) * 2.0**40) / 2.0**40
    w = rng.uniform_matrix(4, 8, -2.0, 2.0)
    labels = [0, 1, 2, 3, 0, 1]
    params = MarginParams(30.0, 0.5)
    base_loss, _, _ = margin_cosine_loss(z, w, labels, params)

    queries = np.round(rng.uniform_matrix(6, 8, -2.0, 2.0) * 2.0**40) / 2.0**40
    gallery = np.round(rng.uniform_matrix(40, 8, -2.0, 2.0) * 2.0**40) / 2.0**40
    qlabels = [rng.integer(3) for _ in range(6)]
    glabels = [rng.integer(3) for _ in range(40)]
    base_report = evaluate(queries, gallery, qlabels, glabels)
    base_metrics = (base_report.nn, base_report.ft, base_report.st, base_report.e, base_report.dcg, base_report.map)

    failures = []
    for c in (0.5, 3.0, 100.0):
        loss, _, _ = margin_cosine_loss(c * z, w, labels, params)
        if loss != base_loss:
            failures.append(f"loss c={c}")
        report = evaluate(c * queries, c * gallery, qlabels, glabels)
        metrics = (report.nn, report.ft, report.st, report.e, report.dcg, report.map)
        if metrics != base_metrics or report.per_query_ap != base_report.per_query_ap:
            failures.append(f"metrics c={c}")
    print(f"ACCEPTANCE 4 scale-invariance: {'PASS' if not failures else 'FAIL'} {failures}")
    assert not failures


def test_criterion_5_noise_separation(benchmark_runs):
    rows = []
    ok = True
    for seed in SEEDS:
        run = benchmark_runs[seed]
        mean_ok = run["mean_noisy"] > run["mean_clean"]
        auc_ok = run["auc"] >= 0.75
        time_ok = run["stage1_time"] < 300.0
        ok = ok and mean_ok and auc_ok and time_ok
        rows.append(
            f"seed {seed}: noisy {run['mean_noisy']:.4f} vs clean {run['mean_clean']:.4f} "
            f"({'>' if mean_ok else '<='}), AUC {run['auc']:.3f} ({'ok' if auc_ok else '< 0.75'}), "
            f"{run['stage1_time']:.0f}s"
        )
    print(f"ACCEPTANCE 5 noise-separation: {'PASS' if ok else 'FAIL'}")
    for row in rows:
        print(f"  {row}")
    for seed in SEEDS:
        run = benchmark_runs[seed]
        assert run["stage1_time"] < 300.0
        assert run["mean_noisy"] > run["mean_clean"], f"seed {seed}: mean uncertainty not larger for noisy"
        assert run["auc"] >= 0.75, f"seed {seed}: AUC {run['auc']:.3f} < 0.75"


def test_criterion_6_uncertainty_ablation_direction(benchmark_runs):
    with_lam = [benchmark_runs[s]["map_lam"] for s in SEEDS]
    without = [benchmark_runs[s]["map_zero"] for s in SEEDS]
    mean_with = sum(with_lam) / len(SEEDS)
    mean_without = sum(without) / len(SEEDS)
    strictly_better = sum(1 for a, b in zip(with_lam, without) if a > b)
    mean_ok = mean_with >= mean_without - 0.005
    count_ok = strictly_better >= 3
    print(
        f"ACCEPTANCE 6 ablation-direction: {'PASS' if mean_ok and count_ok else 'FAIL'} "
        f"(mAP with {mean_with:.4f} vs without {mean_without:.4f}, strictly better {strictly_better}/5)"
    )
    for seed, a, b in zip(SEEDS, with_lam, without):
        print(f"  seed {seed}: {a:.4f} vs {b:.4f} ({a - b:+.4f})")
    assert mean_ok, f"mean mAP dropped more than 0.005 ({mean_with:.4f} vs {mean_without:.4f})"
    assert count_ok, f"strictly better in only {strictly_better}/5 seeds"


def test_criterion_7_two_stage_alignment():
    t0 = time.perf_counter()
    cfg, _ = bench_config(0, noise_frac=0.0)
    ds = _bench_dataset(0, 0.0)
    model, classifier, _ = train_stage1(ds.sketches("train"), cfg, Rng(0))
    frozen_before = classifier.weights.copy()
    shape_model, _ = train_stage2(ds.shapes("train"), classifier, cfg, Rng(1000))
    unchanged = np.array_equal(frozen_before, classifier.weights)
    cm_map = _cross_modal_map(model, shape_model, ds)
    elapsed = time.perf_counter() - t0
    ok = cm_map >= 0.95 and unchanged and elapsed < 300.0
    print(
        f"ACCEPTANCE 7 two-stage-alignment: {'PASS' if ok else 'FAIL'} "
        f"(mAP {cm_map:.4f}, centers unchanged: {unchanged}, {elapsed:.0f}s)"
    )
    assert cm_map >= 0.95
    assert unchanged
    assert elapsed < 300.0


def test_criterion_8_metric_suite_oracle_equivalence():
    rng = Rng(80)
    mismatches = 0
    instances = 0
    while instances < 200:
        q = 1 + rng.integer(10)
        g = 2 + rng.integer(99)
        dim = 2 + rng.integer(8)
        classes = 1 + rng.integer(5)
        queries = rng.uniform_matrix(q, dim, -2.0, 2.0)
        gallery = rng.uniform_matrix(g, dim, -2.0, 2.0)
        qlabels = [rng.integer(classes) for _ in range(q)]
        glabels = [rng.integer(classes) for _ in range(g)]
        gset = set(glabels)
        if not any(l in gset for l in qlabels):
            continue
        instances += 1
        report = evaluate(queries, gallery, qlabels, glabels)
        (nn, ft, st, e, dcg_, ap), aps = evaluate_bruteforce(queries.tolist(), gallery.tolist(), qlabels, glabels)
        if (report.nn, report.ft, report.st, report.e, report.dcg, report.map) != (nn, ft, st, e, dcg_, ap):
            mismatches += 1
        if report.per_query_ap != aps:
            mismatches += 1

    def ranked(rel):
        rel = np.asarray(rel, dtype=np.int64)
        return RankedList("q", list(range(len(rel))), rel)

    hand_ok = (
        average_precision(ranked([1, 0, 1, 0])) == (1.0 + 2.0 / 3.0) / 2.0
        and tier_metrics(ranked([0, 1, 0, 1, 0, 0]))[1:] == (0.5, 1.0)
        and e_measure(ranked([1] * 16 + [0] * 24)) == 2.0 * 0.5 * 1.0 / (0.5 + 1.0)
        and dcg(ranked([0, 0, 0, 1])) == 0.5
    )
    ok = mismatches == 0 and hand_ok
    print(
        f"ACCEPTANCE 8 metric-oracle-equivalence: {'PASS' if ok else 'FAIL'} "
        f"({instances} instances, {mismatches} mismatches, hand cases {'ok' if hand_ok else 'BAD'})"
    )
    assert mismatches == 0
    assert hand_ok


def test_criterion_9_cli_determinism(tmp_path):
    def pipeline(root):
        data = root / "data"
        run = root / "run"
        cfg = root / "desk.cfg"
        cfg.write_text("hidden = 16,16\nembed_dim = 8\nbatch_size = 16\nlr0 = 0.05\nmax_epochs = 5\n")
        assert cli_main([
            "gen-data", "--out", str(data), "--classes", "3", "--train-per-class", "10",
            "--test-per-class", "5", "--dim", "8", "--views", "2", "--noise-frac", "0.2", "--seed", "11",
        ]) == 0
        assert cli_main([
            "train-sketch", "--data", str(data), "--out", str(run), "--config", str(cfg), "--seed", "11",
        ]) == 0
        assert cli_main([
            "train-shape", "--data", str(data), "--checkpoint", str(run / "sketch.ckpt"),
            "--out", str(run), "--config", str(cfg), "--seed", "12",
        ]) == 0
        assert cli_main([
            "embed", "--checkpoint", str(run / "sketch.ckpt"), "--data", str(data),
            "--split", "test", "--out", str(root / "queries.csv"),
        ]) == 0
        assert cli_main([
            "embed", "--checkpoint", str(run / "shape.ckpt"), "--data", str(data),
            "--split", "test", "--out", str(root / "gallery.csv"),
        ]) == 0
        assert cli_main([
            "eval", "--queries", str(root / "queries.csv"), "--gallery", str(root / "gallery.csv"),
            "--out", str(root / "eval"),
        ]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    pipeline(a)
    pipeline(b)
    compared = [
        "data/sketches.csv", "data/shapes.csv", "data/noisy.csv", "data/manifest.txt",
        "run/sketch.ckpt", "run/shape.ckpt", "run/stage1_report.txt", "run/stage2_report.txt",
        "queries.csv", "gallery.csv", "eval/metrics.txt", "eval/per_query.csv", "eval/pr_curve.txt",
    ]
    different = [p for p in compared if (a / p).read_bytes() != (b / p).read_bytes()]
    print(f"ACCEPTANCE 9 cli-determinism: {'PASS' if not different else 'FAIL'} ({len(compared)} files compared)")
    assert not different, f"files differ: {different}"
