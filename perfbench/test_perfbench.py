"""Tests of the benchmark itself: span arithmetic, the digest and oracle
checks, input determinism, and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from sketchshape import cli  # noqa: E402


def _span(name_id, start, end, parent, payload=None):
    return [name_id, start, end, parent, payload]


# root(0..100) -> a(10..40) -> c(15..25); root -> b(50..90)
NAMES = ["cli.embed", "data.load_dataset", "data.subset", "train.train_stage1"]
TREE = [
    _span(0, 0, 100, -1),
    _span(1, 10, 40, 0),
    _span(2, 15, 25, 1),
    _span(2, 50, 90, 0),
]


def test_self_time_is_duration_minus_traced_children():
    assert tracing.self_times(TREE) == [100 - 30 - 40, 30 - 10, 10, 40]


def test_self_times_sum_to_root_duration():
    assert sum(tracing.self_times(TREE)) == TREE[0][2] - TREE[0][1]


def test_under_flags_every_descendant():
    assert tracing.under(TREE, NAMES, {"data.load_dataset"}) == [False, False, True, False]
    assert tracing.under(TREE, NAMES, {"cli.embed"}) == [False, True, True, True]


def test_layer_metrics_from_hand_built_trace():
    names = NAMES + ["train.sgd_step", "data.read_feature_csv", "metrics.query_metrics",
                     "metrics._interpolated_precisions"]
    spans = [
        _span(0, 0, 1000, -1),
        _span(1, 0, 400, 0),                      # load_dataset
        _span(5, 10, 300, 1, [100]),              # reads 100 rows
        _span(2, 310, 320, 1, [0, 100]),          # validation subset: not taken
        _span(2, 400, 410, 0, [5, 25]),           # command takes 25 rows, 5 shapes
        _span(3, 500, 900, 0),                    # stage 1, two steps
        _span(4, 600, 610, 5),
        _span(4, 700, 710, 5),
        _span(6, 910, 930, 0),                    # one query: 20 + 30 ns
        _span(7, 930, 960, 0),
    ]
    trace = {"names": names, "spans": spans, "absent": [], "checkpoint_reads": ["a.ckpt", "a.ckpt"]}
    m = bench.layer_metrics([("embed", trace)])
    assert m["data.useful_row_frac"] == 0.25
    assert m["data.read_feature_csv.rows"] == 100
    assert m["data.load_dataset.calls"] == 1
    assert m["data.load_dataset.self_s"] == (400 - 290 - 10) / 1e9
    assert m["train.sgd_step.calls"] == 2
    assert m["train.stage1_step_us"] == 400 / 2 / 1e3
    assert m["train.train_stage1.self_s"] == 380 / 1e9
    assert m["model.checkpoint_parses"] == 2
    assert m["model.checkpoint_parses_per_load"] == 2.0
    assert m["metrics.query_us_p50"] == 0.0  # one sample has no quantiles
    assert m["cli.embed.self_s"] == (1000 - 400 - 10 - 400 - 20 - 30) / 1e9
    assert m["model._canonical_view_order.calls"] == 0  # absent: counts nothing
    assert {name for name, _, _ in bench.PER_LAYER} - {"cli.startup_s", "trace.overhead_frac"} <= set(m)


def test_digest_check_catches_a_one_byte_change(tmp_path):
    (tmp_path / "metrics.txt").write_bytes(b"map = 0.5\n")
    check = bench.DigestCheck()
    assert check.mismatches(tmp_path, ["metrics.txt"]) == []  # sets the reference
    assert check.mismatches(tmp_path, ["metrics.txt"]) == []
    (tmp_path / "metrics.txt").write_bytes(b"map = 0.6\n")
    assert check.mismatches(tmp_path, ["metrics.txt"]) == ["metrics.txt"]


def test_digest_check_against_recorded_reference(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"x\n")
    good = bench.sha256_file(tmp_path / "a.csv")
    assert bench.DigestCheck({"a.csv": good}).mismatches(tmp_path, ["a.csv"]) == []
    assert bench.DigestCheck({"a.csv": "0" * 64}).mismatches(tmp_path, ["a.csv"]) == ["a.csv"]
    assert bench.DigestCheck({"a.csv": good}).mismatches(tmp_path, ["missing.csv"]) == ["missing.csv"]


def _write_gallery(directory, seed, **sizes):
    qlabels, q, glabels, g = workloads.gallery_embeddings(seed, **sizes)
    qids = workloads.embedding_ids(len(qlabels), "q")
    gids = workloads.embedding_ids(len(glabels), "g")
    directory.mkdir()
    workloads.write_embedding_csv(directory / "queries.csv", qids, "sketch", qlabels, q)
    workloads.write_embedding_csv(directory / "gallery.csv", gids, "shape", glabels, g)
    return qids, qlabels, q, glabels, g


SMALL = {"queries": 20, "items": 120, "dim": 8, "classes": 5}


def test_gallery_generator_is_deterministic(tmp_path):
    _write_gallery(tmp_path / "a", 3, **SMALL)
    _write_gallery(tmp_path / "b", 3, **SMALL)
    _write_gallery(tmp_path / "c", 4, **SMALL)
    for name in ("queries.csv", "gallery.csv"):
        a, b, c = ((tmp_path / d / name).read_bytes() for d in "abc")
        assert a == b
        assert a != c


def test_gallery_has_every_class_on_both_sides():
    qlabels, q, glabels, g = workloads.gallery_embeddings(0, **SMALL)
    assert set(qlabels) == set(glabels) == set(range(SMALL["classes"]))
    assert q.shape == (SMALL["queries"], SMALL["dim"]) and g.shape == (SMALL["items"], SMALL["dim"])


def test_oracle_check_passes_then_catches_one_changed_digit(tmp_path):
    gallery = _write_gallery(tmp_path / "in", 5, **SMALL)
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--queries", str(tmp_path / "in" / "queries.csv"),
                   "--gallery", str(tmp_path / "in" / "gallery.csv"), "--out", str(out)])
    assert rc == 0
    per_query = out / "per_query.csv"
    assert bench.oracle_check(gallery, per_query, seed=1) == []
    lines = per_query.read_text().splitlines()
    for i in range(1, len(lines)):  # change the last digit of every AP
        head, ap = lines[i].rsplit(",", 1)
        lines[i] = f"{head},{ap[:-1]}{(int(ap[-1]) + 1) % 10}" if ap[-1].isdigit() else lines[i]
    per_query.write_text("\n".join(lines) + "\n")
    assert len(bench.oracle_check(gallery, per_query, seed=1)) == bench.ORACLE_QUERIES


def test_missing_target_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install([tracing.Target("model.gone", "model", "gone", None),
                    tracing.Target("nomodule.f", "nomodule", "f", None),
                    tracing.Target("data.subset_gone", "data", "Dataset.gone", None)])
    assert tracer.absent == ["model.gone", "nomodule.f", "data.subset_gone"]
    assert tracer.spans == []


def test_traced_command_writes_spans_for_every_target(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracing.py"), str(spans_path), "gen-data", "--out", str(tmp_path / "d"),
         "--classes", "3", "--train-per-class", "4", "--test-per-class", "2", "--dim", "4", "--views", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(bench.SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["rc"] == 0 and trace["absent"] == []
    assert set(trace["names"]) == {t.name for t in tracing.TARGETS} | {"cli.gen_data"}
    used = {trace["names"][s[0]] for s in trace["spans"]}
    assert {"cli.gen_data", "data.generate", "data.save_dataset", "data.write_feature_csv",
            "rng.normal_matrix"} <= used
    writes = [s[4][0] for s in trace["spans"] if trace["names"][s[0]] == "data.write_feature_csv"]
    assert sum(writes) == sum(f.stat().st_size for f in (tmp_path / "d").glob("s*.csv"))


@pytest.mark.parametrize("samples, expected", [(5, None), (19, None), (20, 50), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert bench.tail_percentile(samples) == expected


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == ["desk", "gallery", "bulk_io"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
