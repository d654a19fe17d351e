"""The sketchshape benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is run from ``src/``
as child processes, one CLI command each, one after another (a single
closed-loop client).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Every line
before it is a human-readable report, including the environment record.

All files the run makes live in a temporary directory under
``.perfbench_tmp/`` in the checkout and are removed at exit.  See
perfbench/README.md for the workloads, the metrics and what each layer
metric should move.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS_FILE = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
STARTUP_REPEATS = 7
ORACLE_QUERIES = 5
# Hard limit for one run: a child still running past it is killed.
RUN_LIMIT_S = 170.0

CLI_ENTRY = "from sketchshape.cli import entry; entry()"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

COMMANDS = ("gen_data", "train_sketch", "train_shape", "embed", "eval", "report_uncertainty", "gradcheck")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [("cli.startup_s", "s", "lower")]
    + [(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS]
    + [
        ("rng.normal_matrix.calls", "count", "lower"),
        ("rng.normal_matrix.self_s", "s", "lower"),
        ("rng.permutation.calls", "count", "lower"),
        ("rng.permutation.self_s", "s", "lower"),
        ("rng.uniform_matrix.self_s", "s", "lower"),
        ("ops.normalize_rows_fwd.calls", "count", "lower"),
        ("ops.normalize_rows_fwd.self_s", "s", "lower"),
        ("ops.normalize_rows_bwd.calls", "count", "lower"),
        ("ops.normalize_rows_bwd.self_s", "s", "lower"),
        ("ops.cosine_matrix.self_s", "s", "lower"),
        ("ops.grad_check.self_s", "s", "lower"),
        ("model.mlp_forward.calls", "count", "lower"),
        ("model.mlp_forward.self_s", "s", "lower"),
        ("model.mlp_backward.calls", "count", "lower"),
        ("model.mlp_backward.self_s", "s", "lower"),
        ("model.encode_sketch_batch.self_s", "s", "lower"),
        ("model.encode_shape_batch.self_s", "s", "lower"),
        ("model._canonical_view_order.calls", "count", "lower"),
        ("model._canonical_view_order.self_s", "s", "lower"),
        ("model.view_sorts_per_shape", "ratio", "lower"),
        ("model.checkpoint_parses", "count", "lower"),
        ("model.checkpoint_parses_per_load", "ratio", "lower"),
        ("model.checkpoint_read_s", "s", "lower"),
        ("model.checkpoint_write_s", "s", "lower"),
        ("losses.margin_cosine_loss.calls", "count", "lower"),
        ("losses.margin_cosine_loss.self_s", "s", "lower"),
        ("losses.kl_gaussian.self_s", "s", "lower"),
        ("losses.uncertainty_loss.self_s", "s", "lower"),
        ("losses.transfer_loss.self_s", "s", "lower"),
        ("train.sgd_step.calls", "count", "lower"),
        ("train.sgd_step.self_s", "s", "lower"),
        ("train.train_stage1.self_s", "s", "lower"),
        ("train.train_stage2.self_s", "s", "lower"),
        ("train.stage1_step_us", "us", "lower"),
        ("train.stage2_step_us", "us", "lower"),
        ("metrics.rank.self_s", "s", "lower"),
        ("metrics.query_metrics.self_s", "s", "lower"),
        ("metrics._interpolated_precisions.self_s", "s", "lower"),
        ("metrics.evaluate.self_s", "s", "lower"),
        ("metrics.write_s", "s", "lower"),
        ("metrics.query_us_p50", "us", "lower"),
        ("metrics.query_us_p99", "us", "lower"),
        ("data.generate.self_s", "s", "lower"),
        ("data.save_dataset.self_s", "s", "lower"),
        ("data.write_feature_csv.self_s", "s", "lower"),
        ("data.write_feature_csv.bytes", "B", "lower"),
        ("data.read_feature_csv.self_s", "s", "lower"),
        ("data.read_feature_csv.rows", "count", "lower"),
        ("data.load_dataset.calls", "count", "lower"),
        ("data.load_dataset.self_s", "s", "lower"),
        ("data.useful_row_frac", "frac", "higher"),
        ("data.load_embeddings.self_s", "s", "lower"),
        ("data.save_embeddings.self_s", "s", "lower"),
        ("uncertainty.analyze.self_s", "s", "lower"),
        ("uncertainty.write_report.self_s", "s", "lower"),
        ("gradcheck.run_all.self_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, set-up failed)."""


# ---------------------------------------------------------------- children


class Runner:
    """Starts CLI children one at a time and waits for each."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.logs = 0

    def run(self, argv, spans_path=None):
        """Returns (exit code, seconds, peak RSS in KiB, log path)."""
        if spans_path is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *argv]
        self.logs += 1
        log = self.work / f"child{self.logs}.log"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=self.work)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss, log


def log_tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


# ----------------------------------------------------------------- digests


def sha256_file(path: Path):
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class DigestCheck:
    """Output digests of one run against a reference: the recorded digests
    of the default seed when they were recorded on this platform,
    otherwise the run's first iteration (repeats must agree bitwise)."""

    def __init__(self, recorded=None):
        self.reference = dict(recorded) if recorded else {}
        self.recorded = bool(recorded)

    def mismatches(self, out: Path, outputs):
        """Outputs of one command whose digest differs from the reference;
        the first sighting of an output without a reference sets it."""
        bad = []
        for rel in outputs:
            digest = sha256_file(out / rel)
            expected = self.reference.setdefault(rel, digest)
            if digest is None or digest != expected:
                bad.append(rel)
        return bad


def platform_key(env):
    return {key: env[key] for key in ("python", "numpy", "blas", "machine", "cpu")}


def recorded_digests(workload, seed, env):
    if seed != DEFAULT_SEED or not DIGESTS_FILE.is_file():
        return None
    data = json.loads(DIGESTS_FILE.read_text())
    if data.get("platform") != platform_key(env):
        return None
    return data.get("workloads", {}).get(workload)


def write_digests(workload, digests, env):
    data = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
    if data.get("platform") != platform_key(env):
        data = {"platform": platform_key(env), "seed": DEFAULT_SEED, "workloads": {}}
    data["workloads"][workload] = dict(sorted(digests.items()))
    DIGESTS_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------- environment


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    """Versions, BLAS, thread settings (recorded, never changed), cores
    and the code under test."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ------------------------------------------------------------------ set-up


class Inputs:
    """What set-up made: the directory and, for gallery, the embeddings."""

    def __init__(self, path: Path, gallery=None):
        self.path = path
        self.gallery = gallery


def set_up(workload, seed, inputs: Path, runner: Runner) -> Inputs:
    """Make a workload's inputs.  Starts with one ``--help`` child so the
    bytecode cache is warm before anything is timed."""
    inputs.mkdir(parents=True)
    rc, _, _, log = runner.run(["--help"])
    if rc != 0:
        raise BenchError(f"sketchshape --help exited {rc}:\n{log_tail(log)}")
    gallery = None
    if workload == "gallery":
        qlabels, q, glabels, g = workloads.gallery_embeddings(seed)
        qids = workloads.embedding_ids(len(qlabels), "q")
        gids = workloads.embedding_ids(len(glabels), "g")
        workloads.write_embedding_csv(inputs / "queries.csv", qids, "sketch", qlabels, q)
        workloads.write_embedding_csv(inputs / "gallery.csv", gids, "shape", glabels, g)
        gallery = (qids, qlabels, q, glabels, g)
    else:
        workloads.write_desk_config(inputs)
    if workload == "bulk_io":
        for command in workloads.bulk_io_setup_commands(inputs, seed):
            rc, _, _, log = runner.run(command.argv)
            if rc != 0:
                raise BenchError(f"set-up command {command.argv[0]} exited {rc}:\n{log_tail(log)}")
    return Inputs(inputs, gallery)


def commands_for(workload, inputs: Inputs, out: Path, seed):
    return {
        "desk": workloads.desk_commands,
        "gallery": workloads.gallery_commands,
        "bulk_io": workloads.bulk_io_commands,
    }[workload](inputs.path, out, seed)


# --------------------------------------------------------------- iterations


class Tally:
    """Commands attempted and failed over a run, plus every sample."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.command_s = defaultdict(list)  # per iteration, a command's summed time
        self.walls = []
        self.traced_walls = []
        self.peaks_kib = []  # per untraced iteration, the largest child ru_maxrss
        self.messages = []

    def fail(self, message):
        self.failed += 1
        self.messages.append(message)


def run_iteration(workload, seed, inputs, out, runner, check, tally, spans_dir=None):
    """The workload's command sequence once.  Returns the list of span
    files (traced) and whether every command exited; a killed or failed
    command ends the sequence, since later ones need its outputs."""
    out.mkdir(parents=True)
    spans = []
    times = Counter()
    peak = 0
    start = time.perf_counter()
    completed = True
    for i, command in enumerate(commands_for(workload, inputs, out, seed)):
        span_file = None if spans_dir is None else spans_dir / f"{out.name}.{i}.json"
        rc, elapsed, rss, log = runner.run(command.argv, span_file)
        tally.attempted += 1
        times[command.name] += elapsed
        peak = max(peak, rss)
        if rc != 0:
            tally.fail(f"{command.argv[0]} exited {rc}:\n{log_tail(log)}")
            completed = False
            break
        bad = check.mismatches(out, command.outputs)
        if bad:
            tally.fail(f"{command.argv[0]}: output digests differ from the reference: {', '.join(bad)}")
        if span_file is not None:
            spans.append((command.name, span_file))
    wall = time.perf_counter() - start
    if completed:
        (tally.walls if spans_dir is None else tally.traced_walls).append(wall)
        if spans_dir is None:
            tally.peaks_kib.append(peak)
            for name, seconds in times.items():
                tally.command_s[name].append(seconds)
    return spans, completed


def oracle_check(gallery, per_query_csv: Path, seed):
    """Recompute a few sampled queries' per_query.csv rows with the
    brute-force oracle of tests/reference.py; they must match bitwise."""
    spec = importlib.util.spec_from_file_location("reference", ROOT / "tests" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    qids, qlabels, q, glabels, g = gallery
    rows = {}
    with open(per_query_csv, encoding="ascii") as fh:
        next(fh)
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows[parts[0]] = parts[1:]
    gallery_rows = g.tolist()
    problems = []
    for i in sorted(random.Random(seed).sample(range(len(qids)), ORACLE_QUERIES)):
        [(_, rel)] = reference.rank_bruteforce([q[i].tolist()], gallery_rows, [qlabels[i]], glabels)
        expected = [repr(v) for v in reference.six_metrics_bruteforce(rel)]
        if rows.get(qids[i]) != expected:
            problems.append(f"query {qids[i]}: per_query.csv {rows.get(qids[i])} != oracle {expected}")
    return problems


# ----------------------------------------------------------- layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces):
    """Per-layer metrics of one traced iteration.

    ``traces`` is a list of (command name, trace) with trace the JSON
    object tracing.py wrote.  Times are summed over the commands; a
    function absent from the code under test counts zero calls.
    """
    calls, inclusive, self_ns = Counter(), Counter(), Counter()
    shapes_taken = rows_taken = rows_loaded = rows_read = bytes_written = 0
    steps = Counter()
    query_ns = []
    parses = loads = 0
    for _, trace in traces:
        names, spans = trace["names"], trace["spans"]
        own = tracing.self_times(spans)
        in_load = tracing.under(spans, names, {"data.load_dataset"})
        stage = {s: tracing.under(spans, names, {f"train.train_{s}"}) for s in ("stage1", "stage2")}
        per_query = defaultdict(list)
        for i, span in enumerate(spans):
            name, payload = names[span[0]], span[4]
            calls[name] += 1
            inclusive[name] += span[2] - span[1]
            self_ns[name] += own[i]
            if name == "data.subset" and payload and not in_load[i]:
                shapes_taken += payload[0]
                rows_taken += payload[1]
            elif name == "data.read_feature_csv" and payload:
                rows_read += payload[0]
                rows_loaded += payload[0] if in_load[i] else 0
            elif name == "data.write_feature_csv" and payload:
                bytes_written += payload[0]
            elif name == "train.sgd_step":
                steps.update(s for s, flags in stage.items() if flags[i])
            elif name in ("metrics.query_metrics", "metrics._interpolated_precisions"):
                per_query[name].append(span[2] - span[1])
        # One query's time: its query_metrics call plus its interpolated
        # precision call, paired by order when both exist.
        qm, ip = per_query["metrics.query_metrics"], per_query["metrics._interpolated_precisions"]
        query_ns.extend([a + b for a, b in zip(qm, ip)] if len(qm) == len(ip) else qm)
        parses += len(trace["checkpoint_reads"])
        loads += len(set(trace["checkpoint_reads"]))

    def s(ns):
        return ns / 1e9

    m = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls[base]
        elif kind == "self_s":
            m[name] = s(self_ns[base])
    quantiles = statistics.quantiles(query_ns, n=100) if len(query_ns) > 1 else [0.0] * 99
    m.update(
        {
            "model.view_sorts_per_shape": _ratio(calls["model._canonical_view_order"], shapes_taken),
            "model.checkpoint_parses": parses,
            "model.checkpoint_parses_per_load": _ratio(parses, loads),
            "model.checkpoint_read_s": s(inclusive["model._read_checkpoint"]),
            "model.checkpoint_write_s": s(
                inclusive["model.save_sketch_checkpoint"] + inclusive["model.save_shape_checkpoint"]
            ),
            "train.stage1_step_us": _ratio(inclusive["train.train_stage1"], steps["stage1"]) / 1e3,
            "train.stage2_step_us": _ratio(inclusive["train.train_stage2"], steps["stage2"]) / 1e3,
            "metrics.write_s": s(
                inclusive["metrics.write_metric_report"]
                + inclusive["metrics.write_per_query_csv"]
                + inclusive["metrics.write_pr_curve"]
            ),
            "metrics.query_us_p50": quantiles[49] / 1e3,
            "metrics.query_us_p99": quantiles[98] / 1e3,
            "data.write_feature_csv.bytes": bytes_written,
            "data.read_feature_csv.rows": rows_read,
            "data.useful_row_frac": _ratio(rows_taken, rows_loaded),
        }
    )
    return m


# ---------------------------------------------------------------- the runs


def _median(values):
    return statistics.median(values) if values else 0.0


def describe(name, unit, samples):
    """One report line: median, the highest percentile with at least ten
    samples beyond it (if any), and the sample count."""
    n = len(samples)
    line = f"  {name:<24} {_median(samples):>12.6f} {unit:<5} median, min={min(samples, default=0.0):.6f}, n={n}"
    pct = tail_percentile(n)
    if pct is not None:
        line += f", p{pct:g}={statistics.quantiles(samples, n=1000, method='inclusive')[int(pct * 10) - 1]:.6f}"
    return line


def tail_percentile(samples: int):
    """The highest of the usual percentiles with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if samples * (100 - p) / 100 >= 10 - 1e-9:
            best = p
    return best


def measure(args, work: Path, env):
    runner = Runner(work, time.perf_counter() + RUN_LIMIT_S)
    tally = Tally()
    check = DigestCheck(recorded_digests(args.workload, args.seed, env))
    report = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"]
    if args.seed == DEFAULT_SEED and not check.recorded:
        report.append("  note: no reference digests recorded for this platform; checking that repeats agree")

    setup_times = []
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    for k in range(repeats):
        start = time.perf_counter()
        inputs = set_up(args.workload, args.seed, work / f"setup{k}", runner)
        setup_times.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(work / f"setup{k - 1}")

    metrics = {}
    layer_samples = defaultdict(list)
    absent = set()
    startup = []
    if args.trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        for _ in range(STARTUP_REPEATS):
            rc, elapsed, _, log = runner.run(["--help"])
            if rc != 0:
                raise BenchError(f"sketchshape --help exited {rc}:\n{log_tail(log)}")
            startup.append(elapsed)

    deadline = time.perf_counter() + args.seconds
    iteration = 0
    last_out = None
    while True:
        out = work / f"iter{iteration}"
        _, ok = run_iteration(args.workload, args.seed, inputs, out, runner, check, tally)
        if last_out is not None:
            shutil.rmtree(last_out)
        last_out = out
        if ok and args.trace:
            traced_out = work / f"iter{iteration}t"
            spans, ok = run_iteration(
                args.workload, args.seed, inputs, traced_out, runner, check, tally, spans_dir
            )
            if ok:
                traces = []
                for name, path in spans:
                    traces.append((name, json.loads(path.read_text())))
                    path.unlink()
                for trace in traces:
                    absent.update(trace[1]["absent"])
                for name, value in layer_metrics(traces).items():
                    layer_samples[name].append(value)
            shutil.rmtree(traced_out)
        iteration += 1
        if not ok or time.perf_counter() >= deadline:
            break

    if args.workload == "gallery" and args.trace == 0 and ok:
        problems = oracle_check(inputs.gallery, last_out / "eval" / "per_query.csv", args.seed)
        for problem in problems:
            tally.fail(f"oracle spot-check: {problem}")
        report.append(
            f"  oracle spot-check: {ORACLE_QUERIES} sampled queries recomputed with tests/reference.py, "
            f"{len(problems)} mismatches"
        )

    if args.write_digests:
        write_digests(args.workload, check.reference, env)
        report.append(f"  wrote {len(check.reference)} reference digests to {DIGESTS_FILE.relative_to(ROOT)}")

    if args.trace == 0:
        peak_mib = [kib / 1024 for kib in tally.peaks_kib]
        values = {"wall_s": _median(tally.walls), "setup_s": _median(setup_times), "peak_rss_mb": _median(peak_mib)}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        report.append(describe("wall_s", "s", tally.walls))
        report.append(describe("setup_s", "s", setup_times))
        for name in COMMANDS:
            if name in tally.command_s:
                report.append(describe(f"{name}_s", "s", tally.command_s[name]))
        report.append(describe("peak_rss_mb", "MiB", peak_mib) + " (per iteration, the largest child ru_maxrss)")
    else:
        medians = {name: _median(values) for name, values in layer_samples.items()}
        medians["cli.startup_s"] = _median(startup)
        traced, untraced = _median(tally.traced_walls), _median(tally.walls)
        medians["trace.overhead_frac"] = _ratio(traced, untraced) - 1.0 if untraced else 0.0
        for name, unit, _ in PER_LAYER:
            metrics[name] = (medians.get(name, 0.0), unit)
            report.append(f"  {name:<40} {metrics[name][0]:>16.6f} {unit}")
        report.append(
            f"  traced iterations n={len(tally.traced_walls)} (wall median {traced:.4f} s), "
            f"untraced n={len(tally.walls)} (wall median {untraced:.4f} s)"
        )
        if absent:
            report.append(f"  absent from the code under test (reported as 0): {', '.join(sorted(absent))}")
    report.append(
        f"  fail_frac {_ratio(tally.failed, tally.attempted):.6f} ({tally.failed} of {tally.attempted} commands)"
    )
    report.extend(f"  FAILED {message}" for message in tally.messages)
    return report, tally, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "gallery", "bulk_io"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help=f"record this run's output digests as the reference for seed {DEFAULT_SEED}",
    )
    args = parser.parse_args(argv)
    if args.write_digests and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-digests needs --seed {DEFAULT_SEED} --trace 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sketchshape" / "cli.py").is_file():
        print(f"error: no sketchshape sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = environment()
    load_before = os.getloadavg()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report, tally, metrics = measure(args, work, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    print("\n".join(report))
    print("env " + json.dumps(env, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
