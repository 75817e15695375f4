#!/usr/bin/env python3
"""Pipeline benchmark for measim: set-up, pretraining, joint loop, evaluation.

    python3 perfbench/run.py --workload sin80 --seed 1 --seconds 15 --trace 0

One run drives the library the way `measim gen-data`, `pretrain`,
`train-joint` and `sweep` do, in one process with one closed-loop caller and
BLAS pinned to one thread.  Every timing is taken here, around calls into the
public functions of src/measim; nothing under src/ is changed.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics of a traced
pass (see perfbench/README.md).  The last line of stdout is the result JSON.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# Pinned before NumPy loads: the same seed gives different bits at 1 vs 2
# BLAS threads, and the host is shared.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

# measim's bytecode lives in the benchmark's own cache: it is compiled on the
# first run in a checkout and read from there after, as a CLI user's would
# be, whatever src/measim/__pycache__ holds and whether or not
# PYTHONDONTWRITEBYTECODE is set.
sys.pycache_prefix = os.path.join(STATE_DIR, "pycache")
sys.dont_write_bytecode = False

import measim  # noqa: E402

if not os.path.abspath(measim.__file__).startswith(SRC + os.sep):
    sys.exit(f"measim imported from {measim.__file__}, not from {SRC}")

from measim import cli, data, episodes, evaluate, imputer, masks, policy, rngs, training  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import tracer  # noqa: E402  (perfbench/tracer.py)

# `measim sweep` defaults, at the workload's own rate
EVAL_METHODS = ("proposed", "uninform", "explicit")
EVAL_K = 3
EVAL_SEEDS = 3
EXPLICIT_K = 5
CHECK_STREAM = 1000     # EVAL substream index for the output checks


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Scale:
    """How much work one repetition of each stage does, and the fewest
    repetitions a run makes beyond its --seconds of measuring."""

    n_train: int
    n_test: int
    pretrain_epochs: int = 8
    call_iterations: int = 20    # iterations per joint_train call
    warmup: int = 5              # iterations of the first call left untimed
    min_timed: int = 110         # >= 10 samples beyond p90
    min_calls: int = 2           # so every run checks joint_train against itself
    min_reps: int = 5            # set-up and pretraining repetitions
    min_eval: int = 3            # evaluation passes


# Share of the measuring time each stage gets while the stages take turns.
SHARES = {"joint": 0.55, "eval": 0.25, "setup": 0.1, "pretrain": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str                 # cli preset: "sin-single" or "mnist12"
    missing_rate: float
    scale: Scale


# `measim gen-data` sizes for sin-single.
SIN = Scale(n_train=2880, n_test=720)
# Why each workload is here, and the measured reasons for img85's size and
# for the shorter pretraining and joint_train calls: perfbench/README.md.
# BENCHMARK.json lists sin80 and img85; sin90 stays runnable by hand, because
# a 3420 s budget for 4 + 22 x (workloads) runs leaves room for two workloads
# at a run length that keeps them steady.
WORKLOADS = {w.name: w for w in (
    Workload("sin90", "sin-single", 0.9, SIN),
    Workload("sin80", "sin-single", 0.8, SIN),
    Workload("img85", "mnist12", 0.85, Scale(n_train=384, n_test=96)),
)}

# A few seconds per workload; checks names and plumbing, not timings.
SMOKE = Scale(n_train=48, n_test=8, pretrain_epochs=1, call_iterations=3, warmup=1,
              min_timed=2, min_calls=2, min_reps=1, min_eval=1)


END_TO_END = {
    "setup_s": "s",
    "pretrain_s_per_epoch": "s",
    "joint_iter_ms_p50": "ms",
    "eval_rows_per_s": "rows/s",
    "top1_rmse": "rmse",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}
# Measured and reported in the report line, not gated: host slowdown bursts
# cover 0-19% of a run's iterations, so p90 swings by up to 1.9x the median
# between runs of the same code.
REPORT_ONLY = {"joint_iter_ms_p90": "ms"}


def _per_layer_units() -> dict[str, str]:
    units = {f"training.{p}_ms": "ms" for p in (*tracer.PHASES, "loop_self")}
    units.update({
        "episodes.rollout_batch.self_ms": "ms",
        "episodes.rollout_batch.steps": "count",
        "episodes.terminal_rewards_batch.self_ms": "ms",
        "episodes.rollout_with_selector.ms": "ms",
        "policy.masked_softmax.calls": "count",
        "policy.masked_softmax.us": "us",
        "policy.sample_actions.us": "us",
        "policy.flatten_explore.us": "us",
        "policy.actor_gradient.self_ms": "ms",
        "policy.critic_update.self_ms": "ms",
        "policy.advantages_for.self_ms": "ms",
        "policy.critic_forwards_per_state": "ratio",
    })
    for role in tracer.ROLES:
        units.update({
            f"nn.forward.{role}.calls": "count",
            f"nn.forward.{role}.us_per_call": "us",
            f"nn.forward.{role}.rows": "count",
            f"nn.forward.{role}.gflop": "gflop-computed",
            f"nn.backward.{role}.calls": "count",
            f"nn.backward.{role}.us_per_call": "us",
        })
    units.update({
        "nn.optimizer_step.calls": "count",
        "nn.optimizer_step.ms": "ms",
        "nn.actor_tape_use_ratio": "ratio",
        "imputer.impute_batch.calls": "count",
        "imputer.impute_batch.rows": "count",
        "imputer.impute_batch.self_ms": "ms",
        "imputer.interpolate_batch.calls": "count",
        "imputer.interpolate_batch.rows": "count",
        "imputer.loss_unsupervised.self_ms": "ms",
        "imputer.loss_unsupervised.kept_ratio": "ratio",
        "imputer.loss_supervised_batch.self_ms": "ms",
        "imputer.adapt_step.self_ms": "ms",
        "rngs.substream.calls": "count",
        "rngs.substream.ms": "ms",
        "masks.mask_dataset.ms": "ms",
        "masks.save_missing_csv.ms": "ms",
        "masks.load_missing_csv.ms": "ms",
        "data.generate.ms": "ms",
    })
    units.update({f"evaluate.eval_policy.{m}.ms": "ms" for m in EVAL_METHODS})
    units.update({"trace.overhead_ms": "ms", "trace.overhead_pct": "%"})
    return units


PER_LAYER = _per_layer_units()
# Traced too, but reported only in the run's report line: on img85 these
# layers do no work, so their times are exactly 0 on every run.
PER_LAYER_EXTRA = {"imputer.interpolate_batch.ms": "ms", "imputer.smoothness_penalty.ms": "ms"}


def joint_config(w: Workload, seed: int, scale: Scale) -> training.JointConfig:
    """The CLI preset for the dataset, at the benchmark's size."""
    return dataclasses.replace(cli.preset_config(w.dataset), missing_rate=w.missing_rate,
                               seed=seed, pretrain_epochs=scale.pretrain_epochs,
                               iterations=scale.call_iterations)


def generate(w: Workload, seed: int, scale: Scale) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) complete data; stroke digits need no download."""
    if w.dataset == "sin-single":
        return data.gen_sinusoid_dataset(n_train=scale.n_train, n_test=scale.n_test,
                                         mode="single", seed=seed)
    images = data.gen_stroke_digits(scale.n_train + scale.n_test, seed=seed)
    complete = np.stack([data.crop_resize_12(im) for im in images])
    return complete[:scale.n_train], complete[scale.n_train:]


# ---------------------------------------------------------------------------
# bookkeeping


class Ops:
    """Attempted and failed operations: pretrain batches, joint iterations,
    eval rows.  Failures come from output checks, never from timings."""

    def __init__(self):
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)

    def attempt(self, kind: str, n: int) -> None:
        self.attempted[kind] += n

    def check(self, ok: bool, kind: str, n: int, what: str) -> None:
        if not ok:
            self.failed[kind] += n
            print(f"check failed ({kind}, {n} ops): {what}", file=sys.stderr)

    def check_all(self, ok: bool, what: str) -> None:
        """A one-off check (checkpoint reload, run digest): its failure fails
        every operation attempted so far, so it shows in the ratio however
        many operations the run made."""
        if not ok:
            for kind, n in self.attempted.items():
                self.failed[kind] = n
            print(f"check failed (every op): {what}", file=sys.stderr)

    def totals(self) -> tuple[int, int]:
        attempted = sum(self.attempted.values())
        failed = min(attempted, sum(self.failed.values()))
        return attempted, failed


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def program_key(cfg: training.JointConfig, scale: Scale) -> str:
    """Identifies program, config and numeric stack: equal keys, equal digests."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "measim", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    h.update(training.config_to_text(cfg).encode())
    h.update(repr(scale).encode())
    h.update(np.__version__.encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# stages


def setup_once(w, seed, scale, cfg, workdir, tr):
    """gen-data, then the CSV round trip the CLI goes through, then models."""
    with tr.span("data.generate"):
        train, test = generate(w, seed, scale)
    spec = masks.mcar_spec(train.shape[1], w.missing_rate)
    train_ds = masks.mask_dataset(train, spec, rngs.substream(seed, rngs.DATA_MASK, 0))
    test_ds = masks.mask_dataset(test, spec, rngs.substream(seed, rngs.DATA_MASK, 1))
    train_path = os.path.join(workdir, "train.csv")
    test_path = os.path.join(workdir, "test.csv")
    masks.save_missing_csv(train_ds, train_path, include_ground_truth=False)
    masks.save_missing_csv(test_ds, test_path, include_ground_truth=True)
    train_ds = masks.load_missing_csv(train_path).without_ground_truth()
    test_ds = masks.load_missing_csv(test_path)
    d = train_ds.dim
    imputer.build_imputer(d, cfg.variant, noise_dim=cfg.noise_dim, hidden=cfg.imputer_hidden,
                          rng=rngs.substream(seed, rngs.INIT_IMPUTER))
    policy.build_policy(d, actor_hidden=cfg.actor_hidden, critic_hidden=cfg.critic_hidden,
                        dropout=cfg.dropout, critic_lr=cfg.critic_lr,
                        rng=rngs.substream(seed, rngs.INIT_POLICY))
    return train_ds, test_ds


def check_joint_call(call_dir, record, cfg, ops) -> tuple:
    """Output checks on one joint_train call; returns its digest."""
    n = cfg.iterations
    run_csv = os.path.join(call_dir, "run.csv")
    stats, meta = training.load_run_csv(run_csv)
    ops.check(len(stats) == n, "joint", n, f"run.csv has {len(stats)} rows, expected {n}")
    bad = sum(1 for s in stats
              if not all(math.isfinite(v) for v in (s.reward_e1, s.reward_e2, s.critic_loss,
                                                    s.imputer_unsup, s.imputer_sup)))
    ops.check(bad == 0, "joint", bad, "non-finite run.csv values")
    pol = policy.load_policy(os.path.join(call_dir, "actor.ckpt"),
                             os.path.join(call_dir, "critic.ckpt"))
    imp = imputer.load_imputer(os.path.join(call_dir, "imputer.ckpt"))
    reloaded = {"actor": training.params_checksum(pol.actor),
                "critic": training.params_checksum(pol.critic),
                "imputer": training.params_checksum(imp.net)}
    ops.check_all(reloaded == record.checksums == meta.get("checksums"),
                  "checkpoints do not reload to the run record's checksums")
    return sha256_file(run_csv), tuple(sorted(record.checksums.items()))


def check_eval(report, first, ops) -> None:
    for row in report.rows:
        ok = (math.isfinite(row.top1_rmse) and math.isfinite(row.top3_rmse)
              and row.top1_rmse >= row.top3_rmse)
        ops.check(ok, "eval", row.n_examples,
                  f"{row.method} seed {row.seed}: top1 {row.top1_rmse} top3 {row.top3_rmse}")
    if first is not None:
        key = [(r.method, r.seed, r.top1_rmse, r.top3_rmse) for r in report.rows]
        ref = [(r.method, r.seed, r.top1_rmse, r.top3_rmse) for r in first.rows]
        ops.check(key == ref, "eval", sum(r.n_examples for r in report.rows),
                  "evaluation pass differs from the first")


def check_policy_outputs(w, seed, pol, imp, test_ds, ops) -> None:
    """Greedy episodes observe exactly `horizon` true coordinates per row, and
    imputations keep observed coordinates bitwise."""
    truth = test_ds.ground_truth
    n, d = truth.shape
    horizon = episodes.horizon_for(d, w.missing_rate)
    roll = episodes.rollout_batch(pol, truth, horizon, "greedy",
                                  rngs.substream(seed, rngs.EVAL, CHECK_STREAM, 0))
    tv, tm = roll.terminal_values, roll.terminal_masks
    obs = tm == 1.0
    ok = (((tm == 0.0) | obs).all(axis=1) & (obs.sum(axis=1) == horizon)
          & np.where(obs, bits(tv) == bits(truth), tv == 0.0).all(axis=1))
    ops.check(bool(ok.all()), "eval", int((~ok).sum()),
              "greedy terminal states do not hold exactly horizon true observations")
    rng = rngs.substream(seed, rngs.EVAL, CHECK_STREAM, 1)
    for values, mask in ((test_ds.values, test_ds.masks), (tv, tm)):
        out = imputer.impute_batch(imp, values, mask, rng)
        kept = np.where(mask == 1.0, bits(out) == bits(values), True).all(axis=1)
        ops.check(bool(kept.all()), "eval", int((~kept).sum()),
                  "impute_batch changed observed coordinates")


def check_digest(key, workload, seed, digest, ops) -> None:
    """Same program, workload and seed give one digest across every run."""
    folder = os.path.join(STATE_DIR, "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{key}-{workload}-seed{seed}.json")
    record = {"run_csv_sha256": digest[0], "checksums": dict(digest[1])}
    if os.path.exists(path):
        with open(path) as f:
            ops.check_all(json.load(f) == record,
                          f"run digest differs from an earlier run ({path})")
        return
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(record, f)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# one run


class Run:
    """One workload run.  Each stage method does one repetition of its stage,
    records its timing and checks its outputs against the first repetition."""

    def __init__(self, w: Workload, seed: int, scale: Scale, tr, iters, workdir):
        self.w, self.seed, self.scale, self.tr, self.iters = w, seed, scale, tr, iters
        self.workdir = workdir
        self.cfg = joint_config(w, seed, scale)
        self.ops = Ops()
        self.setup_s: list[float] = []
        self.pretrain_s_per_epoch: list[float] = []
        self.iter_ms: list[float] = []       # after warm-up
        self.rows_per_s: list[float] = []
        self.calls = 0
        self.train_ds = self.test_ds = self.pre = self.pre_sum = None
        self.pol = self.imp = self.digest = self.first_eval = None

    def setup(self) -> None:
        start = time.perf_counter()
        train_ds, test_ds = setup_once(self.w, self.seed, self.scale, self.cfg,
                                       self.workdir, self.tr)
        self.setup_s.append(time.perf_counter() - start)
        if self.train_ds is None:
            self.train_ds, self.test_ds = train_ds, test_ds

    def pretrain(self) -> None:
        start = time.perf_counter()
        with self.tr.span("training.pretrain_imputer"):
            model, curve = training.pretrain_imputer(self.cfg, self.train_ds)
        self.pretrain_s_per_epoch.append((time.perf_counter() - start) / len(curve))
        batches = len(curve) * -(-len(self.train_ds) // self.cfg.pretrain_batch)
        self.ops.attempt("pretrain", batches)
        checksum = training.params_checksum(model.net)
        self.ops.check(self.pre_sum in (None, checksum) and all(map(math.isfinite, curve)),
                       "pretrain", batches, "pretraining is not repeatable")
        if self.pre is None:
            self.pre, self.pre_sum = model, checksum

    def joint(self) -> list[float]:
        """One joint_train call from the pretrained imputer; returns its
        iteration times in ms."""
        n = self.cfg.iterations
        call_dir = os.path.join(self.workdir, f"call{self.calls}")
        with self.tr.span("training.joint_train"):
            pol, imp, record = training.joint_train(self.cfg, self.train_ds, imputer=self.pre,
                                                    out_dir=call_dir)
        its = self.iters.take_ms()
        self.ops.attempt("joint", n)
        self.ops.check(len(its) == n, "joint", n, f"{len(its)} iterations stamped, expected {n}")
        digest = check_joint_call(call_dir, record, self.cfg, self.ops)
        shutil.rmtree(call_dir)
        if self.digest is None:
            self.pol, self.imp, self.digest = pol, imp, digest
            its = its[self.scale.warmup:]
        self.ops.check(digest == self.digest, "joint", n,
                       "joint_train is not repeatable within the run")
        self.calls += 1
        return its

    def evaluate(self) -> None:
        """`measim sweep` over the three methods at the workload's rate."""
        subjects = {"proposed": self.pol, "uninform": episodes.UniformSelector(),
                    "explicit": episodes.ExplicitSelector(self.imp, k=EXPLICIT_K)}
        report = evaluate.EvalReport()
        start = time.perf_counter()
        for method in EVAL_METHODS:
            with self.tr.span(f"evaluate.eval_policy.{method}"):
                report.extend(evaluate.sweep_missing_rates(
                    subjects[method], self.imp, self.test_ds, [self.w.missing_rate], k=EVAL_K,
                    n_seeds=EVAL_SEEDS, seed=self.seed, method=method,
                    trained_rate=self.cfg.missing_rate))
        wall = time.perf_counter() - start
        rows = sum(r.n_examples for r in report.rows)
        self.rows_per_s.append(rows / wall)
        self.ops.attempt("eval", rows)
        check_eval(report, self.first_eval, self.ops)
        if self.first_eval is None:
            self.first_eval = report

    def first_pass(self) -> None:
        self.setup()
        self.pretrain()
        self.iter_ms.extend(self.joint())
        self.evaluate()

    def measure(self, seconds: float) -> None:
        """Round-robin the stages by time share for `seconds`, so every
        metric samples the whole run rather than one stretch of it (the
        host's speed drifts over seconds), then top up to the minimums."""
        sc = self.scale
        stages = {"joint": lambda: self.iter_ms.extend(self.joint()),
                  "setup": self.setup, "pretrain": self.pretrain, "eval": self.evaluate}
        short = {
            "joint": lambda: len(self.iter_ms) < sc.min_timed or self.calls < sc.min_calls,
            "setup": lambda: len(self.setup_s) < sc.min_reps,
            "pretrain": lambda: len(self.pretrain_s_per_epoch) < sc.min_reps,
            "eval": lambda: len(self.rows_per_s) < sc.min_eval,
        }
        spent = dict.fromkeys(stages, 0.0)
        start = time.perf_counter()
        while True:
            pool = [s for s in stages if short[s]()]
            if time.perf_counter() - start < seconds:
                pool = list(stages)
            if not pool:
                break
            stage = min(pool, key=lambda s: spent[s] / SHARES[s])
            t = time.perf_counter()
            stages[stage]()
            spent[stage] += time.perf_counter() - t

    def measure_overhead(self, seconds: float) -> tuple[float, float]:
        """Untraced and traced joint calls alternate for `seconds`; returns
        the (traced, untraced) iteration p50."""
        samples = {False: [], True: []}
        start = time.perf_counter()
        while (len(samples[True]) == 0 or len(samples[False]) > len(samples[True])
               or time.perf_counter() - start < seconds):
            traced = len(samples[False]) > len(samples[True])
            probe = tracer.Tracer()
            if traced:
                probe.install()
                self.iters.tracer = probe
            try:
                samples[traced].extend(self.joint())
            finally:
                if traced:
                    probe.uninstall()
                    self.iters.tracer = None
        return statistics.median(samples[True]), statistics.median(samples[False])

    def top1_rmse(self) -> float:
        rows = [r for r in self.first_eval.rows if r.method == "proposed"]
        return evaluate.EvalReport(rows).mean_top1()


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 scale: Scale | None = None) -> tuple[dict, dict]:
    """Returns (result, report).  The report holds everything the result line
    cannot: environment, digest, exact counts apart from timings."""
    scale = scale or w.scale
    workdir = os.path.join(STATE_DIR, "work", f"{w.name}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    iters = tracer.IterationClock()
    iters.install()
    tr = tracer.Tracer() if trace else tracer.NullTracer()
    r = Run(w, seed, scale, tr, iters, workdir)
    try:
        if trace:
            tr.install()
            iters.tracer = tr
            r.first_pass()
            tr.uninstall()
            iters.tracer = None
            overhead = r.measure_overhead(seconds)
        else:
            r.first_pass()
            r.measure(seconds)
        check_policy_outputs(w, seed, r.pol, r.imp, r.test_ds, r.ops)
        check_digest(program_key(r.cfg, scale), w.name, seed, r.digest, r.ops)
    finally:
        if trace:
            tr.uninstall()
        iters.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = r.ops.totals()
    report = {
        "workload": w.name, "seed": seed, "trace": int(trace),
        "environment": environment(),
        "digest": {"run_csv_sha256": r.digest[0], "checksums": dict(r.digest[1])},
        "ops": {"attempted": dict(r.ops.attempted), "failed": dict(r.ops.failed)},
        "joint_calls": r.calls,
    }
    if trace:
        counts, timings = per_layer_metrics(tr, scale.warmup, overhead)
        report["counts"] = counts
        report["timings"] = timings
        metrics = {**counts, **timings}
        names = PER_LAYER
        spans_dir = os.path.join(STATE_DIR, "traces")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{w.name}-seed{seed}.spans.jsonl")
        tr.write_spans(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "setup_s": IMPORT_S + statistics.median(r.setup_s),
            "pretrain_s_per_epoch": statistics.median(r.pretrain_s_per_epoch),
            "joint_iter_ms_p50": float(np.percentile(r.iter_ms, 50)),
            "joint_iter_ms_p90": float(np.percentile(r.iter_ms, 90)),
            "eval_rows_per_s": statistics.median(r.rows_per_s),
            "top1_rmse": r.top1_rmse(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_ratio": 1.0 - failed / attempted,
        }
        names = END_TO_END
        report["metrics"] = metrics
        report["samples"] = {"import_s": IMPORT_S, "setup_s": r.setup_s,
                             "pretrain_s_per_epoch": r.pretrain_s_per_epoch,
                             "joint_iter_ms": r.iter_ms, "eval_rows_per_s": r.rows_per_s}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    return result, report


def per_layer_metrics(tr, warmup, overhead) -> tuple[dict, dict]:
    """(exact counts, timings) from the traced pass.  Counts and ms are totals
    over the pass; us values are per call; training.* are per joint iteration."""
    spans = tr.span_totals()
    c = tr.counts

    def per_call_us(name):
        calls = spans[name]["calls"]
        return 1e3 * spans[name]["ms"] / calls if calls else 0.0

    counts = {
        "episodes.rollout_batch.steps": c["episodes.rollout_batch.steps"],
        "policy.masked_softmax.calls": spans["policy.masked_softmax"]["calls"],
        "policy.critic_forwards_per_state": c["policy.critic_rows_e1"] / c["policy.e1_states"],
        "nn.optimizer_step.calls": spans["nn.optimizer_step"]["calls"],
        "nn.actor_tape_use_ratio": (spans["nn.backward.actor"]["calls"]
                                    / c["nn.forward.actor.train_calls"]),
        "imputer.impute_batch.calls": spans["imputer.impute_batch"]["calls"],
        "imputer.impute_batch.rows": c["imputer.impute_batch.rows"],
        "imputer.interpolate_batch.calls": spans["imputer.interpolate_batch"]["calls"],
        "imputer.interpolate_batch.rows": c["imputer.interpolate_batch.rows"],
        "imputer.loss_unsupervised.kept_ratio": (c["imputer.loss_unsupervised.rows_kept"]
                                                 / c["imputer.loss_unsupervised.rows_in"]),
        "rngs.substream.calls": spans["rngs.substream"]["calls"],
    }
    phases, _ = tr.phase_ms(warmup)
    timings = {f"training.{p}_ms": v for p, v in phases.items()}
    for name in ("episodes.rollout_batch", "episodes.terminal_rewards_batch",
                 "policy.actor_gradient", "policy.critic_update", "policy.advantages_for",
                 "imputer.impute_batch", "imputer.loss_unsupervised",
                 "imputer.loss_supervised_batch", "imputer.adapt_step"):
        timings[f"{name}.self_ms"] = spans[name]["self_ms"]
    for name in ("episodes.rollout_with_selector", "nn.optimizer_step",
                 "imputer.interpolate_batch", "imputer.smoothness_penalty", "rngs.substream",
                 "masks.mask_dataset", "masks.save_missing_csv", "masks.load_missing_csv",
                 "data.generate", *(f"evaluate.eval_policy.{m}" for m in EVAL_METHODS)):
        timings[f"{name}.ms"] = spans[name]["ms"]
    for name in ("masked_softmax", "sample_actions", "flatten_explore"):
        timings[f"policy.{name}.us"] = per_call_us(f"policy.{name}")
    for role in tracer.ROLES:
        fwd, bwd = f"nn.forward.{role}", f"nn.backward.{role}"
        counts[f"{fwd}.calls"] = spans[fwd]["calls"]
        counts[f"{fwd}.rows"] = c[f"{fwd}.rows"]
        counts[f"{fwd}.gflop"] = c[f"{fwd}.flop"] / 1e9
        counts[f"{bwd}.calls"] = spans[bwd]["calls"]
        timings[f"{fwd}.us_per_call"] = per_call_us(fwd)
        timings[f"{bwd}.us_per_call"] = per_call_us(bwd)
    traced_p50, untraced_p50 = overhead
    timings["trace.overhead_ms"] = traced_p50 - untraced_p50
    timings["trace.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
    return counts, timings


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="joint-loop measuring time (and tracing-overhead time with --trace 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace))
    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    path = os.path.join(STATE_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
