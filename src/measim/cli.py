"""Command-line surface: data generation, training, evaluation, sweeps.

Exit codes: 0 success, 1 usage error (bad flags, missing input files),
2 runtime failure (training/evaluation raised).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import helper, nn, rngs
from .data import MNIST_STEMS, find_mnist_file, gen_sinusoid_dataset, mnist12_dataset
from .episodes import ExplicitSelector, UniformSelector, horizon_for
from .evaluate import EvalReport, eval_policy, sweep_missing_rates, write_sweep_csv
from .imputer import any_row_observes_two, load_imputer, save_imputer
from .masks import load_missing_csv, mask_dataset, save_missing_csv
from .policy import load_policy
from .training import (
    JointConfig,
    joint_train,
    load_config,
    load_run_csv,
    params_checksum,
    pretrain_imputer,
    write_config,
)

DATASETS = ("sin-single", "sin-double", "mnist12")
ABLATION_FLAGS = ("full", "no-meta", "no-adaptation")
METHODS = ("proposed", "uninform", "explicit")

GRAD_CHECK_THRESHOLD = 1e-4


class CliError(Exception):
    """Usage-level failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _rate(text: str) -> float:
    """argparse type: a missing rate in [0, 1)."""
    try:
        r = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= r < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text}")
    return r


def _rates(text: str) -> list[float]:
    """argparse type: a nonempty comma-separated list of missing rates."""
    rates = [_rate(r) for r in text.split(",") if r.strip()]
    if not rates:
        raise argparse.ArgumentTypeError("no rates given")
    return rates


def _methods(text: str) -> list[str]:
    """argparse type: a nonempty comma-separated list drawn from METHODS."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {m!r}; choose from {METHODS}")
    if not methods:
        raise argparse.ArgumentTypeError("no methods given")
    return methods


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return n
    return parse


_positive_int = _int_at_least(1)   # argparse type: a count, >= 1
_seed = _int_at_least(0)           # argparse type: a seed, >= 0


def check_explicit_k(methods, k: int) -> None:
    """The variance baseline needs two draws to form a variance."""
    if "explicit" in methods and k < 2:
        raise CliError(f"--explicit-k must be >= 2 for the explicit baseline, got {k}")


def preset_config(dataset: str) -> JointConfig:
    if dataset not in DATASETS:
        raise CliError(f"unknown dataset {dataset!r}; choose from {DATASETS}")
    if dataset == "mnist12":
        return JointConfig(variant="image", smoothness_weight=0.0, missing_rate=0.85)
    return JointConfig(variant="sinusoid")


def complete_data(dataset: str, n_train: int | None = None, n_test: int | None = None,
                  seed: int = 0, mnist_dir=None) -> tuple[np.ndarray, np.ndarray]:
    """The complete train and test arrays of a dataset.  Sinusoids are
    generated from seed, 2880/720 rows by default; mnist12 reads the IDX files
    in mnist_dir or $MEASIM_MNIST_DIR, at most 10,000/2,000 images by default
    and exactly the count asked for otherwise."""
    if dataset not in DATASETS:
        raise CliError(f"unknown dataset {dataset!r}; choose from {DATASETS}")
    if dataset.startswith("sin-"):
        return gen_sinusoid_dataset(n_train=2880 if n_train is None else n_train,
                                    n_test=720 if n_test is None else n_test,
                                    mode=dataset[len("sin-"):], seed=seed)
    mnist_dir = mnist_dir or os.environ.get("MEASIM_MNIST_DIR")
    if not mnist_dir:
        raise CliError("mnist12 needs --mnist-dir or MEASIM_MNIST_DIR")
    try:
        train_idx, test_idx = [find_mnist_file(mnist_dir, s) for s in MNIST_STEMS]
    except FileNotFoundError as e:
        raise CliError(str(e)) from None
    out = []
    for path, n, default in ((train_idx, n_train, 10_000), (test_idx, n_test, 2_000)):
        images = mnist12_dataset(path, n_limit=default if n is None else n)
        if n is not None and len(images) < n:
            raise CliError(f"{path} holds {len(images)} images, fewer than the {n} asked for")
        out.append(images)
    return tuple(out)


def build_config(args) -> JointConfig:
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise CliError(f"missing file: {args.config}")
        try:
            cfg = load_config(args.config)
        except ValueError as e:
            raise CliError(f"bad config {args.config}: {e}") from e
    elif getattr(args, "dataset", None):
        cfg = preset_config(args.dataset)
    else:
        cfg = JointConfig()
    overrides = {}
    if getattr(args, "missing_rate", None) is not None:
        overrides["missing_rate"] = args.missing_rate
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    ablation = getattr(args, "ablation", None)
    if ablation is not None:
        overrides["ablation"] = ablation.replace("-", "_")
        if ablation != "full":
            overrides["beta_prime"] = 0.0
    try:
        return dataclasses.replace(cfg, **overrides)
    except ValueError as e:
        raise CliError(str(e)) from e


def load_dataset_csv(path):
    if not os.path.exists(path):
        raise CliError(f"missing file: {path}")
    return load_missing_csv(path)


def require_same_width(*named) -> None:
    """named: (what, path, width) triples for models and data loaded
    together; a pair whose widths differ is a usage error naming both."""
    (what_a, path_a, width_a), *rest = named
    for what_b, path_b, width_b in rest:
        if width_b != width_a:
            raise CliError(f"dimension mismatch: {what_a} {path_a} is {width_a} "
                           f"coordinates wide, {what_b} {path_b} is {width_b}")


def require_matching_rate(cfg: JointConfig, ds, path) -> None:
    """Every row of the training data observes as many coordinates as an
    episode at cfg.missing_rate measures; otherwise a usage error naming
    both rates."""
    horizon = horizon_for(ds.dim, cfg.missing_rate)
    counts = np.unique(ds.masks.sum(axis=1)).astype(int).tolist()
    if len(ds) and counts != [horizon]:
        rates = "/".join(f"{1.0 - c / ds.dim:g}" for c in counts)
        raise CliError(f"missing-rate mismatch: {path} has missing rate {rates}, "
                       f"the config's is {cfg.missing_rate:g}; pass --missing-rate")


def require_pretrainable(cfg: JointConfig, ds, path) -> None:
    """The self-masking loss needs a row observing two coordinates."""
    if cfg.pretrain_epochs > 0 and not any_row_observes_two(ds.masks):
        raise CliError(f"cannot pretrain on {path}: no row observes two coordinates")


def require_adaptable(cfg: JointConfig, ds, path) -> None:
    """So does the joint loop's imputer step, and the fine-tune after it."""
    if cfg.adapts_imputer() and not any_row_observes_two(ds.masks):
        raise CliError(f"cannot adapt the imputer on {path}: no row observes two coordinates")


def require_run_files(run_dir) -> dict:
    paths = {
        "config": os.path.join(run_dir, "config.txt"),
        "run": os.path.join(run_dir, "run.csv"),
        "actor": os.path.join(run_dir, "actor.ckpt"),
        "critic": os.path.join(run_dir, "critic.ckpt"),
        "imputer": os.path.join(run_dir, "imputer.ckpt"),
    }
    for name, path in paths.items():
        if not os.path.exists(path):
            kind = "file" if name in ("config", "run") else "checkpoint"
            raise CliError(f"missing {kind}: {path}")
    return paths


def require_recorded_checksums(paths, policy, imputer) -> None:
    """The run's checkpoints have the parameter checksums its run.csv
    records; a swapped checkpoint is a usage error naming the file."""
    _, meta = load_run_csv(paths["run"])
    recorded = meta.get("checksums", {})
    for name, net in (("actor", policy.actor), ("critic", policy.critic),
                      ("imputer", imputer.net)):
        if params_checksum(net) != recorded.get(name):
            raise CliError(f"checkpoint {paths[name]} does not match the {name} checksum "
                           f"recorded in {paths['run']}")


def _load_run(args):
    """The --run directory's config, policy and imputer, and the --data test
    set, checked to share one width, to be the checkpoints run.csv records
    and to carry ground truth."""
    paths = require_run_files(args.run)
    cfg = load_config(paths["config"])
    policy = load_policy(paths["actor"], paths["critic"])
    imputer = load_imputer(paths["imputer"])
    ds = load_dataset_csv(args.data)
    require_same_width(("policy", paths["actor"], policy.d),
                       ("imputer", paths["imputer"], imputer.d),
                       ("data", args.data, ds.dim))
    require_recorded_checksums(paths, policy, imputer)
    if ds.ground_truth is None:
        raise CliError(f"test data has no ground-truth columns: {args.data}")
    return cfg, policy, imputer, ds


def _print_report(report: EvalReport) -> None:
    for r in report.rows:
        print(f"{r.method} rate={r.eval_rate:g} seed={r.seed} "
              f"top1={r.top1_rmse:.6f} top3={r.top3_rmse:.6f} "
              f"n={r.n_examples} ({r.wall_time:.1f}s)")
    print(f"{report.rows[0].method} mean: top1={report.mean_top1():.6f} "
          f"top3={report.mean_topk():.6f}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    train, test = complete_data(args.dataset, args.n_train, args.n_test, args.seed,
                                args.mnist_dir)
    n_observed = horizon_for(train.shape[1], args.missing_rate)
    train_ds = mask_dataset(train, n_observed, rngs.substream(args.seed, rngs.DATA_MASK, 0))
    test_ds = mask_dataset(test, n_observed, rngs.substream(args.seed, rngs.DATA_MASK, 1))

    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "train.csv")
    test_path = os.path.join(args.out, "test.csv")
    # the training file carries no ground-truth columns, by construction
    save_missing_csv(train_ds, train_path, include_ground_truth=False)
    save_missing_csv(test_ds, test_path, include_ground_truth=True)
    print(f"wrote {len(train_ds)} train rows to {train_path}")
    print(f"wrote {len(test_ds)} test rows (with ground truth) to {test_path}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = build_config(args)
    ds = load_dataset_csv(args.data).without_ground_truth()
    require_pretrainable(cfg, ds, args.data)
    model, curve = pretrain_imputer(cfg, ds)
    os.makedirs(args.out, exist_ok=True)
    write_config(cfg, os.path.join(args.out, "config.txt"))
    ckpt = os.path.join(args.out, "imputer.ckpt")
    save_imputer(model, ckpt)
    with open(os.path.join(args.out, "pretrain.csv"), "w") as f:
        f.write("# measim-pretrain v1\n")
        f.write("epoch,loss\n")
        for epoch, loss in enumerate(curve):
            f.write(f"{epoch},{repr(float(loss))}\n")
    if curve:
        print(f"pretrained {len(curve)} epochs, final loss {curve[-1]:.6f}")
    else:
        print("pretrained 0 epochs (untrained checkpoint)")
    print(f"wrote {ckpt}")
    return 0


def cmd_train_joint(args) -> int:
    cfg = build_config(args)
    ds = load_dataset_csv(args.data).without_ground_truth()
    imputer = None
    if args.imputer:
        if not os.path.exists(args.imputer):
            raise CliError(f"missing checkpoint: {args.imputer}")
        imputer = load_imputer(args.imputer)
        require_same_width(("imputer", args.imputer, imputer.d),
                           ("data", args.data, ds.dim))
    else:
        require_pretrainable(cfg, ds, args.data)
    require_matching_rate(cfg, ds, args.data)
    require_adaptable(cfg, ds, args.data)
    policy, imputer, record = joint_train(cfg, ds, imputer=imputer, out_dir=args.out,
                                          trace_episodes=args.trace_episodes)
    if record.stats:
        print(f"{len(record.stats)} iterations"
              f"{' (early stop)' if record.stopped_early else ''}, "
              f"final reward {record.stats[-1].reward_e1:.6f}")
    print(f"wrote {os.path.join(args.out, 'run.csv')}")
    return 0


def cmd_eval(args) -> int:
    cfg, policy, imputer, ds = _load_run(args)
    rate = args.missing_rate if args.missing_rate is not None else cfg.missing_rate
    report = eval_policy(policy, imputer, ds, rate, k=args.k, n_seeds=args.n_seeds,
                         seed=args.seed, eval_mode=args.mode,
                         trained_rate=cfg.missing_rate)
    _print_report(report)
    out = args.out or os.path.join(args.run, "eval.csv")
    write_sweep_csv(report, out)
    print(f"wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    check_explicit_k(args.methods, args.explicit_k)
    cfg, policy, imputer, ds = _load_run(args)
    subjects = {
        "proposed": lambda: policy,
        "uninform": UniformSelector,
        "explicit": lambda: ExplicitSelector(imputer, k=args.explicit_k),
    }
    report = EvalReport()
    for m in args.methods:
        report.extend(sweep_missing_rates(subjects[m](), imputer, ds, args.rates,
                                          k=args.k, n_seeds=args.n_seeds,
                                          seed=args.seed, method=m,
                                          trained_rate=cfg.missing_rate))
    out = args.out or os.path.join(args.run, "sweep.csv")
    write_sweep_csv(report, out)
    for r in report.rows:
        print(f"{r.method} rate={r.eval_rate:g} seed={r.seed} "
              f"top1={r.top1_rmse:.6f} top3={r.top3_rmse:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_baseline(args) -> int:
    check_explicit_k([args.method], args.explicit_k)
    if not os.path.exists(args.imputer):
        raise CliError(f"missing checkpoint: {args.imputer}")
    imputer = load_imputer(args.imputer)
    ds = load_dataset_csv(args.data)
    require_same_width(("imputer", args.imputer, imputer.d), ("data", args.data, ds.dim))
    if ds.ground_truth is None:
        raise CliError(f"test data has no ground-truth columns: {args.data}")
    if args.method == "uninform":
        subject = UniformSelector()
    else:
        subject = ExplicitSelector(imputer, k=args.explicit_k)
    report = eval_policy(subject, imputer, ds, args.missing_rate, k=args.k,
                         n_seeds=args.n_seeds, seed=args.seed, method=args.method)
    _print_report(report)
    if args.out:
        write_sweep_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    shapes = [[288, 64, 64, 144], [288, 64, 64, 144]]
    while len(shapes) < args.nets:
        depth = int(rng.integers(1, 3))
        dims = [int(rng.integers(4, 33))]
        dims += [int(rng.integers(8, 65)) for _ in range(depth)]
        dims.append(int(rng.integers(2, 25)))
        shapes.append(dims)
    shapes = shapes[:args.nets]

    worst = 0.0
    for i, dims in enumerate(shapes):
        activation = "tanh" if i % 2 == 0 else "relu"
        net = nn.DenseNet(dims, hidden_activation=activation, rng=rng)
        x = rng.normal(size=dims[0])
        target = rng.normal(size=dims[-1])

        def loss(out, target=target):
            diff = out - target
            return 0.5 * float(diff @ diff), diff

        err = nn.grad_check(net, x, loss)
        worst = max(worst, err)
        print(f"net {i}: dims={dims} activation={activation} max_rel_err={err:.3e}")
    print(f"max relative error: {worst:.3e}")
    if worst < GRAD_CHECK_THRESHOLD:
        print("gradient check passed")
        return 0
    print(f"gradient check FAILED (threshold {GRAD_CHECK_THRESHOLD:g})")
    return 2


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p, with_ablation=False):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--dataset", choices=DATASETS,
                   help="dataset preset when no --config is given")
    p.add_argument("--missing-rate", type=_rate, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    if with_ablation:
        p.add_argument("--ablation", choices=ABLATION_FLAGS, default=None)


def _add_eval_flags(p):
    p.add_argument("--k", type=_positive_int, default=3, help="imputation draws per example")
    p.add_argument("--n-seeds", type=_positive_int, default=3)
    p.add_argument("--seed", type=_seed, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="measim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a masked dataset directory")
    p.add_argument("--dataset", choices=DATASETS, required=True)
    p.add_argument("--missing-rate", type=_rate, default=0.9)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=_positive_int, default=None)
    p.add_argument("--n-test", type=_positive_int, default=None)
    p.add_argument("--mnist-dir", default=None,
                   help="directory holding the raw IDX image files")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain an imputer on masked data")
    p.add_argument("--data", required=True, help="train.csv from gen-data")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-joint", help="joint policy + imputer training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--imputer", default=None, help="pretrained imputer checkpoint")
    p.add_argument("--trace-episodes", action="store_true")
    _add_config_flags(p, with_ablation=True)
    p.set_defaults(func=cmd_train_joint)

    p = sub.add_parser("eval", help="evaluate a trained run on true data")
    p.add_argument("--run", required=True, help="run directory from train-joint")
    p.add_argument("--data", required=True, help="test.csv with ground truth")
    p.add_argument("--missing-rate", type=_rate, default=None)
    p.add_argument("--mode", choices=("greedy", "stochastic"), default="greedy")
    p.add_argument("--out", default=None)
    _add_eval_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="cross-missing-rate comparison table")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rates", type=_rates, default="0.75,0.8,0.85,0.9,0.95")
    p.add_argument("--methods", type=_methods, default=",".join(METHODS))
    p.add_argument("--out", default=None)
    _add_eval_flags(p)
    p.add_argument("--explicit-k", type=int, default=5,
                   help="draws per step for the variance baseline")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="evaluate a baseline measurement order")
    p.add_argument("--method", choices=("uninform", "explicit"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--imputer", required=True)
    p.add_argument("--missing-rate", type=_rate, default=0.9)
    p.add_argument("--out", default=None)
    _add_eval_flags(p)
    p.add_argument("--explicit-k", type=int, default=5,
                   help="draws per step for the variance baseline")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("grad-check", help="finite-difference check of backprop")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--nets", type=_positive_int, default=10)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    helper.pin_blas()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # anything the work itself raised
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
