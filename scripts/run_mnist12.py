#!/usr/bin/env python3
"""Train and evaluate the measurement policy on 12x12 downsampled MNIST.

Needs the raw IDX files (train-images-idx3-ubyte, t10k-images-idx3-ubyte)
in --mnist-dir or $MEASIM_MNIST_DIR.  Trains once at --train-rate, then
sweeps the frozen policy and the baselines across --eval-rates to map how
placement quality degrades as fewer measurements are allowed.  Artifacts:

    <out>/train-<rate>/     config.txt, run.csv, actor/critic/imputer.ckpt
    <out>/sweep.csv         method,trained_rate,eval_rate,top1_rmse,top3_rmse,n,seed

Full run (10k train images, about an hour):
    python3 scripts/run_mnist12.py --mnist-dir data/mnist --out runs/mnist12

Add the ablation comparison (two extra training runs):
    python3 scripts/run_mnist12.py --mnist-dir data/mnist --ablations
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from measim import rngs
from measim.data import MNIST_STEMS, find_mnist_file, mnist12_dataset
from measim.episodes import ExplicitSelector, UniformSelector
from measim.evaluate import EvalReport, eval_policy, sweep_missing_rates, write_sweep_csv
from measim.masks import mask_dataset, mcar_spec
from measim.training import JointConfig, pretrain_imputer, run_training

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mnist-dir", default=os.environ.get("MEASIM_MNIST_DIR"),
                   help="directory holding the raw IDX image files")
    p.add_argument("--train-rate", type=float, default=0.85)
    p.add_argument("--eval-rates", default="0.75,0.8,0.85,0.9,0.95")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=10_000)
    p.add_argument("--n-test", type=int, default=2_000)
    p.add_argument("--iterations", type=int, default=None,
                   help="override the joint-loop iteration budget")
    p.add_argument("--explicit-k", type=int, default=5)
    p.add_argument("--n-seeds", type=int, default=3)
    p.add_argument("--ablations", action="store_true",
                   help="also train the two reduced variants at --train-rate")
    p.add_argument("--out", default="runs/mnist12")
    return p.parse_args(argv)


def base_config(args, **overrides) -> JointConfig:
    fields = dict(missing_rate=args.train_rate, seed=args.seed,
                  variant="image", smoothness_weight=0.0)
    if args.iterations is not None:
        fields["iterations"] = args.iterations
    fields.update(overrides)
    return JointConfig(**fields)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.mnist_dir:
        print("error: --mnist-dir or MEASIM_MNIST_DIR is required",
              file=sys.stderr)
        return 1
    try:
        train_path, test_path = [find_mnist_file(args.mnist_dir, s) for s in MNIST_STEMS]
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    train = mnist12_dataset(train_path, n_limit=args.n_train)
    test = mnist12_dataset(test_path, n_limit=args.n_test)
    rates = [float(r) for r in args.eval_rates.split(",") if r]

    cfg = base_config(args)
    ds = mask_dataset(train, mcar_spec(train.shape[1], cfg.missing_rate),
                      rngs.substream(cfg.seed, rngs.DATA_MASK, 0))
    pre, curve = pretrain_imputer(cfg, ds)
    print(f"pretrained {len(curve)} epochs, loss {curve[-1]:.5f}")

    run_dir = os.path.join(args.out, f"train-{cfg.missing_rate:g}")
    policy, imputer, record = run_training(cfg, ds, out_dir=run_dir,
                                           imputer=pre)
    print(f"{len(record.stats)} iterations, "
          f"final reward {record.stats[-1].reward_e1:.5f} -> {run_dir}")

    report = EvalReport()
    report.extend(sweep_missing_rates(policy, imputer, test, rates, k=3,
                                      n_seeds=args.n_seeds, seed=args.seed,
                                      method="proposed",
                                      trained_rate=cfg.missing_rate))
    report.extend(sweep_missing_rates(UniformSelector(), pre, test, rates,
                                      k=3, n_seeds=args.n_seeds,
                                      seed=args.seed, method="uninform",
                                      trained_rate=cfg.missing_rate))
    report.extend(sweep_missing_rates(ExplicitSelector(pre, k=args.explicit_k),
                                      pre, test, rates, k=3,
                                      n_seeds=args.n_seeds, seed=args.seed,
                                      method="explicit",
                                      trained_rate=cfg.missing_rate))

    if args.ablations:
        for ablation in ("no_meta", "no_adaptation"):
            acfg = base_config(args, ablation=ablation, beta_prime=0.0)
            apolicy, aimp, _ = run_training(
                acfg, ds, out_dir=os.path.join(args.out, ablation), imputer=pre)
            rep = eval_policy(apolicy, aimp, test, acfg.missing_rate, k=3,
                              n_seeds=args.n_seeds, seed=args.seed,
                              method=ablation, trained_rate=acfg.missing_rate)
            report.extend(rep)
            print(f"{ablation}: top-3 rmse {rep.mean_topk():.4f}")

    os.makedirs(args.out, exist_ok=True)
    sweep_path = os.path.join(args.out, "sweep.csv")
    write_sweep_csv(report, sweep_path)

    by_rate = {}
    for row in report.rows:
        by_rate.setdefault((row.method, row.eval_rate), []).append(row.top3_rmse)
    methods = ["proposed", "uninform", "explicit"]
    print(f"\ntop-3 rmse by eval rate {'':8s}" +
          "".join(f"{m:>10s}" for m in methods))
    for rate in rates:
        cells = []
        for m in methods:
            vals = by_rate.get((m, rate))
            cells.append(f"{sum(vals) / len(vals):10.4f}" if vals else f"{'-':>10s}")
        print(f"{rate:22.2f} {''.join(cells)}")
    print(f"\nwrote {sweep_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
