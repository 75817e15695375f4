#!/usr/bin/env python3
"""Train and evaluate the measurement policy on one dataset.

For each training rate this masks the train split, pretrains the imputer on
it, runs the joint loop (and with --ablations the no_meta and no_adaptation
variants), then sweeps every trained policy and the uniform-random and
variance-greedy baselines, both under the pretrained imputer, over the
evaluation rates on held-out data with ground truth.  The dataset presets,
default sizes and MNIST lookup are the `measim` CLI's.  Artifacts:

    <out>/<ablation>-<rate>/  config.txt, environment.json, run.csv,
                              actor/critic/imputer.ckpt (ablation: full, no_meta,
                              no_adaptation)
    <out>/sweep.csv           method,trained_rate,eval_rate,top1_rmse,top3_rmse,n,seed

Sinusoids at 80% and 90% missing (roughly five minutes):
    python3 scripts/run_experiment.py --dataset sin-single --rates 0.8,0.9

12x12 MNIST trained at 85%, swept from 75% to 95%, with the ablations:
    python3 scripts/run_experiment.py --dataset mnist12 --mnist-dir data/mnist \\
        --eval-rates 0.75,0.8,0.85,0.9,0.95 --ablations
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from measim import cli, helper, rngs
from measim.episodes import ExplicitSelector, UniformSelector, horizon_for
from measim.evaluate import EvalReport, sweep_missing_rates, write_sweep_csv
from measim.imputer import any_row_observes_two
from measim.masks import mask_dataset
from measim.training import ABLATIONS, joint_train, pretrain_imputer


def parse_args(argv=None):
    p = cli._Parser(description=__doc__.splitlines()[0])
    p.add_argument("--dataset", choices=cli.DATASETS, required=True)
    p.add_argument("--rates", type=cli._rates, default=None,
                   help="training missing rates (default: the preset's)")
    p.add_argument("--eval-rates", type=cli._rates, default=None,
                   help="evaluation missing rates (default: the training rate)")
    p.add_argument("--ablations", action="store_true",
                   help="also train no_meta and no_adaptation at each rate")
    p.add_argument("--seed", type=cli._seed, default=0)
    p.add_argument("--n-train", type=cli._positive_int, default=None)
    p.add_argument("--n-test", type=cli._positive_int, default=None)
    p.add_argument("--iterations", type=cli._positive_int, default=None,
                   help="override the joint-loop iteration budget")
    p.add_argument("--explicit-k", type=int, default=5,
                   help="imputation draws behind the variance-greedy baseline")
    p.add_argument("--n-seeds", type=cli._positive_int, default=3,
                   help="evaluation seeds per method")
    p.add_argument("--mnist-dir", default=None,
                   help="directory holding the raw IDX image files")
    p.add_argument("--out", default=None, help="default: runs/<dataset>")
    args = p.parse_args(argv)
    cli.check_explicit_k(["explicit"], args.explicit_k)
    return args


def masked_train(train, cfg):
    """The train split as the joint loop at cfg.missing_rate sees it."""
    return mask_dataset(train, horizon_for(train.shape[1], cfg.missing_rate),
                        rngs.substream(cfg.seed, rngs.DATA_MASK, 0))


def run(args) -> int:
    train, test = cli.complete_data(args.dataset, args.n_train, args.n_test,
                                    args.seed, args.mnist_dir)
    overrides = {} if args.iterations is None else {"iterations": args.iterations}
    preset = dataclasses.replace(cli.preset_config(args.dataset), seed=args.seed, **overrides)
    out = args.out or os.path.join("runs", args.dataset)
    ablations = ABLATIONS if args.ablations else ABLATIONS[:1]

    configs = [dataclasses.replace(preset, missing_rate=rate)
               for rate in args.rates or [preset.missing_rate]]
    # every rate is checked before any rate's work starts
    for cfg in configs:
        if ((cfg.pretrain_epochs > 0 or cfg.adapts_imputer())
                and not any_row_observes_two(masked_train(train, cfg).masks)):
            raise cli.CliError(f"cannot train at rate {cfg.missing_rate:g}: no row of the "
                               "masked train split observes two coordinates")

    report = EvalReport()
    for cfg in configs:
        rate = cfg.missing_rate
        ds = masked_train(train, cfg)
        pre, curve = pretrain_imputer(cfg, ds)
        print(f"== {args.dataset} @ {rate:g}: pretrained {len(curve)} epochs, "
              f"loss {curve[-1]:.5f}")

        trained = []
        for ablation in ablations:
            acfg = cfg if ablation == "full" else dataclasses.replace(
                cfg, ablation=ablation, beta_prime=0.0)
            run_dir = os.path.join(out, f"{ablation}-{rate:g}")
            policy, imputer, record = joint_train(acfg, ds, imputer=pre, out_dir=run_dir)
            print(f"   {ablation}: {len(record.stats)} iterations, final reward "
                  f"{record.stats[-1].reward_e1:.5f} -> {run_dir}")
            trained.append(("proposed" if ablation == "full" else ablation, policy, imputer))

        baselines = [("uninform", UniformSelector(), pre),
                     ("explicit", ExplicitSelector(pre, k=args.explicit_k), pre)]
        for method, subject, imputer in trained[:1] + baselines + trained[1:]:
            report.extend(sweep_missing_rates(subject, imputer, test,
                                              args.eval_rates or [rate], k=3,
                                              n_seeds=args.n_seeds, seed=args.seed,
                                              method=method, trained_rate=rate))

    os.makedirs(out, exist_ok=True)
    sweep_path = os.path.join(out, "sweep.csv")
    write_sweep_csv(report, sweep_path)

    cells = {}
    for r in report.rows:
        cells.setdefault((r.method, r.trained_rate, r.eval_rate), []).append(r)
    print(f"\n{'method':14s} {'trained':>7s} {'eval':>5s} {'top1':>8s} {'top3':>8s}")
    for (method, trained_rate, eval_rate), rows in cells.items():
        print(f"{method:14s} {trained_rate:7.2f} {eval_rate:5.2f} "
              f"{sum(r.top1_rmse for r in rows) / len(rows):8.4f} "
              f"{sum(r.top3_rmse for r in rows) / len(rows):8.4f}")
    print(f"\nwrote {sweep_path}")
    return 0


def main(argv=None) -> int:
    helper.pin_blas()
    try:
        return run(parse_args(argv))
    except cli.CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
