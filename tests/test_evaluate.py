import math
import tracemalloc

import numpy as np
import pytest

from measim import evaluate
from measim.episodes import ExplicitSelector, UniformSelector, horizon_for
from measim.evaluate import (
    EVAL_MODES,
    EvalReport,
    EvalRow,
    eval_policy,
    load_sweep_csv,
    method_name,
    sweep_missing_rates,
    write_sweep_csv,
)
from measim.imputer import build_imputer
from measim.masks import MissingDataset, mask_dataset, mcar_spec
from measim.policy import build_policy

D = 10


def constant_imputer(value_vector):
    """Imputer whose every draw is the given vector, noise ignored."""
    model = build_imputer(len(value_vector), "sinusoid", noise_dim=2, hidden=(4,),
                          rng=np.random.default_rng(0))
    for p in model.net.params():
        p[:] = 0.0
    model.net.biases[-1][:] = np.asarray(value_vector, dtype=np.float64)
    return model


def random_imputer(seed=1):
    return build_imputer(D, "sinusoid", noise_dim=2, hidden=(8,),
                         rng=np.random.default_rng(seed))


def truth_matrix(n=20, seed=3):
    return np.random.default_rng(seed).normal(size=(n, D))


def eval_dataset(truth):
    n, d = truth.shape
    return MissingDataset(values=np.zeros((n, d)), masks=np.zeros((n, d)),
                          ground_truth=truth)


def test_row_rejects_topk_above_top1():
    with pytest.raises(ValueError, match="top3_rmse"):
        EvalRow(method="x", eval_rate=0.5, top1_rmse=0.1, top3_rmse=0.2,
                n_examples=1, seed=0)


def test_row_allows_equal_errors():
    EvalRow(method="x", eval_rate=0.5, top1_rmse=0.1, top3_rmse=0.1,
            n_examples=1, seed=0)


def test_method_names():
    assert method_name(build_policy(D, rng=np.random.default_rng(0))) == "proposed"
    assert method_name(UniformSelector()) == "uninform"
    assert method_name(ExplicitSelector(random_imputer(), k=2)) == "explicit"


def test_perfect_imputer_scores_zero():
    row = np.linspace(-1.0, 1.0, D)
    truth = np.tile(row, (8, 1))
    imputer = constant_imputer(row)
    policy = build_policy(D, actor_hidden=(8,), critic_hidden=(4,),
                          rng=np.random.default_rng(4))
    report = eval_policy(policy, imputer, eval_dataset(truth), 0.5, k=2, n_seeds=2)
    assert all(r.top1_rmse == 0.0 and r.top3_rmse == 0.0 for r in report.rows)


def test_requires_ground_truth():
    ds = MissingDataset(values=np.zeros((4, D)), masks=np.zeros((4, D)))
    with pytest.raises(ValueError, match="ground truth"):
        eval_policy(UniformSelector(), random_imputer(), ds, 0.5)


def test_accepts_raw_truth_matrix():
    report = eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5,
                         k=2, n_seeds=1)
    assert report.rows[0].n_examples == 20


def test_single_draw_report_has_equal_columns():
    report = eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5,
                         k=1, n_seeds=2)
    for r in report.rows:
        assert r.top1_rmse == r.top3_rmse


def test_extra_draws_only_help():
    truth = truth_matrix()
    r1 = eval_policy(UniformSelector(), random_imputer(), truth, 0.5, k=1, n_seeds=3)
    r5 = eval_policy(UniformSelector(), random_imputer(), truth, 0.5, k=5, n_seeds=3)
    # same episode streams, so the k=5 minimum includes the k=1 draw
    for a, b in zip(r1.rows, r5.rows):
        assert a.top1_rmse == b.top1_rmse
        assert b.top3_rmse <= a.top3_rmse


def test_rows_carry_seed_and_wall_time():
    report = eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5,
                         k=2, n_seeds=3)
    assert [r.seed for r in report.rows] == [0, 1, 2]
    assert all(r.wall_time >= 0.0 for r in report.rows)
    assert all(r.method == "uninform" for r in report.rows)


def test_evaluation_is_deterministic_given_seed():
    truth = truth_matrix()
    a = eval_policy(UniformSelector(), random_imputer(), truth, 0.6, k=3, n_seeds=2, seed=9)
    b = eval_policy(UniformSelector(), random_imputer(), truth, 0.6, k=3, n_seeds=2, seed=9)
    for x, y in zip(a.rows, b.rows):
        assert x.top1_rmse == y.top1_rmse and x.top3_rmse == y.top3_rmse


def test_policy_greedy_evaluation_runs():
    policy = build_policy(D, actor_hidden=(8,), critic_hidden=(4,),
                          rng=np.random.default_rng(5))
    report = eval_policy(policy, random_imputer(), truth_matrix(), 0.7, k=2, n_seeds=2)
    assert len(report.rows) == 2
    assert all(np.isfinite(r.top1_rmse) for r in report.rows)


def capture_rollouts(monkeypatch, measure=False):
    """Rollouts eval_policy makes, or with measure the memory each one holds."""
    real = evaluate.rollout_batch
    seen = []

    def tracked(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        roll = real(*args, **kwargs)
        seen.append(tracemalloc.get_traced_memory()[0] - before if measure else roll)
        return roll

    monkeypatch.setattr(evaluate, "rollout_batch", tracked)
    return seen


def test_stochastic_evaluation_is_deterministic_and_observes_truth(monkeypatch):
    policy = build_policy(D, actor_hidden=(8,), critic_hidden=(4,),
                          rng=np.random.default_rng(5))
    truth = truth_matrix()
    rolls = capture_rollouts(monkeypatch)

    def run(seed):
        report = eval_policy(policy, random_imputer(), truth, 0.7, k=3, n_seeds=2,
                             seed=seed, eval_mode="stochastic")
        return [(r.top1_rmse, r.top3_rmse) for r in report.rows]

    first = run(4)
    assert run(4) == first
    assert run(5) != first
    horizon = horizon_for(D, 0.7)
    assert len(rolls) == 6
    for roll in rolls:
        observed = roll.terminal_masks == 1.0
        assert np.array_equal(observed.sum(axis=1), np.full(len(truth), horizon))
        expected = np.where(observed, truth, 0.0)
        assert np.array_equal(roll.terminal_values.view(np.uint64), expected.view(np.uint64))
        assert all(s.state is None and s.tape is None for s in roll.steps)


@pytest.mark.parametrize("mode", EVAL_MODES)
def test_evaluation_holds_no_step_states(monkeypatch, mode):
    # a 20-step rollout at B=720, D=100 keeping a state per step would hold
    # 21 (B, 2D) states (greedy), 95 with its tapes (stochastic); the
    # terminal state and actions are about 1.1
    b, d = 720, 100
    policy = build_policy(d, rng=np.random.default_rng(6))
    imputer = build_imputer(d, "sinusoid", rng=np.random.default_rng(7))
    truth = np.random.default_rng(8).normal(size=(b, d))
    one_state = b * 2 * d * 8
    held = capture_rollouts(monkeypatch, measure=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eval_policy(policy, imputer, truth, 0.8, n_seeds=2, eval_mode=mode)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    assert max(held) <= 3 * one_state, max(held) / one_state
    # the k=3 imputation of the terminal states sets the peak now
    assert peak <= 12 * one_state, peak / one_state


def test_bad_eval_mode_rejected():
    with pytest.raises(ValueError, match="eval_mode"):
        eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5,
                    eval_mode="sampled")


def test_masked_test_set_evaluates_on_its_ground_truth():
    rng = np.random.default_rng(11)
    complete = rng.normal(size=(12, D))
    ds = mask_dataset(complete, mcar_spec(D, 0.5), rng)
    report = eval_policy(UniformSelector(), random_imputer(), ds, 0.0, k=1, n_seeds=1)
    # rate 0 means every coordinate measured: the true vector is recovered
    assert report.rows[0].top1_rmse == 0.0


def test_sweep_rate_validation():
    with pytest.raises(ValueError, match="rates"):
        sweep_missing_rates(UniformSelector(), random_imputer(), truth_matrix(), [0.5, 1.0])


def test_sweep_rows_cover_rates():
    report = sweep_missing_rates(UniformSelector(), random_imputer(), truth_matrix(),
                                 [0.0, 0.8], k=2, n_seeds=2, trained_rate=0.8)
    assert [r.eval_rate for r in report.rows] == [0.0, 0.0, 0.8, 0.8]
    zero_rows = [r for r in report.rows if r.eval_rate == 0.0]
    assert all(r.top1_rmse == 0.0 for r in zero_rows)
    high_rows = [r for r in report.rows if r.eval_rate == 0.8]
    assert all(r.top1_rmse > 0.0 for r in high_rows)
    assert all(r.trained_rate == 0.8 for r in report.rows)


def test_report_means():
    report = EvalReport(rows=[
        EvalRow("m", 0.5, 0.4, 0.2, 10, 0),
        EvalRow("m", 0.5, 0.2, 0.1, 10, 1),
    ])
    assert math.isclose(report.mean_top1(), 0.3)
    assert math.isclose(report.mean_topk(), 0.15000000000000002)


def test_sweep_csv_round_trip(tmp_path):
    report = sweep_missing_rates(UniformSelector(), random_imputer(), truth_matrix(),
                                 [0.5, 0.9], k=2, n_seeds=2, trained_rate=0.9)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(report, path)
    loaded = load_sweep_csv(path)
    assert len(loaded.rows) == len(report.rows)
    for a, b in zip(report.rows, loaded.rows):
        assert a.method == b.method
        assert a.top1_rmse == b.top1_rmse
        assert a.top3_rmse == b.top3_rmse
        assert a.eval_rate == b.eval_rate
        assert math.isnan(b.trained_rate) if math.isnan(a.trained_rate) else a.trained_rate == b.trained_rate
        assert a.n_examples == b.n_examples and a.seed == b.seed


def test_sweep_csv_rejects_other_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("method,top1\nuninform,0.5\n")
    with pytest.raises(ValueError, match="schema"):
        load_sweep_csv(path)


def test_sweep_csv_bytes_are_deterministic(tmp_path):
    report = eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5,
                         k=2, n_seeds=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(report, a)
    write_sweep_csv(report, b)
    assert a.read_bytes() == b.read_bytes()
    assert "wall" not in a.read_text()
