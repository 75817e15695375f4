import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from measim import evaluate, helper, rngs
from measim.episodes import (
    ExplicitSelector,
    UniformSelector,
    horizon_for,
    rollout_batch,
    rollout_with_selector,
    topk_rmse,
)
from measim.evaluate import (
    EVAL_BLOCK_ROWS,
    EVAL_MODES,
    EvalReport,
    EvalRow,
    eval_policy,
    load_sweep_csv,
    method_name,
    row_blocks,
    sweep_missing_rates,
    write_sweep_csv,
)
from measim.imputer import build_imputer, impute_batch
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
    # values the float32 output bias holds exactly, so every draw is the truth
    row = np.linspace(-1.0, 1.0, D).astype(np.float32).astype(np.float64)
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


def evaluate_in_helper(monkeypatch, on: bool) -> None:
    """Evaluate the odd tasks in a helper process, or every task in this one:
    the next use of the helper starts one as asked."""
    monkeypatch.setattr(helper, "core_for_helper", lambda: on)
    helper.stop()


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
    evaluate_in_helper(monkeypatch, False)
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
    evaluate_in_helper(monkeypatch, False)
    held = capture_rollouts(monkeypatch, measure=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eval_policy(policy, imputer, truth, 0.8, n_seeds=2, eval_mode=mode)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 2 seeds x 2 row blocks
    assert len(held) == 4
    assert max(held) <= 3 * one_state, max(held) / one_state
    # the k=3 imputation of the terminal states sets the peak now
    assert peak <= 12 * one_state, peak / one_state


def test_evaluation_releases_each_seed_before_the_next(monkeypatch):
    # the previous seed's rollout and draws (about 1.5 (B, 2D) states at
    # B=720, D=100, k=3) must be gone before the next seed's rollout runs
    evaluate_in_helper(monkeypatch, False)
    b, d = 720, 100
    policy = build_policy(d, rng=np.random.default_rng(6))
    imputer = build_imputer(d, "sinusoid", rng=np.random.default_rng(7))
    truth = np.random.default_rng(8).normal(size=(b, d))
    one_state = b * 2 * d * 8

    def peak_of(n_seeds):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eval_policy(policy, imputer, truth, 0.8, n_seeds=n_seeds)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one, two = peak_of(1), peak_of(2)
    assert two <= one + one_state, (one / one_state, two / one_state)


def report_bits(report):
    return [(r.method, r.eval_rate.hex(), r.top1_rmse.hex(), r.top3_rmse.hex(),
             r.n_examples, r.seed, r.trained_rate.hex()) for r in report.rows]


def count_helpers(monkeypatch) -> list[str]:
    """Names of the helper processes started from here on."""
    started = []
    real = helper.Helper

    def counted(name):
        started.append(name)
        return real(name)

    monkeypatch.setattr(helper, "Helper", counted)
    return started


SUBJECTS = {
    "greedy": lambda: (build_policy(D, actor_hidden=(8,), critic_hidden=(4,),
                                    rng=np.random.default_rng(5)), "greedy"),
    "stochastic": lambda: (build_policy(D, actor_hidden=(8,), critic_hidden=(4,),
                                        rng=np.random.default_rng(5)), "stochastic"),
    "uninform": lambda: (UniformSelector(), "greedy"),
    "explicit": lambda: (ExplicitSelector(random_imputer(2), k=3), "greedy"),
}


def check_one_helper_kept(started):
    """After a call that used a forked helper: one named helper is alive, the
    next call reuses it (the same process), and helper.stop() ends it."""
    [proc] = multiprocessing.active_children()
    assert proc.name == helper.NAME and proc.is_alive()
    eval_policy(UniformSelector(), random_imputer(), truth_matrix(2), 0.5, n_seeds=2)
    assert [p.pid for p in multiprocessing.active_children()] == [proc.pid]
    assert started == [helper.NAME]
    helper.stop()
    assert multiprocessing.active_children() == []


def check_helper_matches_serial(monkeypatch, subject, n_seeds, n_rows):
    # each (seed, block) task draws only from its own substreams and the
    # forked helper computes under the same numeric environment: the same
    # bytes either way
    subj, mode = SUBJECTS[subject]()
    truth = truth_matrix(n_rows)

    def run(on):
        evaluate_in_helper(monkeypatch, on)
        return eval_policy(subj, random_imputer(), truth, 0.6, k=3, n_seeds=n_seeds,
                           seed=4, eval_mode=mode, trained_rate=0.8)

    started = count_helpers(monkeypatch)
    serial = run(False)
    assert started == []
    split = run(True)
    if n_seeds * len(row_blocks(n_rows)) >= 2:
        check_one_helper_kept(started)
    else:
        assert started == []
        assert multiprocessing.active_children() == []
    assert [r.seed for r in split.rows] == list(range(n_seeds))
    assert all(r.n_examples == n_rows for r in split.rows)
    assert report_bits(split) == report_bits(serial)


@pytest.mark.parametrize("n_seeds", [1, 2, 3, 4])
@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_helper_seeds_match_serial_evaluation(monkeypatch, subject, n_seeds):
    # 20 rows make one block, so the tasks are the seeds
    check_helper_matches_serial(monkeypatch, subject, n_seeds, 20)


def fail_in(where, monkeypatch, fail):
    """Make eval_policy's selector rollouts call fail() in the helper process
    (where="helper") or in this one (where="main")."""
    main = os.getpid()
    real = evaluate.rollout_with_selector

    def failing(*args, **kwargs):
        if (os.getpid() == main) == (where == "main"):
            fail()
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "rollout_with_selector", failing)


def test_helper_error_reaches_caller_and_leaves_no_process(monkeypatch):
    def fail():
        raise ValueError("seed failed on purpose")

    evaluate_in_helper(monkeypatch, True)
    fail_in("helper", monkeypatch, fail)
    with pytest.raises(ValueError) as caught:
        eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5, n_seeds=3)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "seed failed on purpose"
    assert multiprocessing.active_children() == []


def test_helper_exit_is_reported_with_its_code(monkeypatch):
    evaluate_in_helper(monkeypatch, True)
    fail_in("helper", monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="measim-helper exited with code 3"):
        eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5, n_seeds=2)
    assert multiprocessing.active_children() == []


def test_interrupt_leaves_no_process(monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    evaluate_in_helper(monkeypatch, True)
    fail_in("main", monkeypatch, interrupt)
    with pytest.raises(KeyboardInterrupt):
        eval_policy(UniformSelector(), random_imputer(), truth_matrix(), 0.5, n_seeds=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n, sizes", [(1, [1]), (96, [96]), (359, [359]), (360, [360]),
                                      (361, [180, 181]), (720, [360, 360]),
                                      (727, [242, 242, 243]), (2000, [333, 333, 334, 333, 333, 334])])
def test_row_blocks_are_contiguous_and_even(n, sizes):
    blocks = row_blocks(n)
    assert [b.stop - b.start for b in blocks] == sizes
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert len(blocks) == -(-n // EVAL_BLOCK_ROWS)


def test_empty_test_set_rejected():
    with pytest.raises(ValueError, match="at least one row"):
        eval_policy(UniformSelector(), random_imputer(), np.zeros((0, D)), 0.5)


@pytest.mark.parametrize("n_rows", [1, 359, 360, 361, 727])
@pytest.mark.parametrize("n_seeds", [1, 2, 3, 4])
@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_helper_tasks_match_serial_evaluation(monkeypatch, subject, n_seeds, n_rows):
    check_helper_matches_serial(monkeypatch, subject, n_seeds, n_rows)


def block_reference(subject, mode, imputer, truth, rate, k, n_seeds, seed):
    """Per-seed (top1, topk) means from each block evaluated alone, the
    per-row errors concatenated in row order."""
    horizon = horizon_for(truth.shape[1], rate)
    means = []
    for s in range(n_seeds):
        top1, topk = [], []
        for j, block in enumerate(row_blocks(len(truth))):
            rows = truth[block].copy()
            rng_ep = rngs.substream(seed, rngs.EVAL, s, 0, j)
            if mode is None:
                roll = rollout_with_selector(subject, rows, horizon, rng_ep)
            else:
                roll = rollout_batch(subject, rows, horizon, mode, rng_ep, grad=False)
            cands = impute_batch(imputer, roll.terminal_values, roll.terminal_masks,
                                 rngs.substream(seed, rngs.EVAL, s, 1, j), k=k)
            top1.append(topk_rmse(cands[:1], rows))
            topk.append(topk_rmse(cands, rows))
        means.append((float(np.mean(np.concatenate(top1))),
                      float(np.mean(np.concatenate(topk)))))
    return means


@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_every_row_is_evaluated_once(monkeypatch, subject):
    subj, mode = SUBJECTS[subject]()
    is_policy = subject in ("greedy", "stochastic")
    truth = truth_matrix(727)
    imputer = random_imputer()
    evaluate_in_helper(monkeypatch, False)
    seen = []
    name = "rollout_batch" if is_policy else "rollout_with_selector"
    real = getattr(evaluate, name)

    def tracked(roller, x_bar, *args, **kwargs):
        seen.append(np.array(x_bar))
        return real(roller, x_bar, *args, **kwargs)

    monkeypatch.setattr(evaluate, name, tracked)
    errors = []
    real_topk = evaluate.topk_rmse

    def recorded(cands, x_bar):
        errors.append(real_topk(cands, x_bar))
        return errors[-1]

    monkeypatch.setattr(evaluate, "topk_rmse", recorded)
    report = eval_policy(subj, imputer, truth, 0.6, k=3, n_seeds=3, seed=4,
                         eval_mode=mode)
    ref = block_reference(subj, mode if is_policy else None, imputer, truth, 0.6, 3, 3, 4)
    assert [(r.top1_rmse, r.top3_rmse) for r in report.rows] == ref
    # 3 seeds x 3 blocks, each seed's blocks covering the rows once, in order
    assert len(seen) == 9
    # in this process the helper's odd tasks run first, when they are sent:
    # put the rollouts back in task order
    seen[1::2], seen[::2] = seen[:4], seen[4:]
    for s in range(3):
        assert np.array_equal(np.concatenate(seen[3 * s:3 * s + 3]), truth)
    # per task, top-1 then top-k errors: the minimum over k draws never exceeds the first
    assert sum(len(e) for e in errors[::2]) == 3 * len(truth)
    for top1, topk in zip(errors[::2], errors[1::2]):
        assert np.all(topk <= top1)


@pytest.mark.parametrize("outcome", ["success", "helper error", "interrupt"])
def test_one_seed_two_blocks_use_the_helper_and_leave_no_process(monkeypatch, outcome):
    evaluate_in_helper(monkeypatch, True)
    started = count_helpers(monkeypatch)
    if outcome == "helper error":
        def fail():
            raise ValueError("block failed on purpose")
        fail_in("helper", monkeypatch, fail)
    elif outcome == "interrupt":
        def fail():
            raise KeyboardInterrupt
        fail_in("main", monkeypatch, fail)
    expected = {"success": None, "helper error": ValueError,
                "interrupt": KeyboardInterrupt}[outcome]
    truth = truth_matrix(720)
    if expected is None:
        report = eval_policy(UniformSelector(), random_imputer(), truth, 0.5, n_seeds=1)
        assert len(report.rows) == 1
        check_one_helper_kept(started)
    else:
        with pytest.raises(expected):
            eval_policy(UniformSelector(), random_imputer(), truth, 0.5, n_seeds=1)
        assert started == [helper.NAME]
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("subject", ["greedy", "stochastic", "explicit"])
def test_evaluation_holds_one_block_at_a_time(monkeypatch, subject):
    # at B=720, D=100 a whole-set rollout and its k=3 draws peak near 6
    # (B, 2D) states (7 for explicit); two 360-row blocks, one after the
    # other, peak near half of that
    b, d = 720, 100
    imputer = build_imputer(d, "sinusoid", rng=np.random.default_rng(7))
    subj = {"greedy": build_policy(d, rng=np.random.default_rng(6)),
            "stochastic": build_policy(d, rng=np.random.default_rng(6)),
            "explicit": ExplicitSelector(imputer, k=5)}[subject]
    mode = "stochastic" if subject == "stochastic" else "greedy"
    truth = np.random.default_rng(8).normal(size=(b, d))
    one_state = b * 2 * d * 8
    evaluate_in_helper(monkeypatch, False)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eval_policy(subj, imputer, truth, 0.8, n_seeds=2, eval_mode=mode)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * one_state, peak / one_state


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
