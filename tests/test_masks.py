import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measim import masks
from measim.masks import (
    MaskDistributionSpec,
    MissingDataset,
    MissingState,
    encode_state,
    load_missing_csv,
    mask_dataset,
    mcar_spec,
    round_half_up,
    sample_mcar_mask,
    save_missing_csv,
    substitute,
)


def test_round_half_up_ties_go_up():
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(10.0) == 10
    assert round_half_up(21.6) == 22


def test_mcar_spec_counts():
    assert mcar_spec(100, 0.9).n_observed == 10
    assert mcar_spec(100, 0.0).n_observed == 100
    assert mcar_spec(100, 1.0).n_observed == 0
    assert mcar_spec(144, 0.85).n_observed == 22
    with pytest.raises(ValueError):
        mcar_spec(100, 1.5)


def test_missing_state_validation():
    s = MissingState(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert s.dim == 2
    assert s.observed_count() == 1
    with pytest.raises(ValueError):
        MissingState(np.array([1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MissingState(np.array([1.0, 0.0]), np.array([1.0, 0.5]))


def test_from_complete_zero_fills():
    s = MissingState.from_complete([3.0, 4.0, 5.0], [0, 1, 0])
    assert np.array_equal(s.values, [0.0, 4.0, 0.0])


def test_substitute_hand_example():
    s = MissingState(np.array([5.0, 0.0, 7.0]), np.array([1.0, 0.0, 1.0]))
    out = substitute(s, [9.0, 9.0, 9.0])
    assert np.array_equal(out, [5.0, 9.0, 7.0])


def test_substitute_all_observed_returns_values():
    s = MissingState(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert np.array_equal(substitute(s, [8.0, 8.0]), [1.0, 2.0])


def test_substitute_none_observed_returns_y():
    s = MissingState(np.zeros(2), np.zeros(2))
    assert np.array_equal(substitute(s, [8.0, 9.0]), [8.0, 9.0])


def test_substitute_length_mismatch():
    s = MissingState(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        substitute(s, [1.0, 2.0])


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32).flatmap(
        lambda vals: st.tuples(
            st.just(vals),
            st.lists(st.integers(0, 1), min_size=len(vals), max_size=len(vals)),
            st.lists(st.floats(-1e6, 1e6), min_size=len(vals), max_size=len(vals)),
        )
    )
)
def test_substitute_preserves_observed(args):
    vals, bits, y = args
    mask = np.array(bits, dtype=np.float64)
    s = MissingState(np.array(vals) * mask, mask)
    out = substitute(s, y)
    for i in range(len(vals)):
        if bits[i] == 1:
            assert out[i] == s.values[i]
        else:
            assert out[i] == y[i]


def test_sample_mcar_mask_forced_counts():
    rng = np.random.default_rng(0)
    m = sample_mcar_mask(100, 10, rng)
    assert m.shape == (100,)
    assert m.sum() == 10
    assert np.array_equal(sample_mcar_mask(4, 4, rng), np.ones(4))
    assert np.array_equal(sample_mcar_mask(4, 0, rng), np.zeros(4))


def test_sample_mcar_mask_range_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_mcar_mask(4, 5, rng)
    with pytest.raises(ValueError):
        sample_mcar_mask(4, -1, rng)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.data())
def test_sample_mcar_mask_exact_cardinality(d, data):
    n = data.draw(st.integers(0, d))
    seed = data.draw(st.integers(0, 2**31))
    m = sample_mcar_mask(d, n, np.random.default_rng(seed))
    assert int(m.sum()) == n
    assert np.all((m == 0.0) | (m == 1.0))


def test_sample_mcar_mask_inclusion_frequency():
    # Monte-Carlo oracle: D=20, n=10 makes every coordinate a fair coin.
    rng = np.random.default_rng(7)
    draws = 100_000
    counts = np.zeros(20)
    for _ in range(draws):
        counts += sample_mcar_mask(20, 10, rng)
    freq = counts / draws
    assert np.all(np.abs(freq - 0.5) < 0.01)


def test_encode_state_examples():
    s = MissingState(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.array_equal(encode_state(s), [1.0, 0.0, 1.0, 0.0])
    s = MissingState(np.zeros(3), np.zeros(3))
    assert np.array_equal(encode_state(s), np.zeros(6))
    s = MissingState(np.array([0.5, 0.2, 0.0]), np.array([1.0, 1.0, 0.0]))
    assert np.array_equal(encode_state(s), [0.5, 0.2, 0.0, 1.0, 1.0, 0.0])


@given(
    st.integers(1, 16).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
            st.lists(st.integers(0, 1), min_size=d, max_size=d),
            st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
            st.lists(st.integers(0, 1), min_size=d, max_size=d),
        )
    )
)
def test_encode_state_injective(args):
    v1, m1, v2, m2 = args
    a = MissingState.from_complete(v1, m1)
    b = MissingState.from_complete(v2, m2)
    if np.array_equal(encode_state(a), encode_state(b)):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.mask, b.mask)


def test_mask_dataset_full_observation_is_identity():
    complete = np.random.default_rng(1).normal(size=(8, 5))
    ds = mask_dataset(complete, MaskDistributionSpec(n_observed=5), np.random.default_rng(2))
    assert np.array_equal(ds.values, complete)
    assert np.array_equal(ds.masks, np.ones((8, 5)))
    assert np.array_equal(ds.ground_truth, complete)


def test_mask_dataset_forced_cardinality():
    complete = np.random.default_rng(1).normal(size=(50, 100))
    ds = mask_dataset(complete, MaskDistributionSpec(n_observed=10), np.random.default_rng(2))
    assert np.array_equal(ds.masks.sum(axis=1), np.full(50, 10.0))
    # zero fill where unobserved, truth where observed
    assert np.array_equal(ds.values, complete * ds.masks)


def test_mask_dataset_observation_frequency():
    # Binomial bound: n=2000 examples, p=0.3 per coordinate, 3 sigma.
    n, d, n_obs = 2000, 10, 3
    complete = np.zeros((n, d))
    ds = mask_dataset(complete, MaskDistributionSpec(n_observed=n_obs), np.random.default_rng(3))
    p = n_obs / d
    sigma = np.sqrt(p * (1 - p) / n)
    freq = ds.masks.mean(axis=0)
    assert np.all(np.abs(freq - p) < 3 * sigma + 1e-12)


def test_mask_distribution_spec_validation():
    with pytest.raises(ValueError):
        MaskDistributionSpec(kind="bernoulli", n_observed=3)
    with pytest.raises(ValueError):
        MaskDistributionSpec(n_observed=-1)


def test_missing_dataset_state_and_strip():
    ds = MissingDataset(
        values=np.array([[1.0, 0.0], [0.0, 2.0]]),
        masks=np.array([[1.0, 0.0], [0.0, 1.0]]),
        ground_truth=np.array([[1.0, 9.0], [8.0, 2.0]]),
    )
    assert len(ds) == 2
    assert ds.dim == 2
    s = ds.state(1)
    assert np.array_equal(s.values, [0.0, 2.0])
    stripped = ds.without_ground_truth()
    assert stripped.ground_truth is None
    assert np.array_equal(stripped.values, ds.values)


@pytest.mark.parametrize("row, message", [
    ("1.0,nan,2,0", "row 1, column 0: mask 2.0 is not 0 or 1"),
    ("0.5,3.0,1,0", "row 1, column 1: unobserved value 3.0 is not 0"),
    ("0.5,nan,1,0", "row 1, column 1: unobserved value nan is not 0"),
    ("inf,0.0,1,0", "row 1, column 0: observed value inf is not finite"),
    ("0.0,0.0,0,nan", "row 1, column 1: mask nan is not 0 or 1"),
])
def test_csv_rejects_corrupt_rows(tmp_path, row, message):
    path = tmp_path / "corrupt.csv"
    path.write_text("v0,v1,m0,m1\n-0.5,0.0,1,0\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_missing_csv(path)


def test_missing_dataset_accepts_negative_zero_fill():
    # masking a negative value gives -0.0, which is still a zero fill
    ds = mask_dataset(-np.ones((3, 4)), MaskDistributionSpec(n_observed=2),
                      np.random.default_rng(4))
    assert np.all(ds.values[ds.masks == 0.0] == 0.0)


def test_csv_round_trip_with_ground_truth(tmp_path):
    rng = np.random.default_rng(11)
    complete = rng.normal(size=(6, 4))
    ds = mask_dataset(complete, MaskDistributionSpec(n_observed=2), rng)
    path = tmp_path / "missing.csv"
    save_missing_csv(ds, path)
    back = load_missing_csv(path)
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.masks, ds.masks)
    assert np.array_equal(back.ground_truth, ds.ground_truth)


def test_csv_round_trip_without_ground_truth(tmp_path):
    rng = np.random.default_rng(12)
    ds = mask_dataset(rng.normal(size=(3, 5)), MaskDistributionSpec(n_observed=1), rng)
    path = tmp_path / "missing.csv"
    save_missing_csv(ds, path, include_ground_truth=False)
    back = load_missing_csv(path)
    assert back.ground_truth is None
    assert np.array_equal(back.values, ds.values)
    with open(path) as f:
        header = next(csv.reader(f))
    assert not any(h.startswith("gt") for h in header)


def test_csv_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("v0,v1,m0\n1.0,2.0,1\n")
    with pytest.raises(ValueError):
        load_missing_csv(path)


def test_csv_empty_dataset_round_trip(tmp_path):
    ds = MissingDataset(np.zeros((0, 3)), np.zeros((0, 3)))
    path = tmp_path / "empty.csv"
    save_missing_csv(ds, path)
    back = load_missing_csv(path)
    assert len(back) == 0
    assert back.dim == 3


@pytest.mark.parametrize("row", [
    "0.5,0.0,1",                # ragged: one column short
    "0.5,0.0,1,0,7",            # ragged: one column over
    "0.5,abc,1,0",              # non-numeric field
    "0.5,,1,0",                 # empty field
    "#0.5,0.0,1,0",             # a '#' row is not a comment
])
def test_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "malformed.csv"
    path.write_text("v0,v1,m0,m1\n-0.5,0.0,1,0\n" + row + "\n")
    with pytest.raises(ValueError):
        load_missing_csv(path)


def test_csv_rejects_rows_wider_than_header(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("v0,v1,m0,m1\n-0.5,0.0,1,0,3\n")
    with pytest.raises(ValueError, match="rows have 5 columns, header has 4"):
        load_missing_csv(path)


def test_csv_rejects_file_without_header(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no header"):
        load_missing_csv(path)


def reference_csv_bytes(dataset, path, include_ground_truth):
    """The format as csv.writer writes it, one repr per float."""
    d = dataset.dim
    with_gt = include_ground_truth and dataset.ground_truth is not None
    header = [f"v{i}" for i in range(d)] + [f"m{i}" for i in range(d)]
    if with_gt:
        header += [f"gt{i}" for i in range(d)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.values[i]]
            row += [str(int(m)) for m in dataset.masks[i]]
            if with_gt:
                row += [repr(float(v)) for v in dataset.ground_truth[i]]
            writer.writerow(row)
    return path.read_bytes()


@pytest.mark.parametrize("include_ground_truth", [True, False])
def test_csv_bytes_match_csv_writer(tmp_path, include_ground_truth):
    rng = np.random.default_rng(13)
    truth = rng.normal(size=(5, 6))
    truth[0, :4] = [-0.0, 1e-300, 1e300, -1e300]
    truth[1, :3] = [5e-324, 0.1, -2.5]
    ds = mask_dataset(truth, MaskDistributionSpec(n_observed=3), rng)
    ds.masks[0] = [1, 1, 1, 1, 0, 0]
    ds.values[0] = np.where(ds.masks[0] == 1.0, truth[0], 0.0)
    ds = MissingDataset(ds.values, ds.masks, truth)
    path = tmp_path / "fast.csv"
    save_missing_csv(ds, path, include_ground_truth=include_ground_truth)
    expected = reference_csv_bytes(ds, tmp_path / "reference.csv", include_ground_truth)
    assert path.read_bytes() == expected
    back = load_missing_csv(path)
    assert np.array_equal(back.values.view(np.int64), ds.values.view(np.int64))
    assert np.array_equal(back.masks, ds.masks)
    if include_ground_truth:
        assert np.array_equal(back.ground_truth.view(np.int64), truth.view(np.int64))


def test_substitute_batch_matches_rowwise():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(7, 6))
    bits = (rng.random((7, 6)) < 0.5).astype(np.float64)
    values = values * bits
    y = rng.normal(size=(7, 6))
    out = masks.substitute_batch(values, bits, y)
    for i in range(7):
        row = substitute(MissingState(values[i], bits[i]), y[i])
        assert np.array_equal(out[i], row)
