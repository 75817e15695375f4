import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measim import rngs
from measim.data import (
    GRID,
    GRID_POINTS,
    MNIST_STEMS,
    IdxFormatError,
    SinusoidParams,
    crop_resize_12,
    find_mnist_file,
    gen_sinusoid,
    gen_sinusoid_dataset,
    gen_stroke_digits,
    load_mnist_idx,
    mnist12_dataset,
    write_idx_images,
)


def test_grid_shape_and_span():
    assert GRID.shape == (100,)
    assert GRID[0] == -5.0
    assert GRID[-1] == 5.0


def test_sinusoid_params_validation():
    SinusoidParams(0.1, 0.5, 0.0)
    SinusoidParams(1.0, 2.0, 2 * np.pi)
    with pytest.raises(ValueError):
        SinusoidParams(0.05, 1.0, 0.0)
    with pytest.raises(ValueError):
        SinusoidParams(0.5, 3.0, 0.0)
    with pytest.raises(ValueError):
        SinusoidParams(0.5, 1.0, 7.0)


def test_gen_sinusoid_matches_formula():
    p = SinusoidParams(amplitude=1.0, frequency=1.0, phase=0.0)
    y = gen_sinusoid(p)
    assert np.array_equal(y, np.sin(GRID))
    # sin is odd with zero phase, so the value at x=0 of the underlying
    # function is 0 and the grid is antisymmetric around it
    assert np.allclose(y, -y[::-1], atol=1e-12)


def test_gen_sinusoid_hand_value_at_origin():
    p = SinusoidParams(amplitude=0.5, frequency=2.0, phase=np.pi / 2)
    y = gen_sinusoid(p)
    assert np.array_equal(y, 0.5 * np.sin(2.0 * GRID + np.pi / 2))
    # underlying function at x=0: 0.5 * sin(pi/2) = 0.5
    assert 0.5 * np.sin(2.0 * 0.0 + np.pi / 2) == 0.5


def test_double_mode_identical_triples_doubles_output():
    p = SinusoidParams(amplitude=0.7, frequency=1.3, phase=1.0)
    assert np.array_equal(gen_sinusoid(p, p), 2.0 * gen_sinusoid(p))


@settings(max_examples=100)
@given(
    st.floats(0.1, 1.0),
    st.floats(0.5, 2.0),
    st.floats(0.0, 2 * np.pi),
)
def test_sinusoid_amplitude_bound(a, w, b):
    y = gen_sinusoid(SinusoidParams(a, w, b))
    assert np.all(np.abs(y) <= a + 1e-12)


def test_double_amplitude_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = SinusoidParams.sample(rng)
        q = SinusoidParams.sample(rng)
        y = gen_sinusoid(p, q)
        assert np.all(np.abs(y) <= p.amplitude + q.amplitude + 1e-12)


def test_dataset_default_sizes():
    train, test = gen_sinusoid_dataset(seed=0)
    assert train.shape == (2880, 100)
    assert test.shape == (720, 100)


def test_dataset_deterministic():
    a_train, a_test = gen_sinusoid_dataset(n_train=20, n_test=10, seed=5)
    b_train, b_test = gen_sinusoid_dataset(n_train=20, n_test=10, seed=5)
    assert a_train.tobytes() == b_train.tobytes()
    assert a_test.tobytes() == b_test.tobytes()


def test_dataset_train_test_streams_independent():
    # test split must not depend on how many training examples were drawn
    _, test_a = gen_sinusoid_dataset(n_train=5, n_test=4, seed=1)
    _, test_b = gen_sinusoid_dataset(n_train=50, n_test=4, seed=1)
    assert test_a.tobytes() == test_b.tobytes()
    train_a, _ = gen_sinusoid_dataset(n_train=4, n_test=5, seed=1)
    train_b, _ = gen_sinusoid_dataset(n_train=4, n_test=50, seed=1)
    assert train_a.tobytes() == train_b.tobytes()


def test_dataset_mode_double_differs_and_seeds_differ():
    a, _ = gen_sinusoid_dataset(n_train=6, n_test=2, mode="single", seed=2)
    d, _ = gen_sinusoid_dataset(n_train=6, n_test=2, mode="double", seed=2)
    assert not np.array_equal(a, d)
    b, _ = gen_sinusoid_dataset(n_train=6, n_test=2, seed=3)
    assert not np.array_equal(a, b)
    with pytest.raises(ValueError):
        gen_sinusoid_dataset(mode="triple")


def test_sampled_params_stay_in_range():
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        p = SinusoidParams.sample(rng)
        assert 0.1 <= p.amplitude <= 1.0
        assert 0.5 <= p.frequency <= 2.0
        assert 0.0 <= p.phase <= 2 * np.pi


def test_idx_all_zero_images(tmp_path):
    path = tmp_path / "zeros.idx"
    write_idx_images(path, np.zeros((2, 784)))
    images = load_mnist_idx(path)
    assert images.shape == (2, 784)
    assert np.array_equal(images, np.zeros((2, 784)))


def test_idx_single_bright_pixel(tmp_path):
    img = np.zeros((1, 784))
    img[0, 0] = 1.0
    path = tmp_path / "one.idx"
    write_idx_images(path, img)
    images = load_mnist_idx(path)
    assert images[0, 0] == 1.0
    assert images[0, 1:].sum() == 0.0


def test_idx_u8_grid_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    imgs = np.round(rng.random((3, 784)) * 255.0) / 255.0
    path = tmp_path / "rt.idx"
    write_idx_images(path, imgs)
    assert np.array_equal(load_mnist_idx(path), imgs)


def test_idx_converts_only_the_kept_images(tmp_path):
    n_file, n_keep = 3000, 300
    path = tmp_path / "big.idx"
    pixels = np.random.default_rng(5).integers(0, 256, size=(n_file, 784), dtype=np.uint8)
    path.write_bytes(struct.pack(">IIII", 0x00000803, n_file, 28, 28) + pixels.tobytes())
    tracemalloc.start()
    try:
        images = load_mnist_idx(path, n_limit=n_keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(images, pixels[:n_keep] / 255.0)
    # the float64 result plus its uint8 source, not the whole file
    assert peak < 1.25 * images.nbytes
    assert load_mnist_idx(path, n_limit=n_file + 1).shape == (n_file, 784)


def test_idx_wrong_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 28, 28) + bytes(784))
    with pytest.raises(IdxFormatError, match="magic"):
        load_mnist_idx(path)


def test_idx_truncated(tmp_path):
    path = tmp_path / "trunc.idx"
    path.write_bytes(b"\x00\x00\x08\x03")
    with pytest.raises(IdxFormatError, match="truncated"):
        load_mnist_idx(path)


def test_idx_dimension_mismatch(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(784))
    with pytest.raises(IdxFormatError, match="expected"):
        load_mnist_idx(path)


def test_crop_resize_constant_image():
    out = crop_resize_12(np.full((28, 28), 0.5))
    assert np.array_equal(out, np.full(144, 0.5))
    out = crop_resize_12(np.full((28, 28), 0.7))
    assert np.allclose(out, 0.7, atol=1e-15)


def test_crop_resize_single_bright_pixel():
    img = np.zeros((28, 28))
    img[2, 2] = 1.0
    out = crop_resize_12(img)
    assert out[0] == 0.25
    assert out[1:].sum() == 0.0


def test_crop_resize_drops_border():
    img = np.ones((28, 28))
    img[2:26, 2:26] = 0.0
    assert np.array_equal(crop_resize_12(img), np.zeros(144))


def test_crop_resize_range_bound():
    rng = np.random.default_rng(8)
    img = rng.random((28, 28))
    out = crop_resize_12(img)
    assert out.min() >= img.min() - 1e-15
    assert out.max() <= img.max() + 1e-15


def test_crop_resize_linear():
    rng = np.random.default_rng(6)
    i1 = rng.random((28, 28))
    i2 = rng.random((28, 28))
    a, b = 0.3, 1.7
    lhs = crop_resize_12(a * i1 + b * i2)
    rhs = a * crop_resize_12(i1) + b * crop_resize_12(i2)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_crop_resize_accepts_flat_and_rejects_wrong_shape():
    img = np.zeros(784)
    img[2 * 28 + 2] = 1.0
    assert crop_resize_12(img)[0] == 0.25
    with pytest.raises(ValueError):
        crop_resize_12(np.zeros((12, 12)))


def test_mnist12_dataset_end_to_end(tmp_path):
    imgs = gen_stroke_digits(5, seed=0)
    path = tmp_path / "digits.idx"
    write_idx_images(path, imgs)
    data = mnist12_dataset(path)
    assert data.shape == (5, 144)
    assert data.min() >= 0.0 and data.max() <= 1.0
    assert np.array_equal(data[0], crop_resize_12(imgs[0]))
    limited = mnist12_dataset(path, n_limit=2)
    assert limited.shape == (2, 144)
    assert np.array_equal(limited, data[:2])


def test_find_mnist_file_accepts_dotted_name(tmp_path):
    train_stem, test_stem = MNIST_STEMS
    (tmp_path / "train-images.idx3-ubyte").write_bytes(b"")
    assert find_mnist_file(tmp_path, train_stem) == str(tmp_path / "train-images.idx3-ubyte")
    # the stem itself wins over the dotted spelling
    (tmp_path / train_stem).write_bytes(b"")
    assert find_mnist_file(tmp_path, train_stem) == str(tmp_path / train_stem)
    with pytest.raises(FileNotFoundError, match=f"missing file: .*{test_stem}"):
        find_mnist_file(tmp_path, test_stem)


def test_stroke_digits_properties():
    a = gen_stroke_digits(4, seed=1)
    b = gen_stroke_digits(4, seed=1)
    assert a.tobytes() == b.tobytes()
    assert a.shape == (4, 784)
    assert a.min() >= 0.0 and a.max() <= 1.0
    # strokes produce nontrivial bright content
    assert (a > 0.5).sum() > 0
    c = gen_stroke_digits(4, seed=2)
    assert not np.array_equal(a, c)


def sinusoid_rows_by_loop(n, mode, rng):
    """The per-row generator gen_sinusoid_dataset replaced, kept as reference."""
    out = np.zeros((n, GRID_POINTS))
    for i in range(n):
        p = SinusoidParams.sample(rng)
        q = SinusoidParams.sample(rng) if mode == "double" else None
        out[i] = gen_sinusoid(p, q)
    return out


@pytest.mark.parametrize("mode", ["single", "double"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_dataset_block_draw_matches_row_loop(mode, seed):
    train, test = gen_sinusoid_dataset(n_train=37, n_test=11, mode=mode, seed=seed)
    for got, n, label in ((train, 37, rngs.DATA_TRAIN), (test, 11, rngs.DATA_TEST)):
        expected = sinusoid_rows_by_loop(n, mode, rngs.substream(seed, label))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_dataset_rejects_out_of_range_draws(monkeypatch):
    class TooWide:
        def uniform(self, low, high, size):
            return np.full(size, 3.0)

    monkeypatch.setattr(rngs, "substream", lambda *key: TooWide())
    with pytest.raises(ValueError, match=r"amplitude 3.0 outside \[0.1, 1.0\]"):
        gen_sinusoid_dataset(n_train=2, n_test=1)


def stroke_digits_by_loop(n, seed):
    """gen_stroke_digits as it was, adding one Gaussian at a time; reference."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(97, 0)))
    out = np.zeros((n, 784))
    yy, xx = np.mgrid[0:28, 0:28]
    for i in range(n):
        img = np.zeros((28, 28))
        n_strokes = rng.integers(2, 5)
        for _ in range(n_strokes):
            pts = rng.uniform(6, 22, size=(3, 2))
            t = np.linspace(0.0, 1.0, 40)[:, None]
            curve = ((1 - t) ** 2) * pts[0] + 2 * t * (1 - t) * pts[1] + (t ** 2) * pts[2]
            width = rng.uniform(0.8, 1.6)
            for cy, cx in curve:
                img += np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2)))
        img = img / max(img.max(), 1e-12)
        img = np.clip(img * rng.uniform(0.9, 1.0), 0.0, 1.0)
        out[i] = np.round(img.reshape(784) * 255.0) / 255.0
    return out


@pytest.mark.parametrize("n, seed", [(1, 0), (7, 3), (12, 11)])
def test_stroke_digits_match_one_gaussian_at_a_time(n, seed):
    assert gen_stroke_digits(n, seed=seed).tobytes() == stroke_digits_by_loop(n, seed).tobytes()


def stroke_digits_by_stroke_block(n, seed):
    """gen_stroke_digits with one (40, 28, 28) exp per stroke, each a new
    array, summed from a concatenated list; reference."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(97, 0)))
    out = np.zeros((n, 784))
    yy, xx = np.mgrid[0:28, 0:28]
    for i in range(n):
        img = np.zeros((28, 28))
        blobs = []
        n_strokes = rng.integers(2, 5)
        for _ in range(n_strokes):
            pts = rng.uniform(6, 22, size=(3, 2))
            t = np.linspace(0.0, 1.0, 40)[:, None]
            curve = ((1 - t) ** 2) * pts[0] + 2 * t * (1 - t) * pts[1] + (t ** 2) * pts[2]
            width = rng.uniform(0.8, 1.6)
            cy, cx = curve[:, 0, None, None], curve[:, 1, None, None]
            blobs.append(np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))))
        img = np.add.reduce(np.concatenate([img[None], *blobs]), axis=0)
        img = img / max(img.max(), 1e-12)
        img = np.clip(img * rng.uniform(0.9, 1.0), 0.0, 1.0)
        out[i] = np.round(img.reshape(784) * 255.0) / 255.0
    return out


@pytest.mark.parametrize("n, seed", [(1, 0), (5, 3), (30, 8), (64, 21)])
def test_stroke_digits_match_one_block_per_stroke(n, seed):
    assert (gen_stroke_digits(n, seed=seed).tobytes()
            == stroke_digits_by_stroke_block(n, seed).tobytes())
