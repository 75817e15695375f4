"""Dataset construction: synthetic sinusoids and 12x12 MNIST-style images.

Sinusoids are generated on a fixed 100-point grid over [-5, 5].  Images come
from IDX files (the classic big-endian MNIST container), center-cropped to
24x24 and block-averaged down to 12x12 so every pixel of the output is an
exact mean of four input pixels.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import rngs

GRID_POINTS = 100
GRID = np.linspace(-5.0, 5.0, GRID_POINTS)

AMPLITUDE_RANGE = (0.1, 1.0)
PHASE_RANGE = (0.0, 2.0 * np.pi)
FREQUENCY_RANGE = (0.5, 2.0)

IDX_IMAGES_MAGIC = 0x00000803

# raw MNIST image files: the (train, test) file names, see find_mnist_file
MNIST_STEMS = ("train-images-idx3-ubyte", "t10k-images-idx3-ubyte")


class IdxFormatError(ValueError):
    """IDX container violated: bad magic, truncation, or dimension mismatch."""


PARAM_RANGES = (("amplitude", AMPLITUDE_RANGE), ("frequency", FREQUENCY_RANGE),
                ("phase", PHASE_RANGE))


def _require_in_range(name: str, values, bounds: tuple[float, float]) -> None:
    lo, hi = bounds
    values = np.asarray(values, dtype=np.float64)
    bad = values[~((lo <= values) & (values <= hi))]
    if bad.size:
        raise ValueError(f"{name} {float(bad.flat[0])} outside [{lo}, {hi}]")


@dataclass
class SinusoidParams:
    amplitude: float
    frequency: float
    phase: float

    def __post_init__(self):
        for name, bounds in PARAM_RANGES:
            _require_in_range(name, getattr(self, name), bounds)

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "SinusoidParams":
        return cls(
            amplitude=rng.uniform(*AMPLITUDE_RANGE),
            frequency=rng.uniform(*FREQUENCY_RANGE),
            phase=rng.uniform(*PHASE_RANGE),
        )


def gen_sinusoid(params: SinusoidParams, second: SinusoidParams | None = None) -> np.ndarray:
    """y = A sin(wx + b) on the grid; superposition of two when `second` given."""
    y = params.amplitude * np.sin(params.frequency * GRID + params.phase)
    if second is not None:
        y = y + second.amplitude * np.sin(second.frequency * GRID + second.phase)
    return y


def gen_sinusoid_dataset(
    n_train: int = 2880,
    n_test: int = 720,
    mode: str = "single",
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) complete-data matrices from disjoint RNG substreams."""
    if mode not in ("single", "double"):
        raise ValueError(f"mode must be 'single' or 'double', got {mode!r}")

    terms = 2 if mode == "double" else 1
    lo, hi = np.array([bounds for _, bounds in PARAM_RANGES] * terms).T

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        # the doubles SinusoidParams.sample draws row after row, in one block
        params = rng.uniform(lo, hi, size=(n, 3 * terms)).reshape(n, terms, 3)
        for j, (name, bounds) in enumerate(PARAM_RANGES):
            _require_in_range(name, params[..., j], bounds)
        amplitude, frequency, phase = (params[..., j, None] for j in range(3))
        # (n, terms, GRID_POINTS): gen_sinusoid's formula per row and term
        y = amplitude * np.sin(frequency * GRID + phase)
        return y[:, 0] if terms == 1 else y[:, 0] + y[:, 1]

    train = draw(n_train, rngs.substream(seed, rngs.DATA_TRAIN))
    test = draw(n_test, rngs.substream(seed, rngs.DATA_TEST))
    return train, test


def load_mnist_idx(images_path, n_limit: int | None = None) -> np.ndarray:
    """Images from an IDX file as (n, 784) float64 in [0,1]: all of them, or
    the first n_limit.  Only the images kept are converted to float64."""
    with open(images_path, "rb") as f:
        header = f.read(16)
        size = os.fstat(f.fileno()).st_size
        if len(header) < 16:
            raise IdxFormatError(f"{images_path}: truncated header ({size} bytes)")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        expected = 16 + count * rows * cols
        if size != expected:
            raise IdxFormatError(
                f"{images_path}: {size} bytes, expected {expected} for "
                f"{count} images of {rows}x{cols}"
            )
        n = count if n_limit is None else min(n_limit, count)
        pixels = np.fromfile(f, dtype=np.uint8, count=n * rows * cols)
    images = pixels.reshape(n, rows * cols).astype(np.float64)
    images /= 255.0
    return images


def find_mnist_file(directory, stem: str) -> str:
    """Path of an MNIST IDX file in directory: the stem itself, or its dotted
    spelling (train-images.idx3-ubyte) that some mirrors use."""
    for name in (stem, stem.replace("-idx", ".idx")):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"missing file: {os.path.join(directory, stem)}")


def write_idx_images(path, images: np.ndarray, rows: int = 28, cols: int = 28) -> None:
    """Inverse of load_mnist_idx for building fixtures; expects values in [0,1]."""
    images = np.asarray(images)
    n = images.shape[0]
    u8 = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(u8.tobytes())


def crop_resize_12(image: np.ndarray) -> np.ndarray:
    """28x28 -> drop the 2-pixel border -> 2x2 block average -> 144 vector."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape == (784,):
        image = image.reshape(28, 28)
    if image.shape != (28, 28):
        raise ValueError(f"expected 28x28 image, got shape {image.shape}")
    crop = image[2:26, 2:26]
    small = crop.reshape(12, 2, 12, 2).mean(axis=(1, 3))
    return small.reshape(144)


def mnist12_dataset(images_path, n_limit: int | None = None) -> np.ndarray:
    """Complete-data matrix (n, 144) from a 28x28 IDX file: all of its
    images, or the first n_limit."""
    images = load_mnist_idx(images_path, n_limit)
    out = np.zeros((images.shape[0], 144))
    for i in range(images.shape[0]):
        out[i] = crop_resize_12(images[i])
    return out


def gen_stroke_digits(n: int, seed: int = 0) -> np.ndarray:
    """Synthetic 28x28 digit-like stroke images in [0,1], shape (n, 784).

    Stand-in corpus with MNIST-like statistics (dark background, bright
    connected strokes, centered mass) for exercising the image pipeline when
    the real files are not on disk.  Not a substitute for reported numbers.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(97, 0)))
    out = np.zeros((n, 784))
    grid = np.arange(28.0)
    t = np.linspace(0.0, 1.0, 40)[:, None]
    for i in range(n):
        n_strokes = rng.integers(2, 5)
        # row 0 stands for the blank image the blobs are added to
        stack = np.empty((1 + 40 * n_strokes, 28, 28))
        stack[0] = 0.0
        for s in range(n_strokes):
            # quadratic Bezier stroke through the central region
            pts = rng.uniform(6, 22, size=(3, 2))
            curve = ((1 - t) ** 2) * pts[0] + 2 * t * (1 - t) * pts[1] + (t ** 2) * pts[2]
            width = rng.uniform(0.8, 1.6)
            # one Gaussian blob per centre point, a (40, 28, 28) block
            blobs = stack[1 + 40 * s:1 + 40 * (s + 1)]
            np.add((grid[:, None] - curve[:, 0, None, None]) ** 2,
                   (grid - curve[:, 1, None, None]) ** 2, out=blobs)
            blobs /= -(2 * width ** 2)
            np.exp(blobs, out=blobs)
        # summed over axis 0 one blob after another, as adding each in turn would
        img = np.add.reduce(stack, axis=0)
        img = img / max(img.max(), 1e-12)
        img = np.clip(img * rng.uniform(0.9, 1.0), 0.0, 1.0)
        # quantize like u8 pixel data
        out[i] = np.round(img.reshape(784) * 255.0) / 255.0
    return out
