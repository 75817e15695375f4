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
IDX_LABELS_MAGIC = 0x00000801

# raw MNIST image files: the (train, test) file names, see find_mnist_file
MNIST_STEMS = ("train-images-idx3-ubyte", "t10k-images-idx3-ubyte")


class IdxFormatError(ValueError):
    """IDX container violated: bad magic, truncation, or dimension mismatch."""


@dataclass
class SinusoidParams:
    amplitude: float
    frequency: float
    phase: float

    def __post_init__(self):
        lo, hi = AMPLITUDE_RANGE
        if not (lo <= self.amplitude <= hi):
            raise ValueError(f"amplitude {self.amplitude} outside [{lo}, {hi}]")
        lo, hi = FREQUENCY_RANGE
        if not (lo <= self.frequency <= hi):
            raise ValueError(f"frequency {self.frequency} outside [{lo}, {hi}]")
        lo, hi = PHASE_RANGE
        if not (lo <= self.phase <= hi):
            raise ValueError(f"phase {self.phase} outside [{lo}, {hi}]")

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

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros((n, GRID_POINTS))
        for i in range(n):
            p = SinusoidParams.sample(rng)
            q = SinusoidParams.sample(rng) if mode == "double" else None
            out[i] = gen_sinusoid(p, q)
        return out

    train = draw(n_train, rngs.substream(seed, rngs.DATA_TRAIN))
    test = draw(n_test, rngs.substream(seed, rngs.DATA_TEST))
    return train, test


def load_mnist_idx(images_path, labels_path=None):
    """Images from an IDX file as (n, 784) float64 in [0,1]; labels optional.

    Returns images, or (images, labels) when labels_path is given.
    """
    with open(images_path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise IdxFormatError(f"{images_path}: truncated header ({len(raw)} bytes)")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(
            f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise IdxFormatError(
            f"{images_path}: {len(raw)} bytes, expected {expected} for "
            f"{count} images of {rows}x{cols}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).astype(np.float64) / 255.0
    images = pixels.reshape(count, rows * cols)

    if labels_path is None:
        return images

    with open(labels_path, "rb") as f:
        raw_l = f.read()
    if len(raw_l) < 8:
        raise IdxFormatError(f"{labels_path}: truncated header ({len(raw_l)} bytes)")
    magic_l, count_l = struct.unpack(">II", raw_l[:8])
    if magic_l != IDX_LABELS_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: bad magic 0x{magic_l:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    if len(raw_l) != 8 + count_l:
        raise IdxFormatError(f"{labels_path}: {len(raw_l)} bytes for {count_l} labels")
    if count_l != count:
        raise IdxFormatError(f"{count} images but {count_l} labels")
    labels = np.frombuffer(raw_l, dtype=np.uint8, offset=8).astype(np.int64)
    return images, labels


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


def write_idx_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


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
    """Complete-data matrix (n, 144) from a 28x28 IDX file."""
    images = load_mnist_idx(images_path)
    if n_limit is not None:
        images = images[:n_limit]
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
    yy, xx = np.mgrid[0:28, 0:28]
    for i in range(n):
        img = np.zeros((28, 28))
        n_strokes = rng.integers(2, 5)
        for _ in range(n_strokes):
            # quadratic Bezier stroke through the central region
            pts = rng.uniform(6, 22, size=(3, 2))
            t = np.linspace(0.0, 1.0, 40)[:, None]
            curve = ((1 - t) ** 2) * pts[0] + 2 * t * (1 - t) * pts[1] + (t ** 2) * pts[2]
            width = rng.uniform(0.8, 1.6)
            for cy, cx in curve:
                img += np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2)))
        img = img / max(img.max(), 1e-12)
        img = np.clip(img * rng.uniform(0.9, 1.0), 0.0, 1.0)
        # quantize like u8 pixel data
        out[i] = np.round(img.reshape(784) * 255.0) / 255.0
    return out
