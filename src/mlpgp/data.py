"""Benchmark regression datasets: Sine, Smooth XOR, and the Snelson loader."""

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "gen_sine", "gen_smooth_xor", "load_snelson"]

SQRT3 = np.sqrt(3.0)
# observation-noise variance of every dataset; the generated ones draw at it
NOISE_VAR = 0.1

SNELSON_ROWS = 200
SNELSON_TRAIN = 10


@dataclass
class Dataset:
    """Train/test regression data; the noise variance is NOISE_VAR."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        if self.X_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("train rows and targets disagree")
        if self.X_test.shape[0] != self.y_test.shape[0]:
            raise ValueError("test rows and targets disagree")

    @property
    def input_dim(self) -> int:
        return self.X_train.shape[1]


def _generated(seed: int, target, X_train: np.ndarray, draw_test) -> Dataset:
    # one default_rng(seed) draws the training noise, the test inputs
    # (draw_test(rng)) and the test noise, in that order
    rng = np.random.default_rng(seed)
    noise_train = rng.normal(0.0, np.sqrt(NOISE_VAR), X_train.shape[0])
    X_test = draw_test(rng)
    noise_test = rng.normal(0.0, np.sqrt(NOISE_VAR), X_test.shape[0])
    return Dataset(
        X_train=X_train,
        y_train=target(X_train) + noise_train,
        X_test=X_test,
        y_test=target(X_test) + noise_test,
    )


def gen_sine(seed: int) -> Dataset:
    """1-d problem y = sin(x) + eps, eps ~ N(0, 0.1 variance).

    10 training inputs on a uniform grid over [-sqrt(3), sqrt(3)] (endpoints
    included), 100 test inputs sampled uniformly on the same interval.
    """
    return _generated(
        seed, lambda X: np.sin(X[:, 0]),
        np.linspace(-SQRT3, SQRT3, 10)[:, None],
        lambda rng: np.sort(rng.uniform(-SQRT3, SQRT3, 100))[:, None])


def _xor_target(X: np.ndarray) -> np.ndarray:
    return -X[:, 0] * X[:, 1] * np.exp(2.0 - X[:, 0] ** 2 - X[:, 1] ** 2)


def gen_smooth_xor(seed: int) -> Dataset:
    """2-d problem y = -x1 x2 exp(2 - x1^2 - x2^2) + eps.

    The four sign permutations of (+-1, +-1) form the training set; test
    inputs are 100 points sampled uniformly on the square [-2, 2]^2.
    """
    return _generated(
        seed, _xor_target,
        np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
        lambda rng: rng.uniform(-2.0, 2.0, (100, 2)))


def load_snelson(path) -> Dataset:
    """Load the 200-pair Snelson data and split 10 train / 190 test.

    The file must hold 200 whitespace-separated finite (x, y) rows.  Rows are
    sorted by x and the training set takes 10 equally spaced ranks
    (endpoints included); the split is deterministic.
    """
    xs, ys = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected two columns, got {len(parts)}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite([x, y]).all():
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            xs.append(x)
            ys.append(y)
    if len(xs) != SNELSON_ROWS:
        raise ValueError(
            f"{path}: expected {SNELSON_ROWS} rows, found {len(xs)}")
    order = np.argsort(np.asarray(xs), kind="stable")
    x = np.asarray(xs)[order]
    y = np.asarray(ys)[order]
    train_idx = np.array(
        [round(k * (SNELSON_ROWS - 1) / (SNELSON_TRAIN - 1))
         for k in range(SNELSON_TRAIN)], dtype=int)
    test_mask = np.ones(SNELSON_ROWS, dtype=bool)
    test_mask[train_idx] = False
    return Dataset(
        X_train=x[train_idx][:, None],
        y_train=y[train_idx],
        X_test=x[test_mask][:, None],
        y_test=y[test_mask],
    )

