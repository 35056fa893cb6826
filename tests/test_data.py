import numpy as np
import pytest

from mlpgp.data import (NOISE_VAR, Dataset, _xor_target, gen_sine,
                        gen_smooth_xor, load_snelson)

SQRT3 = np.sqrt(3.0)


def test_gen_sine_layout():
    ds = gen_sine(0)
    assert ds.X_train.shape == (10, 1)
    assert ds.X_test.shape == (100, 1)
    assert ds.X_train[0, 0] == -SQRT3
    assert ds.X_train[-1, 0] == SQRT3
    assert np.all(np.abs(ds.X_test) <= SQRT3)


def test_gen_sine_noise_recoverable_and_deterministic():
    # the training noise y - sin(x) is the seed's first NOISE_VAR draws
    ds = gen_sine(7)
    noise = np.random.default_rng(7).normal(0.0, np.sqrt(NOISE_VAR), 10)
    assert np.allclose(ds.y_train - np.sin(ds.X_train[:, 0]), noise,
                       rtol=0, atol=1e-14)
    again = gen_sine(7)
    assert np.array_equal(ds.y_train, again.y_train)
    assert np.array_equal(ds.X_test, again.X_test)
    other = gen_sine(8)
    assert not np.array_equal(ds.y_train, other.y_train)


def test_gen_smooth_xor_targets():
    ds = gen_smooth_xor(3)
    assert ds.X_train.shape == (4, 2)
    corners = {tuple(row) for row in ds.X_train}
    assert corners == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    clean = _xor_target(ds.X_train)
    for row, value in zip(ds.X_train, clean):
        want = -row[0] * row[1] * np.exp(2 - row[0] ** 2 - row[1] ** 2)
        assert abs(value - want) < 1e-14
    # corner values are -/+1 before noise
    idx = {tuple(r): i for i, r in enumerate(ds.X_train)}
    assert abs(clean[idx[(1, 1)]] + 1.0) < 1e-14
    assert abs(clean[idx[(1, -1)]] - 1.0) < 1e-14
    assert ds.X_test.shape == (100, 2)
    assert np.all(np.abs(ds.X_test) <= 2.0)
    # x1 = 0 kills the target
    assert _xor_target(np.array([[0.0, 1.7]]))[0] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_generated_datasets_follow_one_draw_order(seed):
    # one default_rng(seed) draws the training noise, the test inputs and the
    # test noise, in that order; the hyper-fit benchmark's inputs depend on it
    sd = np.sqrt(0.1)
    rng = np.random.default_rng(seed)
    x_train = np.linspace(-SQRT3, SQRT3, 10)
    e_train = rng.normal(0.0, sd, 10)
    x_test = np.sort(rng.uniform(-SQRT3, SQRT3, 100))
    e_test = rng.normal(0.0, sd, 100)
    want_sine = (x_train[:, None], np.sin(x_train) + e_train, x_test[:, None],
                 np.sin(x_test) + e_test)
    rng = np.random.default_rng(seed)
    X_train = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    e_train = rng.normal(0.0, sd, 4)
    X_test = rng.uniform(-2.0, 2.0, (100, 2))
    e_test = rng.normal(0.0, sd, 100)

    def xor(X):
        return -X[:, 0] * X[:, 1] * np.exp(2.0 - X[:, 0] ** 2 - X[:, 1] ** 2)

    want_xor = (X_train, xor(X_train) + e_train, X_test, xor(X_test) + e_test)
    for ds, want in ((gen_sine(seed), want_sine),
                     (gen_smooth_xor(seed), want_xor)):
        got = (ds.X_train, ds.y_train, ds.X_test, ds.y_test)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)


def _write_snelson(path, n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 6.0, n))
    y = np.sin(x) + 0.1 * rng.standard_normal(n)
    with open(path, "w") as fh:
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.17g} {yi:.17g}\n")
    return x, y


def test_load_snelson_split(tmp_path):
    path = tmp_path / "snelson.txt"
    x, y = _write_snelson(path)
    ds = load_snelson(path)
    assert ds.X_train.shape == (10, 1)
    assert ds.X_test.shape == (190, 1)
    # endpoints of the sorted data are training points
    assert ds.X_train[0, 0] == x.min()
    assert ds.X_train[-1, 0] == x.max()
    # no overlap and everything accounted for
    all_x = np.sort(np.concatenate([ds.X_train[:, 0], ds.X_test[:, 0]]))
    assert np.array_equal(all_x, np.sort(x))
    # equally spaced ranks
    ranks = np.searchsorted(np.sort(x), ds.X_train[:, 0])
    want = [round(k * 199 / 9) for k in range(10)]
    assert list(ranks) == want


def test_load_snelson_errors(tmp_path):
    short = tmp_path / "short.txt"
    _write_snelson(short, n=199)
    with pytest.raises(ValueError, match="199"):
        load_snelson(short)
    bad = tmp_path / "bad.txt"
    with open(bad, "w") as fh:
        fh.write("1.0 2.0\n")
        fh.write("3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_snelson(bad)
    notnum = tmp_path / "notnum.txt"
    with open(notnum, "w") as fh:
        fh.write("1.0 2.0\n")
        fh.write("x 3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_snelson(notnum)


@pytest.mark.parametrize("row", ["nan 1.0", "1.0 inf", "-inf 0.5"])
def test_load_snelson_rejects_non_finite_values(tmp_path, row):
    # a NaN or infinite x or y would only surface as -inf grid cells
    path = tmp_path / "snelson.txt"
    _write_snelson(path)
    lines = path.read_text().splitlines()
    lines[0] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}: line 1: non-finite"):
        load_snelson(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros(2), np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.zeros(2), np.zeros((3, 1)), np.zeros(1))
