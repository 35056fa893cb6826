import dataclasses
import tracemalloc

import numpy as np
import pytest

from mlpgp.finite_net import (IIDGaussian, NetworkShape, RCEScheme, forward,
                              get_scheme, sample_weights)
from mlpgp.gp import FactorizationError, _chol_with_jitter
from mlpgp.kernels import LayerHyper, VanishedSignalError, kernel_matrix
from mlpgp.mmd import (convergence_experiment, limiting_hyper, mmd2_unbiased,
                       permutation_null)
from mlpgp import mmd
from mlpgp.mmd import _gp_samples, _gram, _mlp_samples

SQRT2 = np.sqrt(2.0)


def test_mmd2_point_masses():
    u = np.zeros((50, 4))
    v = np.full((50, 4), 8.0)
    assert abs(mmd2_unbiased(u, v) - 2.0) < 1e-6


def test_mmd2_validation():
    with pytest.raises(ValueError):
        mmd2_unbiased(np.zeros((1, 4)), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        mmd2_unbiased(np.zeros((5, 4)), np.zeros((5, 3)))


def test_mmd2_symmetry_and_translation_invariance():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(40, 4))
    ys = rng.normal(size=(30, 4)) + 0.3
    assert mmd2_unbiased(xs, ys) == mmd2_unbiased(ys, xs)
    shift = rng.normal(size=4)
    a = mmd2_unbiased(xs, ys)
    b = mmd2_unbiased(xs + shift, ys + shift)
    assert abs(a - b) < 1e-12


def test_mmd2_identical_sets_structure():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(20, 4))
    # closed form for identical sets: within terms use n(n-1), cross n^2,
    # so the estimate reduces to (S - n)(1/(n(n-1)) * 2 - 2/n^2) ... check
    # directly against the definition instead
    from scipy.spatial.distance import cdist
    G = np.exp(-cdist(xs, xs, "sqeuclidean"))
    n = 20
    within = (G.sum() - np.trace(G)) / (n * (n - 1))
    cross = G.mean()
    assert abs(mmd2_unbiased(xs, xs) - (2 * within - 2 * cross)) < 1e-14


def test_mmd2_unbiasedness_sign_test():
    # same distribution both sides: the estimate straddles zero over trials
    rng = np.random.default_rng(3)
    signs = 0
    trials = 100
    for _ in range(trials):
        xs = rng.normal(size=(25, 3))
        ys = rng.normal(size=(25, 3))
        signs += mmd2_unbiased(xs, ys) > 0
    # binomial(100, .5): 3.5 sigma band
    assert abs(signs - 50) < 3.5 * 5.0


def test_permutation_null_brackets_null_cases():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(100, 4))
    ys = rng.normal(size=(100, 4))
    lo, hi = permutation_null(xs, ys, n_perm=200, seed=0)
    assert lo < 0 < hi
    assert lo <= mmd2_unbiased(xs, ys) <= hi


def test_permutation_null_validation(monkeypatch):
    # a one-sample set has no unbiased MMD^2 and no permutations give no
    # band; each is a ValueError of its own, as is a probe mismatch
    with pytest.raises(ValueError, match="two samples"):
        permutation_null([[1.0]], [[2.0], [3.0]])
    with pytest.raises(ValueError, match="probe dimension"):
        permutation_null(np.zeros((3, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="n_perm"):
        permutation_null(np.zeros((3, 2)), np.ones((3, 2)), n_perm=0)

    # the experiment rejects n_perm before it draws a single network
    def no_sampling(*args):
        raise AssertionError("sampled before checking n_perm")

    monkeypatch.setattr(mmd, "_mlp_samples", no_sampling)
    with pytest.raises(ValueError, match="n_perm"):
        convergence_experiment(get_scheme("f2"), 8, (512, 1024),
                               n_samples=2000, n_perm=0)


def test_limiting_hyper_structure():
    net = limiting_hyper(get_scheme("f2"), 5, 10, a=0.0)
    assert net.depth == 5
    assert net.layers[0] == LayerHyper(0.0, SQRT2)
    assert net.layers[-1] == LayerHyper(0.0, SQRT2)
    assert net.layers[1] == LayerHyper(-0.5, np.sqrt(8.0))
    # a net of depth 1 or 2 is all ends
    for depth in (1, 2):
        ends = limiting_hyper(get_scheme("f4"), depth, 10)
        assert ends.layers == (LayerHyper(0.0, SQRT2),) * depth
    # iid nets carry (mu, sigma) in every layer, whatever the latents
    for depth in (1, 2, 3, 6):
        iid = limiting_hyper(IIDGaussian(-0.3, 1.2), depth, 4)
        assert iid.layers == (LayerHyper(-0.3, 1.2),) * depth
    iid = limiting_hyper(IIDGaussian(-0.3, 1.2), 4, 4, A_values=[0.5, -1.0])
    assert iid.layers == (LayerHyper(-0.3, 1.2),) * 4
    # one A per hidden layer 2..L-1, for every scheme
    for scheme in (get_scheme("f4"), get_scheme("f1"), IIDGaussian(0.0, 1.0)):
        with pytest.raises(ValueError):
            limiting_hyper(scheme, 5, 10, A_values=[0.1])
        with pytest.raises(ValueError):
            limiting_hyper(scheme, 2, 10, A_values=[0.1])


def test_unsupported_scheme_is_a_type_error():
    S = np.zeros((2, 3))
    for bad in (object(), "f1", (0.0, 1.0)):
        with pytest.raises(TypeError):
            sample_weights(NetworkShape(3, (4,)), bad, 0.0, 0)
        with pytest.raises(TypeError):
            limiting_hyper(bad, 3, 3)
        with pytest.raises(TypeError):
            _mlp_samples(bad, 3, 4, S, 5, 0.0, np.random.SeedSequence(0))


def test_random_hyper_is_derived_from_the_hyperparameter_terms():
    # f4's four terms under a new name, with no flag: the GP limit still
    # marginalises over A, draw for draw as f4 does
    f4 = get_scheme("f4")
    clone = RCEScheme("f4-clone", scale=f4.scale, shift=f4.shift,
                      mu_of=f4.mu_of, sigma_of=f4.sigma_of)
    assert clone.random_hyper and f4.random_hyper
    S = np.random.default_rng(0).standard_normal((4, 10))
    want = _gp_samples(f4, 4, S, 300, 0.0, np.random.SeedSequence(2))
    got = _gp_samples(clone, 4, S, 300, 0.0, np.random.SeedSequence(2))
    assert got.tobytes() == want.tobytes()
    for name in ("f1", "f2", "f3"):
        assert not get_scheme(name).random_hyper
    assert not IIDGaussian(0.0, 1.0).random_hyper


def test_fast_sampler_matches_reference_distribution():
    # reference: one independent sample_weights + forward draw per sample
    S = np.random.default_rng(0).standard_normal((4, 10))
    shape = NetworkShape(10, (96,) * 3)
    for scheme in (get_scheme("f1"), get_scheme("f2"), get_scheme("f3"),
                   get_scheme("f4"), IIDGaussian(0.0, SQRT2)):
        fast = _mlp_samples(scheme, 4, 96, S, 3000, 0.0,
                            np.random.SeedSequence(1))
        ref = np.array([forward(sample_weights(shape, scheme, 0.0, child), S)
                        for child in np.random.SeedSequence(2).spawn(3000)])
        # same distribution: a mismatch would push the unbiased MMD^2 above
        # the permutation null band
        _, hi = permutation_null(fast, ref, n_perm=100, seed=3)
        assert mmd2_unbiased(fast, ref) <= hi


@pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
def test_mlp_samples_ignore_scheme_name(name):
    # the sampler reads the generator, never its name
    S = np.random.default_rng(0).standard_normal((3, 5))
    preset = get_scheme(name)
    renamed = dataclasses.replace(preset, name="renamed")
    want = _mlp_samples(preset, 4, 16, S, 40, 0.0, np.random.SeedSequence(6))
    got = _mlp_samples(renamed, 4, 16, S, 40, 0.0, np.random.SeedSequence(6))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", [get_scheme("f2"), get_scheme("f4"),
                                    IIDGaussian(0.3, SQRT2)],
                         ids=["f2", "f4", "iid-mu0.3"])
@pytest.mark.parametrize("a", [0.0, 0.3])
def test_mlp_samples_bits_do_not_depend_on_the_slab(monkeypatch, scheme, a):
    # one sample per slab, the default (ragged: 300 samples in slabs of 128
    # at width 64) and the whole chunk per slab all draw the same weights;
    # a small chunk budget runs several chunks on every side.  At the odd
    # width 33, a one-sample slab of 33^2 weights leaves a half-word
    # buffered for the next fill
    S = np.random.default_rng(0).standard_normal((4, 10))
    default = mmd.SLAB_BYTES

    def draw(width, slab_bytes):
        monkeypatch.setattr(mmd, "SLAB_BYTES", slab_bytes)
        return _mlp_samples(scheme, 4, width, S, 300, a,
                            np.random.SeedSequence(7)).tobytes()

    for width in (64, 33):
        for chunk_bytes in (mmd.CHUNK_BYTES, 2 ** 22):
            monkeypatch.setattr(mmd, "CHUNK_BYTES", chunk_bytes)
            want = draw(width, default)
            assert draw(width, 1) == want
            assert draw(width, 2 ** 40) == want


def _same_state(rng_a, rng_b):
    # every field of two SFC64 states, the buffered half-word included
    a, b = rng_a.bit_generator.state, rng_b.bit_generator.state
    return (np.array_equal(a.pop("state")["state"], b.pop("state")["state"])
            and a == b)


@pytest.mark.parametrize("raw_words", [mmd.RAW_WORDS, 3])
def test_uniform_fill_is_generator_random(monkeypatch, raw_words):
    # the raw-word fill against numpy's float32 fill on a twin generator:
    # the same bits, and the same state after each fill, through sequences
    # that start and end fills on a buffered half-word, with float64 draws
    # (which leave the buffered half alone) between the fills; 3 raw words
    # at a time also cross many raw-draw blocks
    monkeypatch.setattr(mmd, "RAW_WORDS", raw_words)
    for sizes in ([1, 2, 3, 7, 1001, 4096], [3, 4096, 1, 1, 2, 7],
                  [7, 1001, 2, 3, 2 ** 17 + 1, 4096, 1]):
        want_rng = np.random.Generator(np.random.SFC64(11))
        got_rng = np.random.Generator(np.random.SFC64(11))
        for n in sizes:
            want = np.empty((n, 1), dtype=np.float32)
            got = np.full((n, 1), np.nan, dtype=np.float32)
            want_rng.random(out=want, dtype=np.float32)
            mmd._uniform_fill(got_rng, got)
            assert got.view(np.uint32).tobytes() == \
                want.view(np.uint32).tobytes()
            assert _same_state(got_rng, want_rng)
            assert got_rng.random() == want_rng.random()
        assert _same_state(got_rng, want_rng)


@pytest.mark.parametrize("name", ["f1", "f2", "f4"])
@pytest.mark.parametrize("width", [16, 33])
def test_mlp_samples_match_the_generator_fill(monkeypatch, name, width):
    # the sampler with the raw-word fill has the bits of the same sampler
    # filling its uniforms with Generator.random
    S = np.random.default_rng(0).standard_normal((4, 10))

    def draw():
        return _mlp_samples(get_scheme(name), 4, width, S, 200, 0.3,
                            np.random.SeedSequence(8)).tobytes()

    got = draw()
    monkeypatch.setattr(mmd, "_uniform_fill", lambda rng, out: rng.random(
        out=out, dtype=np.float32))
    assert got == draw()


def test_mlp_samples_memory_is_bounded():
    # the weights are held one cache-sized slab at a time, not one 128 MB
    # chunk (whole-chunk buffers peak at 256 MB here)
    S = np.random.default_rng(0).standard_normal((4, 10))
    tracemalloc.start()
    try:
        _mlp_samples(get_scheme("f2"), 8, 512, S, 300, 0.0,
                     np.random.SeedSequence(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_gram_holds_one_array():
    # cdist's output is negated and exponentiated in place
    pooled = np.random.default_rng(0).standard_normal((4000, 4))
    tracemalloc.start()
    try:
        G = _gram(pooled, pooled)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * G.nbytes
    from scipy.spatial.distance import cdist
    want = np.exp(-cdist(pooled[:50], pooled[:50], "sqeuclidean"))
    assert G[:50, :50].tobytes() == want.tobytes()


def test_gp_vs_gp_self_consistency():
    # both sides drawn from the limiting model: MMD^2 within the null band
    from mlpgp.gp import sample_prior, GPModel
    net = limiting_hyper(get_scheme("f1"), 4, 10)
    S = np.random.default_rng(5).standard_normal((4, 10))
    xs = sample_prior(S, GPModel(net, 0.0), 400, seed=1)
    ys = sample_prior(S, GPModel(net, 0.0), 400, seed=2)
    lo, hi = permutation_null(xs, ys, n_perm=200, seed=4)
    assert lo <= mmd2_unbiased(xs, ys) <= hi


def test_gp_samples_f4_match_per_draw_reference():
    # reference: one kernel_matrix call and one Cholesky per GP draw, with
    # the draw's A values and z vector taken from the stream in turn
    f4 = get_scheme("f4")
    S = np.random.default_rng(0).standard_normal((4, 10))
    for depth in (4, 8):
        rng = np.random.default_rng(np.random.SeedSequence(0))
        want = np.empty((400, 4))
        for i in range(400):
            A_values = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), depth - 2)
            net = limiting_hyper(f4, depth, 10, 0.0, A_values)
            z = rng.standard_normal(4)
            try:
                K = kernel_matrix(S, S, net)
            except VanishedSignalError:
                want[i] = 0.0
                continue
            try:
                L, _ = _chol_with_jitter(K)
            except FactorizationError:
                assert np.max(np.abs(K)) < 1e-12
                want[i] = 0.0
                continue
            want[i] = L @ z
        got = _gp_samples(f4, depth, S, 400, 0.0, np.random.SeedSequence(0))
        assert got.tobytes() == want.tobytes()
        assert np.any(np.all(got == 0.0, axis=1))


def test_convergence_experiment_small():
    res = convergence_experiment(get_scheme("f1"), 4, (8, 64), d_probe=4,
                                 n_samples=300, input_dim=10, seed=0,
                                 n_perm=50)
    assert res.widths == (8, 64)
    assert res.mmd2[0] > res.mmd2[1]
    with pytest.raises(ValueError):
        convergence_experiment(get_scheme("f1"), 4, (64, 8), n_samples=10)
    # one sample has no unbiased MMD^2 (it came out nan); no probes gave
    # all-zero rows
    with pytest.raises(ValueError):
        convergence_experiment(get_scheme("f2"), 3, (8,), n_samples=1)
    with pytest.raises(ValueError):
        convergence_experiment(get_scheme("f2"), 3, (8,), d_probe=0,
                               n_samples=10)
    # a width below 1 has no hidden units (it divided by zero in the sampler)
    with pytest.raises(ValueError, match="widths"):
        convergence_experiment(get_scheme("f2"), 4, (0, 2), n_samples=20,
                               n_perm=5)


def test_convergence_experiment_random_hyper_scheme():
    res = convergence_experiment(get_scheme("f4", f4_sigma="analytic"), 3,
                                 (32, 128), d_probe=3, n_samples=200,
                                 input_dim=6, seed=1, n_perm=40)
    assert np.all(np.isfinite(res.mmd2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_f4_networks_converge_to_the_analytic_limit(seed):
    # ROADMAP item 5: at width 256 the f4 networks' MMD^2 lies inside the
    # null band against the analytic limit sqrt(2)|A + sqrt(3)|, and above
    # it against the default table limit 2|A + sqrt(3)|
    def at_256(convention):
        res = convergence_experiment(get_scheme("f4", f4_sigma=convention), 4,
                                     (16, 256), n_samples=500, seed=seed)
        return res.mmd2[-1], res.null_lo[-1], res.null_hi[-1]

    mmd2, lo, hi = at_256("analytic")
    assert lo <= mmd2 <= hi
    mmd2, lo, hi = at_256("table")
    assert mmd2 > hi
