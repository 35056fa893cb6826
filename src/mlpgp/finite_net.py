"""Finite-width random MLPs under iid-Gaussian and row-column-exchangeable priors.

The exchangeable priors follow the representation F(A, B, C, D) with latent
variables iid uniform on [-sqrt(3), sqrt(3)]; hidden layers are centred and
scaled so the limiting kernel hyperparameters stay finite, while the first
and last layers keep independent zero-mean Gaussian priors.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "NetworkShape",
    "IIDGaussian",
    "RCEScheme",
    "WeightScheme",
    "layer_prior",
    "SampledNetwork",
    "get_scheme",
    "sample_weights",
    "forward",
    "activations",
    "dump_weights",
    "load_weights",
]

SQRT3 = np.sqrt(3.0)
SQRT2 = np.sqrt(2.0)

# zero-mean Gaussian scale for the first and last layers in RCE mode
END_SIGMA = SQRT2


@dataclass(frozen=True)
class NetworkShape:
    """Finite widths: input_dim -> widths[0] -> ... -> output_dim."""

    input_dim: int
    widths: Tuple[int, ...]
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.input_dim < 1 or self.output_dim < 1 or not self.widths:
            raise ValueError("all dimensions must be >= 1")
        if any(w < 1 for w in self.widths):
            raise ValueError("hidden widths must be >= 1")

    @property
    def n_layers(self) -> int:
        return len(self.widths) + 1

    def layer_dims(self) -> List[Tuple[int, int]]:
        sizes = [self.input_dim, *self.widths, self.output_dim]
        return [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]


@dataclass(frozen=True)
class IIDGaussian:
    """Independent Gaussian prior (mu, sigma) on every weight of a layer."""

    mu: float
    sigma: float
    name: ClassVar[str] = "iid"
    random_hyper: ClassVar[bool] = False

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def hyperparams(self, A=0.0) -> Tuple:
        """(mu, sigma) of the limiting kernel; the same at every latent A."""
        return self.mu, self.sigma


def _term(f, *latents):
    return f(*latents) if callable(f) else f


@dataclass(frozen=True)
class RCEScheme:
    """Row-column-exchangeable generator W ~ F(A, B_j, C_i, D_ji).

    The generator is affine in D given the latents:
    F = scale(A) D + shift(A, C), so shift is also the conditional mean
    E_D[F] used for centring.  mu_of / sigma_of give the limiting kernel
    hyperparameters of the layer.  Each term is a number or a callable of
    the latents it reads; the GP limit marginalises over A exactly when
    mu_of or sigma_of is a callable (random_hyper).
    """

    name: str
    scale: Union[float, Callable]
    shift: Union[float, Callable]
    mu_of: Union[float, Callable]
    sigma_of: Union[float, Callable]

    @property
    def random_hyper(self) -> bool:
        return callable(self.mu_of) or callable(self.sigma_of)

    def affine(self, A, C) -> Tuple:
        """(scale, shift) of the generator given the latents A and C."""
        return _term(self.scale, A), _term(self.shift, A, C)

    def hyperparams(self, A=0.0) -> Tuple:
        """(mu, sigma) of the limiting kernel at latent A: a float or array."""
        return _term(self.mu_of, A), _term(self.sigma_of, A)


WeightScheme = Union[IIDGaussian, RCEScheme]


def layer_prior(scheme: WeightScheme, l: int, n_layers: int) -> WeightScheme:
    """Weight prior of layer l (1-based) of an n_layers-layer network.

    RCE networks keep zero-mean Gaussians at scale END_SIGMA in their first
    and last layers and draw every other layer from the scheme; iid
    networks use the scheme in every layer.
    """
    if isinstance(scheme, IIDGaussian):
        return scheme
    if not isinstance(scheme, RCEScheme):
        raise TypeError(f"unsupported weight scheme {type(scheme).__name__}")
    if l == 1 or l == n_layers:
        return IIDGaussian(0.0, END_SIGMA)
    return scheme


def _f4_sigma(convention: str) -> Callable:
    # Table value is 2|A + sqrt(3)|; the variance of sqrt(2) D (A + sqrt(3))
    # with unit-variance D works out to 2 (A + sqrt(3))^2, i.e. sqrt(2)|A +
    # sqrt(3)|.  Both are exposed; nothing picks silently between them.
    if convention == "table":
        return lambda A: 2.0 * abs(A + SQRT3)
    if convention == "analytic":
        return lambda A: SQRT2 * abs(A + SQRT3)
    raise ValueError("f4 sigma convention must be 'table' or 'analytic'")


def get_scheme(name: str, f4_sigma: str = "table") -> RCEScheme:
    """Preset exchangeable generators F1-F4."""
    key = name.lower()
    if key == "f1":
        return RCEScheme("f1", scale=SQRT2, shift=0.0,
                         mu_of=0.0, sigma_of=SQRT2)
    if key == "f2":
        return RCEScheme("f2", scale=2.0 * SQRT2, shift=-0.5,
                         mu_of=-0.5, sigma_of=np.sqrt(8.0))
    if key == "f3":
        return RCEScheme("f3", scale=SQRT2, shift=lambda A, C: -1.5 * A * C,
                         mu_of=0.0, sigma_of=SQRT2)
    if key == "f4":
        return RCEScheme(
            "f4",
            scale=lambda A: SQRT2 * (A + SQRT3),
            shift=lambda A, C: -0.1 * A * A * C * C - 0.4,
            mu_of=lambda A: -0.1 * A * A - 0.4,
            sigma_of=_f4_sigma(f4_sigma),
        )
    raise ValueError(f"unknown scheme {name!r}; expected f1..f4")


@dataclass
class SampledNetwork:
    """Concrete weight draw: per-layer matrices plus the RCE latents used."""

    weights: List[np.ndarray]
    slope_a: float
    latents: List[Optional[Tuple[float, np.ndarray, np.ndarray]]] = field(
        default_factory=list, repr=False)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def _uniform_latent(rng, shape=None):
    if shape is None:
        return float(rng.random() * (2.0 * SQRT3) - SQRT3)
    out = rng.random(shape)
    out *= 2.0 * SQRT3
    out -= SQRT3
    return out


def sample_weights(shape: NetworkShape, scheme: WeightScheme, a: float,
                   seed) -> SampledNetwork:
    """Draw one network, each layer from its layer_prior.

    Gaussian layers use W = (sigma Z + mu / sqrt(n)) / sqrt(n).  RCE layers
    sample the latents uniform on [-sqrt(3), sqrt(3)] and centre the
    generator as W = (F - E_D[F](1 - 1/sqrt(n))) / sqrt(n).

    Layers draw from split substreams of `seed`, so the draw for layer l
    does not depend on the widths of other layers.
    """
    if isinstance(seed, np.random.Generator):
        master = seed
    else:
        master = np.random.Generator(np.random.SFC64(seed))
    layer_rngs = master.spawn(shape.n_layers)
    dims = shape.layer_dims()
    weights: List[np.ndarray] = []
    latents: List[Optional[Tuple[float, np.ndarray, np.ndarray]]] = []
    for l, ((n_out, n_in), rng) in enumerate(zip(dims, layer_rngs), start=1):
        root_n = np.sqrt(n_in)
        prior = layer_prior(scheme, l, shape.n_layers)
        if isinstance(prior, IIDGaussian):
            z = rng.standard_normal((n_out, n_in))
            z *= prior.sigma
            z += prior.mu / root_n
            z /= root_n
            weights.append(z)
            latents.append(None)
        else:
            A = _uniform_latent(rng)
            B = _uniform_latent(rng, (n_out, 1))
            C = _uniform_latent(rng, (1, n_in))
            D = _uniform_latent(rng, (n_out, n_in))
            scale, shift = prior.affine(A, C)
            centred = scale * D + shift - shift * (1.0 - 1.0 / root_n)
            centred /= root_n
            weights.append(centred)
            latents.append((A, B, C))
    return SampledNetwork(weights, a, latents)


def _lrelu(z: np.ndarray, a: float) -> np.ndarray:
    return np.maximum(a * z, z)


def activations(netw: SampledNetwork, X) -> List[np.ndarray]:
    """Per-layer signals for inputs X: LReLU outputs, linear in the last layer."""
    h = np.atleast_2d(np.asarray(X, dtype=float))
    if h.shape[1] != netw.weights[0].shape[1]:
        raise ValueError(
            f"input width {h.shape[1]} does not match first layer "
            f"fan-in {netw.weights[0].shape[1]}")
    out = []
    last = len(netw.weights) - 1
    for l, W in enumerate(netw.weights):
        z = h @ W.T
        h = z if l == last else _lrelu(z, netw.slope_a)
        out.append(h)
    return out


def forward(netw: SampledNetwork, X) -> np.ndarray:
    """Network outputs for the input rows of X (linear final layer)."""
    out = activations(netw, X)[-1]
    return out[:, 0] if out.shape[1] == 1 else out


def dump_weights(netw: SampledNetwork, directory) -> Path:
    """Write one little-endian float64 .bin per layer plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"slope_a": netw.slope_a, "layers": []}
    for i, W in enumerate(netw.weights):
        fname = f"layer_{i:02d}.bin"
        W.astype("<f8").tofile(directory / fname)
        manifest["layers"].append({"file": fname, "shape": list(W.shape)})
    path = directory / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def load_weights(directory) -> SampledNetwork:
    """Round-trip loader for dump_weights output."""
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    weights = []
    for entry in manifest["layers"]:
        raw = np.fromfile(directory / entry["file"], dtype="<f8")
        weights.append(raw.reshape(entry["shape"]))
    return SampledNetwork(weights, manifest["slope_a"], [None] * len(weights))
