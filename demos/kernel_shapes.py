"""How weight means reshape the limiting kernel.

Zero-mean LReLU networks have normalised kernels that depend on the input
angle alone and flatten toward 1 with depth, so deep draws degenerate into
near-constant functions.  Non-zero weight means break that collapse.  This
script traces the normalised kernel against the input angle for a few
hyperparameter settings and depths, and checks the theory against wide
finite networks along the way.
"""

import numpy as np

from mlpgp import (IIDGaussian, NetworkHyper, LayerHyper, NetworkShape,
                   activations, arccos_reference, kernel_matrix,
                   sample_weights)

SETTINGS = [(0.0, 2.0), (-2.0, 2.0), (-1.0, 2.0), (1.0, 2.0)]
DEPTHS = (1, 4, 16)
WIDTH = 3000

thetas = np.linspace(0.0, np.pi, 25)
rng = np.random.default_rng(0)

print("normalised kernel vs input angle (2-d inputs, slope a = 0)")
for mu, sig2 in SETTINGS:
    print(f"\n--- mu = {mu}, sigma^2 = {sig2} ---")
    for depth in DEPTHS:
        net = NetworkHyper(0.0, 2, tuple([LayerHyper(mu, np.sqrt(sig2))] * depth),
                           final_layer_linear=False)
        row = []
        for theta in thetas[:: len(thetas) // 6]:
            x = np.array([1.0, 0.0])
            y = np.array([np.cos(theta), np.sin(theta)])
            K = kernel_matrix(np.stack([x, y]), np.stack([x, y]), net)
            row.append(K[0, 1] / np.sqrt(K[0, 0] * K[1, 1]))
        print(f"L={depth:3d}:", " ".join(f"{v:+.3f}" for v in row))
    if mu == 0.0:
        # sanity: the zero-mean curve is exactly the closed-form recursion
        errs = []
        for theta in thetas:
            x = np.array([1.0, 0.0])
            y = np.array([np.cos(theta), np.sin(theta)])
            net = NetworkHyper(0.0, 2, tuple([LayerHyper(0.0, np.sqrt(2.0))] * 4),
                               final_layer_linear=False)
            K = kernel_matrix(np.stack([x, y]), np.stack([x, y]), net)
            errs.append(abs(K[0, 1] / np.sqrt(K[0, 0] * K[1, 1])
                            - arccos_reference(theta, 0.0, 4)))
        print(f"     zero-mean curve vs angle recursion: max err {max(errs):.1e}")

# empirical cross-check at one non-zero-mean setting: hidden-unit averages
# of a single wide network against the theory
print("\nempirical check at (mu, sigma^2) = (-1, 2), depth 2, width", WIDTH)
depth = 2
mu, sig2 = -1.0, 2.0
shape = NetworkShape(2, (WIDTH,) * depth)
for theta in np.linspace(0.1, np.pi - 0.1, 5):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)))
    x = q @ np.array([1.0, 0.0])
    y = q @ np.array([np.cos(theta), np.sin(theta)])
    net = NetworkHyper(0.0, 2, tuple([LayerHyper(mu, np.sqrt(sig2))] * depth),
                       final_layer_linear=False)
    K = kernel_matrix(np.stack([x, y]), np.stack([x, y]), net)
    theory = K[0, 1] / np.sqrt(K[0, 0] * K[1, 1])
    netw = sample_weights(shape, IIDGaussian(mu, np.sqrt(sig2)), 0.0,
                          seed=rng.integers(2 ** 32))
    acts = activations(netw, np.stack([x, y]))[depth - 1]
    g = acts @ acts.T / acts.shape[1]
    emp = g[0, 1] / np.sqrt(g[0, 0] * g[1, 1])
    print(f"theta0={theta:.2f}: theory {theory:+.4f}   width-{WIDTH} network {emp:+.4f}")
