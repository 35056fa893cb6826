"""Where the evidence puts the kernel hyperparameters, and how depth moves it.

For each benchmark dataset and depth, evaluates the log marginal likelihood
over the (mu, sigma^2) plane and reports the unconstrained maximiser next to
the maximiser constrained to mu = 0.  Two regularities to look for:

  * the evidence maximum sits at mu != 0 for every dataset and depth;
  * with depth, the constrained maximum settles near sigma^2 = 2 while the
    unconstrained one slides down the negative-mu / growing-sigma^2 diagonal
    (the surface grows a long, narrow, increasingly ill-conditioned ridge).
"""

from mlpgp import GridSpec, LayerHyper, NetworkHyper, gen_sine, \
    gen_smooth_xor, grid_eval
from mlpgp.data import NOISE_VAR

GRID = GridSpec((-2.5, 1.0), (0.1, 8.0), 60)
DATASETS = [("sine", gen_sine(1)), ("smooth-xor", gen_smooth_xor(1))]

for name, ds in DATASETS:
    print(f"\n=== {name} (noise variance {NOISE_VAR}) ===")
    dim = ds.X_train.shape[1]
    print(f"{'depth':>5} | {'argmax (mu, s2)':>20} | {'mu=0 argmax s2':>14} | gap")
    for depth in (2, 4, 8, 16):
        template = NetworkHyper(0.0, dim, tuple([LayerHyper(0.0, 1.0)] * depth),
                                final_layer_linear=True)
        res = grid_eval(ds.X_train, ds.y_train, template, GRID,
                        target="log-ml", noise_var=NOISE_VAR)
        gap = res.argmax[2] - res.argmax_mu0[2]
        print(f"{depth:>5} | ({res.argmax[0]:+.2f}, {res.argmax[1]:.2f})"
              f"{'':>6} | {res.argmax_mu0[1]:>14.2f} | {gap:.3f}"
              + ("   <- mu != 0 wins" if gap > 0 else ""))
        if res.n_failed:
            print(f"{'':>5}   ({res.n_failed} cells are -inf: "
                  f"{res.n_vanished} signal vanished, "
                  f"{res.n_failed - res.n_vanished} not factorisable or "
                  "non-finite)")
