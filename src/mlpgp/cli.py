"""Command-line front end: deterministic, file-based experiment pipelines.

Every subcommand emits plot-ready CSV/JSON (17-significant-digit floats);
plotting itself is left to external tools.  All randomness flows from the
single --seed flag through named substreams, so identical flags give
byte-identical outputs under a fixed BLAS thread count (OPENBLAS_NUM_THREADS).
A different count can round some BLAS products differently: `prior-draws` at
default flags writes different bytes under 1 and 2 threads.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from .finite_net import IIDGaussian, NetworkShape, activations, get_scheme, \
    sample_weights
from .gp import FactorizationError, GPModel, posterior_predictive, \
    sample_prior, circle_traversal
from .hyper import GridSpec, HyperPrior, MHConfig, grid_eval, \
    marginal_predictive, mh_sample, substitute_hyper
from .kernels import NetworkHyper, VanishedSignalError, constant_hyper, \
    kernel_matrix
from .mmd import convergence_experiment

__all__ = ["main"]

ESTIMATORS = ("mle", "map", "mle-mu0", "map-mu0", "marginal")


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _subseed(seed: int, label: str) -> int:
    """Named substream of the master seed (stable across platforms)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dataset_arg(text: str) -> str:
    if text in ("sine", "xor") or text.startswith("snelson:"):
        return text
    raise argparse.ArgumentTypeError(
        f"unknown dataset {text!r}; expected sine, xor or snelson:PATH")


class _DatasetError(Exception):
    """A Snelson file that cannot be read or parsed."""


def _load_dataset(spec: str, seed: int) -> datamod.Dataset:
    if spec == "sine":
        return datamod.gen_sine(_subseed(seed, "dataset"))
    if spec == "xor":
        return datamod.gen_smooth_xor(_subseed(seed, "dataset"))
    try:
        return datamod.load_snelson(spec.split(":", 1)[1])
    except (OSError, ValueError) as exc:
        raise _DatasetError(exc) from None


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError(
            "grid must be mu_lo:mu_hi:sig_lo:sig_hi[:res]")
    try:
        lo, hi, slo, shi = (float(p) for p in parts[:4])
        res = int(parts[4]) if len(parts) == 5 else 200
        return GridSpec((lo, hi), (slo, shi), res)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(kind, test, rule: str):
    """argparse type: kind(text) must pass test (nan fails every test)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    return parse


def _count(minimum: int):
    return _checked(int, lambda v: v >= minimum, f">= {minimum}")


def _parse_widths(text: str):
    widths = tuple(_count(1)(w) for w in text.split(","))
    if any(b < a for a, b in zip(widths, widths[1:])):
        raise argparse.ArgumentTypeError("widths must be nondecreasing")
    return widths


def _template(args, input_dim: int, mu: float = 0.0,
              sigma2: float = 2.0) -> NetworkHyper:
    # --depth - 1 LReLU layers with (mu, sigma2) and a linear (0, 1) output
    # layer; at depth 1 the one linear layer takes (mu, sigma2).  fit, grid
    # and mh keep the defaults: substitute_hyper replaces all those layers
    net = constant_hyper(0.0, 1.0, args.depth, input_dim, args.slope)
    return substitute_hyper(net, mu, sigma2)


def _mse(pred, truth) -> float:
    return float(np.mean((np.asarray(pred) - np.asarray(truth)) ** 2))


def cmd_kernel_curve(args) -> int:
    """Normalised kernel against the input angle, optionally with an
    empirical estimate from a sampled finite network."""
    thetas = np.linspace(0.0, np.pi, args.n_theta)
    rot_rng = np.random.default_rng(_subseed(args.seed, "rotations"))
    weight_rng = np.random.default_rng(_subseed(args.seed, "weights"))
    net = constant_hyper(args.mu, np.sqrt(args.sigma2), args.depth, 2,
                         args.slope, final_layer_linear=False)
    rows = []
    header = ["theta0", "kernel"]
    if args.empirical_width:
        header.append("kernel_empirical")
    for theta in thetas:
        q, r = np.linalg.qr(rot_rng.standard_normal((2, 2)))
        q = q * np.sign(np.diag(r))
        x = q @ np.array([1.0, 0.0])
        y = q @ np.array([np.cos(theta), np.sin(theta)])
        K = kernel_matrix(np.stack([x, y]), np.stack([x, y]), net)
        row = [_fmt(theta), _fmt(K[0, 1] / np.sqrt(K[0, 0] * K[1, 1]))]
        if args.empirical_width:
            shape = NetworkShape(2, (args.empirical_width,) * args.depth)
            netw = sample_weights(shape, IIDGaussian(args.mu, np.sqrt(args.sigma2)),
                                  args.slope, weight_rng.spawn(1)[0])
            acts = activations(netw, np.stack([x, y]))[args.depth - 1]
            gram = acts @ acts.T / acts.shape[1]
            row.append(_fmt(gram[0, 1] / np.sqrt(gram[0, 0] * gram[1, 1])))
        rows.append(row)
    _write_csv(args.out, header, rows)
    return 0


def _grid_map_chain(args, dataset, template):
    """Hyper-posterior grid MAP, then an MH chain started there."""
    surface = grid_eval(dataset.X_train, dataset.y_train, template, args.grid,
                        target="log-posterior", noise_var=args.noise_var)
    init = surface.argmax[:2]
    config = MHConfig(burn_in=args.burn_in, thin=args.thin,
                      n_samples=args.mh_samples,
                      seed=_subseed(args.seed, "chain"))
    chain = mh_sample(dataset.X_train, dataset.y_train, template, HyperPrior(),
                      config, init, noise_var=args.noise_var)
    return init, chain


def cmd_fit(args) -> int:
    """Fit by grid MLE/MAP (optionally mu = 0 constrained) or by the
    MH-marginalised predictive; writes a JSON report and a predictive CSV."""
    dataset = _load_dataset(args.dataset, args.seed)
    X, y = dataset.X_train, dataset.y_train
    template = _template(args, dataset.input_dim)
    report = {
        "dataset": args.dataset,
        "estimator": args.estimator,
        "depth": args.depth,
        "slope": args.slope,
        "noise_var": args.noise_var,
        "seed": args.seed,
    }
    if args.estimator == "marginal":
        init, chain = _grid_map_chain(args, dataset, template)
        pred_test = marginal_predictive(dataset.X_test, X, y, template, chain,
                                        noise_var=args.noise_var)
        pred_train = marginal_predictive(X, X, y, template, chain,
                                         noise_var=args.noise_var)
        report["chain"] = {
            "acceptance_rate": chain.acceptance_rate,
            "map": chain.map_estimate(),
            "posterior_mean": chain.samples.mean(axis=0).tolist(),
            "n_samples": len(chain),
            "neg_inf_proposals": chain.n_neg_inf,
            "init": list(init),
            "skipped_predictions": pred_test.n_skipped,
        }
    else:
        target = "log-ml" if args.estimator.startswith("mle") else \
            "log-posterior"
        surface = grid_eval(X, y, template, args.grid, target=target,
                            noise_var=args.noise_var)
        mu, sig2, value = surface.argmax_mu0 \
            if args.estimator.endswith("-mu0") else surface.argmax
        model = GPModel(substitute_hyper(template, mu, sig2), args.noise_var)
        pred_test = posterior_predictive(dataset.X_test, X, y, model)
        pred_train = posterior_predictive(X, X, y, model)
        report["hyperparameters"] = {"mu": mu, "sigma2": sig2,
                                     "objective": value}
        report["grid_failed_cells"] = surface.n_failed
    report["train_mse"] = _mse(pred_train.mean, y)
    report["test_mse"] = _mse(pred_test.mean, dataset.y_test)
    out = Path(args.out)
    _write_json(out, report)
    d = dataset.input_dim
    header = [f"x{i + 1}" for i in range(d)] + ["y_true", "pred_mean", "pred_var"]
    rows = [[_fmt(v) for v in row] + [_fmt(t), _fmt(m), _fmt(s)]
            for row, t, m, s in zip(dataset.X_test, dataset.y_test,
                                    pred_test.mean, pred_test.var)]
    _write_csv(out.with_suffix(".csv"), header, rows)
    return 0


def cmd_grid(args) -> int:
    """Evidence or hyper-posterior surface as CSV plus argmax metadata."""
    dataset = _load_dataset(args.dataset, args.seed)
    template = _template(args, dataset.input_dim)
    result = grid_eval(dataset.X_train, dataset.y_train, template, args.grid,
                       target=args.target, noise_var=args.noise_var)
    header = ["mu/sigma2"] + [_fmt(s) for s in result.sig2_axis]
    rows = [[_fmt(mu)] + [_fmt(v) for v in row]
            for mu, row in zip(result.mu_axis, result.values)]
    out = Path(args.out)
    _write_csv(out, header, rows)
    meta = {
        "target": args.target,
        "argmax": {"mu": result.argmax[0], "sigma2": result.argmax[1],
                   "value": result.argmax[2]},
        "argmax_mu0": {"mu": result.argmax_mu0[0],
                       "sigma2": result.argmax_mu0[1],
                       "value": result.argmax_mu0[2]},
        "failed_cells": result.n_failed,
        "vanished_cells": result.n_vanished,
        "jitter_events": result.jitter_events,
        "mu_range": list(args.grid.mu_range),
        "sig2_range": list(args.grid.sig2_range),
        "resolution": args.grid.resolution,
    }
    _write_json(out.with_suffix(".json"), meta)
    if result.n_failed:
        print(f"warning: {result.n_failed} grid cells are -inf "
              f"({result.n_vanished} signal vanished, "
              f"{result.n_failed - result.n_vanished} not factorisable or "
              "non-finite)", file=sys.stderr)
    return 0


def cmd_mh(args) -> int:
    """Hyper-posterior MH chain as CSV (mu, sigma2, log_density)."""
    dataset = _load_dataset(args.dataset, args.seed)
    init, chain = _grid_map_chain(args, dataset,
                                  _template(args, dataset.input_dim))
    rows = [[_fmt(mu), _fmt(s2), _fmt(ld)]
            for (mu, s2), ld in zip(chain.samples, chain.log_densities)]
    _write_csv(args.out, ["mu", "sigma2", "log_density"], rows)
    print(f"acceptance rate {chain.acceptance_rate:.3f}; "
          f"chain MAP {chain.map_estimate()}; grid init {init}")
    return 0


def cmd_mmd(args) -> int:
    """Finite-width vs limiting-GP MMD^2 curve as CSV."""
    if args.scheme == "iid":
        scheme = IIDGaussian(args.mu, np.sqrt(args.sigma2))
    else:
        scheme = get_scheme(args.scheme, f4_sigma=args.f4_sigma)
    result = convergence_experiment(
        scheme, args.depth, args.widths, d_probe=args.probes,
        n_samples=args.mmd_samples, input_dim=args.input_dim,
        seed=_subseed(args.seed, "mmd"), a=args.slope)
    rows = [[str(w), _fmt(m), _fmt(lo), _fmt(hi)]
            for w, m, lo, hi in zip(result.widths, result.mmd2,
                                    result.null_lo, result.null_hi)]
    _write_csv(args.out, ["width", "mmd2", "null_low", "null_high"], rows)
    return 0


def cmd_prior_draws(args) -> int:
    """GP prior draws along a random great circle, as CSV columns."""
    points = circle_traversal(args.dim, args.n_points,
                              _subseed(args.seed, "probes"))
    net = _template(args, args.dim, args.mu, args.sigma2)
    draws = sample_prior(points, GPModel(net, 0.0), args.n_draws,
                         _subseed(args.seed, "draws"))
    t = np.linspace(0.0, 2.0 * np.pi, args.n_points, endpoint=False)
    header = ["t"] + [f"draw_{i + 1}" for i in range(args.n_draws)]
    rows = [[_fmt(tv)] + [_fmt(v) for v in draws[:, i]]
            for i, tv in enumerate(t)]
    _write_csv(args.out, header, rows)
    return 0


def _add_common(p, dataset=False, mh=False, _min_depth=1):
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", required=True, help="output path (CSV or JSON)")
    if dataset:
        p.add_argument("--dataset", required=True, type=_dataset_arg,
                       help="sine | xor | snelson:PATH")
        p.add_argument("--noise-var", default=datamod.NOISE_VAR,
                       type=_checked(float, lambda v: 0.0 <= v < math.inf,
                                     ">= 0 and finite"),
                       help="observation noise variance")
        p.add_argument("--grid", type=_parse_grid,
                       default=GridSpec(),
                       help="mu_lo:mu_hi:sig_lo:sig_hi[:res], default "
                            "-2.5:1.0:0.1:8.0:200")
    p.add_argument("--depth", type=_count(_min_depth), default=2,
                   help="number of layers")
    p.add_argument("--slope", default=0.0, help="LReLU slope",
                   type=_checked(float, lambda v: -1.0 < v < 1.0,
                                 "in (-1, 1)"))
    if not dataset:
        # fit, grid and mh take (mu, sigma2) from the grid and the chain
        p.add_argument("--mu", type=_checked(float, math.isfinite, "finite"),
                       default=0.0, help="layer weight mean")
        p.add_argument("--sigma2", default=2.0, help="layer weight variance",
                       type=_checked(float, lambda v: 0.0 < v < math.inf,
                                     "positive and finite"))
    if mh:
        p.add_argument("--mh-samples", type=_count(1), default=100)
        p.add_argument("--burn-in", type=_count(1), default=20)
        p.add_argument("--thin", type=_count(1), default=20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpgp",
        description="Limiting-GP models of wide LReLU networks: experiment "
                    "pipelines with deterministic CSV/JSON outputs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-curve",
                       help="normalised kernel vs input angle")
    _add_common(p)
    p.add_argument("--n-theta", type=_count(1), default=50)
    p.add_argument("--empirical-width", type=_count(0), default=0,
                   help="if > 0, add an empirical column from one finite "
                        "network of this width")
    p.set_defaults(func=cmd_kernel_curve)

    p = sub.add_parser("fit", help="GP regression with a chosen estimator")
    _add_common(p, dataset=True, mh=True)
    p.add_argument("--estimator", choices=ESTIMATORS, required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("grid", help="evidence / hyper-posterior surface")
    _add_common(p, dataset=True)
    p.add_argument("--target", choices=("log-ml", "log-posterior"),
                   default="log-ml")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("mh", help="hyper-posterior MH chain")
    _add_common(p, dataset=True, mh=True)
    p.set_defaults(func=cmd_mh)

    p = sub.add_parser("mmd", help="finite-width convergence MMD^2 curve")
    _add_common(p, _min_depth=2)  # the experiment needs a hidden layer
    p.add_argument("--scheme", choices=("iid", "f1", "f2", "f3", "f4"),
                   required=True)
    p.add_argument("--widths", type=_parse_widths, default=(16, 64, 256, 1024))
    p.add_argument("--mmd-samples", type=_count(2), default=2000)
    p.add_argument("--probes", type=_count(1), default=4)
    p.add_argument("--input-dim", type=_count(1), default=10)
    p.add_argument("--f4-sigma", choices=("table", "analytic"),
                   default="table")
    p.set_defaults(func=cmd_mmd)

    p = sub.add_parser("prior-draws", help="GP prior draws on a great circle")
    _add_common(p)
    p.add_argument("--dim", type=_count(2), default=10)
    p.add_argument("--n-points", type=_count(1), default=200)
    p.add_argument("--n-draws", type=_count(1), default=5)
    p.set_defaults(func=cmd_prior_draws)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FactorizationError, VanishedSignalError, _DatasetError) as exc:
        print(f"mlpgp {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
