"""Per-layer tracing from outside the library.

The tracer wraps library functions by rebinding, in every loaded `mlpgp`
module, each attribute that refers to the wrapped function, so callers
that look the name up at call time (module globals, `from x import f`
copies) reach the wrapper.  Nothing under `src/` changes.

While a traced job runs, each wrapped call either opens a span (name,
layer, start, end, parent, job id) or only bumps a counter.  Spans stay in
memory and are written out when the run ends.  A target that a later
refactor removes, or whose arguments a hook can no longer read, is
reported as absent and its metrics as null; tracing never raises.
"""

import csv
import importlib
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from stats import self_times

LAYERS = ("special", "kernels", "gp", "hyper", "finite_net", "mmd")

# |rho| bins of bvn_cdf's three regimes
STRONG_RHO = 0.925
DEGENERATE_RHO = 1.0 - 1e-15

_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# --- counting hooks: (tracer, args, kwargs, result) -------------------------

def _bvn_before(t, args, kwargs):
    h = np.asarray(_arg(args, kwargs, 0, "h"), dtype=float)
    k = np.asarray(_arg(args, kwargs, 1, "k"), dtype=float)
    rho = np.asarray(_arg(args, kwargs, 2, "rho"), dtype=float)
    a = np.abs(np.broadcast_to(rho, np.broadcast_shapes(h.shape, k.shape,
                                                        rho.shape)))
    degenerate = int(np.count_nonzero(a >= DEGENERATE_RHO))
    strong = int(np.count_nonzero(a > STRONG_RHO)) - degenerate
    t.count("bvn.evals", a.size)
    t.count("bvn.degenerate", degenerate)
    t.count("bvn.strong", strong)
    t.count("bvn.moderate", a.size - strong - degenerate)


def _kernel_matrix_before(t, args, kwargs):
    X = np.atleast_2d(_arg(args, kwargs, 0, "X"))
    Y = np.atleast_2d(_arg(args, kwargs, 1, "Y"))
    net = _arg(args, kwargs, 2, "net")
    entries = X.shape[0] * Y.shape[0]
    # moment-map (LReLU) layers: a linear output layer maps no moments
    layers = net.depth - 1 if net.final_layer_linear else net.depth
    t.count("km.calls")
    t.count("km.entries", entries)
    t.count("km.entry_layers", entries * layers)
    if entries * layers > t.largest_gram[0]:
        t.largest_gram = (entries * layers, args, kwargs)


def _kernel_matrix_error(t, exc):
    if type(exc).__name__ == "VanishedSignalError":
        t.count("km.vanished")


def _chol_after(t, args, kwargs, result):
    K = np.asarray(_arg(args, kwargs, 0, "K"))
    jitter = float(result[1])
    ladder = t.modules["gp"]._JITTER_LADDER
    scale = float(np.mean(np.diag(K))) if K.size else 1.0
    if scale <= 0.0:
        scale = 1.0
    step = int(np.argmin(np.abs(np.asarray(ladder) - jitter / scale)))
    t.count("chol.attempts", step + 1)
    t.count("chol.ok")


def _chol_error(t, exc):
    if type(exc).__name__ != "FactorizationError":
        return
    t.count("chol.failures")
    if "non-finite" not in str(exc):
        t.count("chol.attempts", len(t.modules["gp"]._JITTER_LADDER))


def _grid_after(t, args, kwargs, result):
    t.count("grid.cells", int(np.size(result.values)))
    t.count("grid.failed", int(result.n_failed))


def _mh_after(t, args, kwargs, result):
    config = _arg(args, kwargs, 4, "config")
    t.count("mh.steps", config.burn_in + config.thin * config.n_samples)
    t.count("mh.acceptance", result.acceptance_rate)


def _log_posterior_after(t, args, kwargs, logp):
    def counted(theta):
        value = logp(theta)
        if value == -np.inf:
            t.count("mh.neg_inf")
        return value
    return counted


def _marginal_after(t, args, kwargs, result):
    t.count("mp.skipped", int(result.n_skipped))


def _mlp_before(t, args, kwargs):
    depth = int(_arg(args, kwargs, 1, "depth"))
    width = int(_arg(args, kwargs, 2, "width"))
    S = _arg(args, kwargs, 3, "S")
    n = int(_arg(args, kwargs, 4, "n_samples"))
    sizes = [S.shape[1]] + [width] * (depth - 1) + [1]
    t.count("mlp.draws", n)
    # raw weight entries drawn, one float32 each
    t.count("mlp.raw", n * sum(a * b for a, b in zip(sizes[:-1], sizes[1:])))


def _gp_samples_before(t, args, kwargs):
    t.count("gps.draws", int(_arg(args, kwargs, 3, "n_samples")))


@dataclass(frozen=True)
class Target:
    """One wrapped library function."""

    name: str                 # span and report name
    layer: str
    module: str               # defining module under mlpgp
    attr: str
    span: bool = True
    before: Optional[Callable] = None
    after: Optional[Callable] = None       # may return a replacement result
    on_error: Optional[Callable] = None


TARGETS = (
    Target("special.bvn_cdf", "special", "special", "bvn_cdf",
           before=_bvn_before),
    Target("kernels.kernel_matrix", "kernels", "kernels", "kernel_matrix",
           before=_kernel_matrix_before, on_error=_kernel_matrix_error),
    Target("kernels.lrelu_kernel", "kernels", "kernels", "lrelu_kernel",
           span=False, before=lambda t, a, k: t.count("lrelu.calls")),
    Target("gp.log_marginal_likelihood", "gp", "gp", "log_marginal_likelihood",
           before=lambda t, a, k: t.count("lml.calls")),
    Target("gp.posterior_predictive", "gp", "gp", "posterior_predictive",
           before=lambda t, a, k: t.count("pp.calls")),
    Target("gp.sample_prior", "gp", "gp", "sample_prior"),
    Target("gp.cholesky", "gp", "gp", "_chol_with_jitter",
           after=_chol_after, on_error=_chol_error),
    Target("hyper.grid_eval", "hyper", "hyper", "grid_eval", after=_grid_after),
    Target("hyper.mh_sample", "hyper", "hyper", "mh_sample", after=_mh_after),
    Target("hyper.gp_log_posterior", "hyper", "hyper", "gp_log_posterior",
           span=False, after=_log_posterior_after),
    Target("hyper.marginal_predictive", "hyper", "hyper", "marginal_predictive",
           after=_marginal_after),
    # the fast finite-net sampler lives in mmd, but it is the finite-net layer
    Target("finite_net.mlp_samples", "finite_net", "mmd", "_mlp_samples",
           before=_mlp_before),
    Target("mmd.convergence_experiment", "mmd", "mmd", "convergence_experiment"),
    Target("mmd.gp_samples", "mmd", "mmd", "_gp_samples",
           before=_gp_samples_before),
    Target("mmd.gram", "mmd", "mmd", "_gram"),
    Target("mmd.null_band", "mmd", "mmd", "_null_band_from_gram"),
)


class Tracer:
    """Spans and counters of the traced jobs of one run."""

    def __init__(self):
        self.modules = {m: importlib.import_module("mlpgp." + m)
                        for m in {t.module for t in TARGETS}}
        self.originals = {}
        self.absent = set()
        for t in TARGETS:
            fn = getattr(self.modules[t.module], t.attr, None)
            if callable(fn):
                self.originals[t.name] = fn
            else:
                self.absent.add(t.name)
        self.broken = set()       # targets whose hook could not read a call
        self.spans = []           # [name, layer, start, end, parent, job]
        self.jobs = []            # per traced job: counters and span range
        self._stack = []
        self._rebound = []
        self.largest_gram = (0, None, None)
        self.job = None

    # -- recording -----------------------------------------------------------

    def count(self, key, n=1):
        self.job["counters"][key] = self.job["counters"].get(key, 0) + n

    def _hook(self, target, fn, *args):
        try:
            return fn(self, *args)
        except _HOOK_ERRORS:
            self.broken.add(target.name)
            return None

    def _wrapper(self, target, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if target.before is not None:
                tracer._hook(target, target.before, args, kwargs)
            if target.span:
                parent = tracer._stack[-1]
                idx = len(tracer.spans)
                tracer.spans.append([target.name, target.layer, 0.0, 0.0,
                                     parent, tracer.job["id"]])
                tracer._stack.append(idx)
                tracer.spans[idx][2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if target.span:
                    tracer.spans[idx][3] = time.perf_counter()
                    tracer._stack.pop()
                if target.on_error is not None:
                    tracer._hook(target, target.on_error, exc)
                raise
            if target.span:
                tracer.spans[idx][3] = time.perf_counter()
                tracer._stack.pop()
            if target.after is not None:
                replaced = tracer._hook(target, target.after, args, kwargs,
                                        result)
                if replaced is not None:
                    return replaced
            return result

        return wrapper

    def _install(self):
        loaded = [m for n, m in sys.modules.items()
                  if n == "mlpgp" or n.startswith("mlpgp.")]
        for t in TARGETS:
            fn = self.originals.get(t.name)
            if fn is None:
                continue
            wrapped = self._wrapper(t, fn)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)
                        self._rebound.append((module, attr, fn))

    def _uninstall(self):
        for module, attr, fn in reversed(self._rebound):
            setattr(module, attr, fn)
        self._rebound.clear()

    def begin_job(self, job_id):
        self.job = {"id": job_id, "counters": {}, "first_span": len(self.spans)}
        self._install()
        self.spans.append(["job", "unattributed", 0.0, 0.0, None, job_id])
        self._stack = [self.job["first_span"]]
        self.spans[self.job["first_span"]][2] = time.perf_counter()

    def end_job(self):
        self.spans[self.job["first_span"]][3] = time.perf_counter()
        self._uninstall()
        self.job["last_span"] = len(self.spans)
        self.jobs.append(self.job)
        self._stack = []
        self.job = None

    # -- after the timed loop ------------------------------------------------

    def peak_alloc_mb(self):
        """Peak traced allocation of the largest Gram of the traced jobs,
        replayed once under tracemalloc outside the timed jobs."""
        _, args, kwargs = self.largest_gram
        fn = self.originals.get("kernels.kernel_matrix")
        if fn is None or args is None:
            return None
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / 2 ** 20

    @staticmethod
    def rng_ceiling_s(count, chunk=2 ** 22):
        """Time to draw `count` raw float32 uniforms from SFC64."""
        rng = np.random.Generator(np.random.SFC64(0))
        buf = np.empty(chunk, dtype=np.float32)
        t0 = time.perf_counter()
        left = count
        while left > 0:
            m = min(chunk, left)
            rng.random(out=buf[:m], dtype=np.float32)
            left -= m
        return time.perf_counter() - t0

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "job", "name", "layer", "start_s",
                        "end_s", "self_s"])
            selfs = self_times([(s[2], s[3], s[4]) for s in self.spans])
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                w.writerow([i, "" if s[4] is None else s[4], s[5], s[0], s[1],
                            f"{s[2]:.9f}", f"{s[3]:.9f}", f"{own:.9f}"])

    # -- metrics -------------------------------------------------------------

    def metrics(self, untraced_job_s):
        """Per-layer metrics of the traced jobs.

        Counts are those of the first traced job, so they repeat for a given
        seed however many jobs fit in the run; times are means per traced
        job; rates divide totals over all traced jobs.  Metrics of absent
        targets are None.
        """
        n = len(self.jobs)
        selfs = self_times([(s[2], s[3], s[4]) for s in self.spans])
        incl = {}
        own = {}
        layer_self = dict.fromkeys(LAYERS + ("unattributed",), 0.0)
        job_s = []
        for i, s in enumerate(self.spans):
            incl[s[0]] = incl.get(s[0], 0.0) + s[3] - s[2]
            own[s[0]] = own.get(s[0], 0.0) + selfs[i]
            layer_self[s[1]] += selfs[i]
            if s[0] == "job":
                job_s.append(s[3] - s[2])
        first = self.jobs[0]["counters"]
        total = {}
        for job in self.jobs:
            for k, v in job["counters"].items():
                total[k] = total.get(k, 0) + v

        def c(key):
            return first.get(key, 0)

        def mean_incl(name):
            return incl.get(name, 0.0) / n

        def rate(count_key, span):
            t = incl.get(span, 0.0)
            return total.get(count_key, 0) / t if t > 0 else 0.0

        def per(span, count_key, scale):
            k = total.get(count_key, 0)
            return incl.get(span, 0.0) / k * scale if k > 0 else 0.0

        def ratio(num, den):
            return c(num) / c(den) if c(den) > 0 else 0.0

        raw = c("mlp.raw")
        ceiling = self.rng_ceiling_s(raw) if raw else 0.0
        mlp_first = sum(s[3] - s[2] for s in
                        self.spans[self.jobs[0]["first_span"]:
                                   self.jobs[0]["last_span"]]
                        if s[0] == "finite_net.mlp_samples")
        spec = [
            # name, unit, value, targets it needs
            ("special.bvn_cdf.evals", "count", c("bvn.evals"), ["special.bvn_cdf"]),
            ("special.bvn_cdf.evals_moderate", "count", c("bvn.moderate"), ["special.bvn_cdf"]),
            ("special.bvn_cdf.evals_strong", "count", c("bvn.strong"), ["special.bvn_cdf"]),
            ("special.bvn_cdf.evals_degenerate", "count", c("bvn.degenerate"), ["special.bvn_cdf"]),
            ("special.bvn_cdf.self_s", "s", own.get("special.bvn_cdf", 0.0) / n, ["special.bvn_cdf"]),
            ("special.bvn_cdf.ns_per_eval", "ns",
             (own.get("special.bvn_cdf", 0.0) / total["bvn.evals"] * 1e9
              if total.get("bvn.evals") else 0.0), ["special.bvn_cdf"]),
            ("kernels.kernel_matrix.calls", "count", c("km.calls"), ["kernels.kernel_matrix"]),
            ("kernels.kernel_matrix.entries", "count", c("km.entries"), ["kernels.kernel_matrix"]),
            ("kernels.kernel_matrix.entry_layers", "count", c("km.entry_layers"), ["kernels.kernel_matrix"]),
            ("kernels.kernel_matrix.self_s", "s", own.get("kernels.kernel_matrix", 0.0) / n, ["kernels.kernel_matrix"]),
            ("kernels.kernel_matrix.us_per_call", "us",
             per("kernels.kernel_matrix", "km.calls", 1e6), ["kernels.kernel_matrix"]),
            ("kernels.ns_per_entry_layer", "ns",
             per("kernels.kernel_matrix", "km.entry_layers", 1e9), ["kernels.kernel_matrix"]),
            ("kernels.lrelu_kernel.calls", "count", c("lrelu.calls"), ["kernels.lrelu_kernel"]),
            ("kernels.vanished", "count", c("km.vanished"), ["kernels.kernel_matrix"]),
            ("kernels.peak_alloc_mb", "MB", self.peak_alloc_mb(), ["kernels.kernel_matrix"]),
            ("gp.log_marginal_likelihood.calls", "count", c("lml.calls"), ["gp.log_marginal_likelihood"]),
            ("gp.log_marginal_likelihood.self_s", "s", own.get("gp.log_marginal_likelihood", 0.0) / n, ["gp.log_marginal_likelihood"]),
            ("gp.posterior_predictive.calls", "count", c("pp.calls"), ["gp.posterior_predictive"]),
            ("gp.posterior_predictive.self_s", "s", own.get("gp.posterior_predictive", 0.0) / n, ["gp.posterior_predictive"]),
            ("gp.sample_prior.self_s", "s", own.get("gp.sample_prior", 0.0) / n, ["gp.sample_prior"]),
            ("gp.cholesky.attempts", "count", c("chol.attempts"), ["gp.cholesky"]),
            ("gp.cholesky.ok_ratio", "ratio", ratio("chol.ok", "chol.attempts"), ["gp.cholesky"]),
            ("gp.factorization_failures", "count", c("chol.failures"), ["gp.cholesky"]),
            ("hyper.grid_eval.s", "s", mean_incl("hyper.grid_eval"), ["hyper.grid_eval"]),
            ("hyper.grid.cells_per_s", "1/s", rate("grid.cells", "hyper.grid_eval"), ["hyper.grid_eval"]),
            ("hyper.grid.failed_cells", "count", c("grid.failed"), ["hyper.grid_eval"]),
            ("hyper.mh_sample.s", "s", mean_incl("hyper.mh_sample"), ["hyper.mh_sample"]),
            ("hyper.mh.steps_per_s", "1/s", rate("mh.steps", "hyper.mh_sample"), ["hyper.mh_sample"]),
            ("hyper.mh.acceptance", "ratio", c("mh.acceptance"), ["hyper.mh_sample"]),
            ("hyper.mh.neg_inf_proposals", "count", c("mh.neg_inf"), ["hyper.gp_log_posterior"]),
            ("hyper.marginal_predictive.s", "s", mean_incl("hyper.marginal_predictive"), ["hyper.marginal_predictive"]),
            ("hyper.marginal_predictive.skipped", "count", c("mp.skipped"), ["hyper.marginal_predictive"]),
            ("finite_net.mlp_samples.s", "s", mean_incl("finite_net.mlp_samples"), ["finite_net.mlp_samples"]),
            ("finite_net.draws_per_s", "1/s", rate("mlp.draws", "finite_net.mlp_samples"), ["finite_net.mlp_samples"]),
            ("finite_net.rng_ceiling_share", "ratio",
             mlp_first / ceiling if ceiling > 0 else 0.0, ["finite_net.mlp_samples"]),
            ("mmd.gp_samples.s", "s", mean_incl("mmd.gp_samples"), ["mmd.gp_samples"]),
            ("mmd.gp_samples.draws_per_s", "1/s", rate("gps.draws", "mmd.gp_samples"), ["mmd.gp_samples"]),
            ("mmd.gram.s", "s", mean_incl("mmd.gram"), ["mmd.gram"]),
            ("mmd.null_band.s", "s", mean_incl("mmd.null_band"), ["mmd.null_band"]),
        ]
        spec += [(f"layer.{layer}.self_s", "s", layer_self[layer] / n, [])
                 for layer in LAYERS]
        spec += [
            ("trace.unattributed_s", "s", layer_self["unattributed"] / n, []),
            ("trace.job_s", "s", statistics.fmean(job_s), []),
            ("trace.overhead_share", "ratio",
             statistics.median(job_s) / statistics.median(untraced_job_s) - 1.0
             if untraced_job_s else None, []),
        ]
        out = {}
        missing = self.absent | self.broken
        for name, unit, value, needs in spec:
            if any(t in missing for t in needs):
                value = None
            out[name] = {"value": value, "unit": unit}
        return out
