"""Workload process: set up one workload, run its jobs back to back, report.

Started by run.py with the BLAS thread pin in its environment.  Prints
`READY` once the imports, the inputs and the warm-up call are done, then,
unless --setup-only, runs jobs in a closed loop for --seconds and prints
one `RESULT <json>` line.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy import special

import check
import workloads


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


VECTOR_ROUNDS = 40
DISPATCH_ROUNDS = 300_000


class Probe:
    """A fixed piece of work that calls no mlpgp code, timed next to each job.

    The shared host's speed drifts by tens of percent over minutes, so a
    job's time is stated in probe times.  Kinds of work feel the drift
    differently, so the probe has a streaming part, element-wise ufuncs over
    400 000 doubles like the large Grams, and, for workloads whose jobs are
    mostly small kernel calls, a dispatch part, an interpreter loop of
    ufunc calls on 4-element arrays.  Both write into preallocated buffers,
    so the probe makes no page faults, and both run on one thread whatever
    the BLAS pin.
    """

    def __init__(self, dispatch):
        rng = np.random.default_rng(20191127)
        self.x = rng.standard_normal(400_000)
        self.out = np.empty((2, self.x.size))
        self.a = rng.standard_normal(4) ** 2 + 1.0
        self.c = np.empty(4)
        self.dispatch = dispatch
        self()  # the first call pays for page faults; not a measurement

    def __call__(self):
        """Seconds taken by each part."""
        x, out, a, c = self.x, self.out, self.a, self.c
        start = time.perf_counter()
        for _ in range(VECTOR_ROUNDS):
            special.ndtr(x, out=out[0])
            np.multiply(x, x, out=out[1])
            np.multiply(out[1], -0.5, out=out[1])
            np.exp(out[1], out=out[1])
        parts = [time.perf_counter() - start]
        if self.dispatch:
            start = time.perf_counter()
            for _ in range(DISPATCH_ROUNDS):
                np.multiply(a, a, out=c)
                np.sqrt(c, out=c)
            parts.append(time.perf_counter() - start)
        return parts


def fits(elapsed, done, seconds):
    """Whether half of one more job of the mean length so far fits."""
    return elapsed + elapsed / done / 2 <= seconds


def run_jobs(wl, args, tracer):
    """Closed loop: the next job starts when the previous one has ended.

    The probe runs before the first job and after every job.  A job starts
    only while half of the run's mean job-plus-probe time still fits in
    --seconds, so a run ends within half a job of --seconds.  Traced runs
    alternate untraced and traced jobs, and run at least one of each, so
    the tracing overhead is measured under the same conditions.
    """
    jobs = []
    probe = Probe(wl.probe_dispatch)
    probes = [probe()]
    t0 = time.perf_counter()
    j = 0
    while j < (2 if args.trace else 1) or fits(time.perf_counter() - t0, j,
                                                args.seconds):
        seed = workloads.job_seed(args.seed, j)
        traced = args.trace and j % 2 == 1
        job = {"index": j, "seed": seed, "traced": traced, "failures": {}}
        if traced:
            tracer.begin_job(j)
        start = time.perf_counter()
        try:
            job["outputs"], sub_ops, job["failures"] = wl.run(seed)
        except Exception:
            traceback.print_exc()
            job["outputs"], sub_ops = None, 0
        job["seconds"] = time.perf_counter() - start
        if traced:
            tracer.end_job()
        job["attempted"] = 1 + sub_ops
        probes.append(probe())
        job["probe_parts_s"] = probes[-2:]
        job["probe_s"] = [sum(parts) for parts in probes[-2:]]
        jobs.append(job)
        j += 1
    return jobs


def check_outputs(jobs, workload, size):
    with np.load(check.reference_path(size)) as ref:
        reference = {k: ref[k] for k in ref.files}
    for job in jobs:
        if job["outputs"] is None:
            job["problems"] = ["job raised"]
            job["drift"], job["identical"] = None, 0
            job["failures"]["failed jobs"] = 1
            continue
        job["problems"], job["drift"], job["identical"] = check.check_job(
            reference, workload, job["seed"], job["outputs"])
        job["sha256"] = {k: check.sha256(v) for k, v in job["outputs"].items()}
        job["failures"]["failed jobs"] = int(bool(job["problems"]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans", help="CSV path for the traced run's spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.size)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    jobs = run_jobs(wl, args, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_outputs(jobs, args.workload, args.size)
    result = {"versions": versions(), "peak_rss_mb": peak_rss_mb, "jobs": [
        {k: v for k, v in job.items() if k != "outputs"} for job in jobs]}
    if tracer is not None:
        untraced = [j["seconds"] for j in jobs if not j["traced"]]
        result["per_layer"] = tracer.metrics(untraced)
        result["absent_targets"] = sorted(tracer.absent | tracer.broken)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
