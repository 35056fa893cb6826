"""The library API that the benchmark in bench/ calls.

Each workload is built at its smoke size and runs its warm-up and one job
under the benchmark's tracer.  A renamed or re-signatured function that the
workloads call raises here; one that the tracer wraps or whose arguments
its hooks read shows up as an absent or broken trace target.  Outputs are
not compared: they depend on the BLAS thread count, which only the bench
runner pins.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads


@pytest.mark.parametrize("name", ["hyper-fit", "prior-draws",
                                  "mmd-convergence"])
def test_workload_runs_traced(bench_modules, name):
    tracing, workloads = bench_modules
    wl = workloads.WORKLOADS[name]("smoke")
    wl.warm_up()
    tracer = tracing.Tracer()
    tracer.begin_job(0)
    try:
        outputs, _, _ = wl.run(workloads.job_seed(0, 0))
    finally:
        tracer.end_job()
    assert outputs
    assert not tracer.absent
    assert not tracer.broken
