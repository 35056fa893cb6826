"""Benchmark of the mlpgp library: three workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload hyper-fit --seed 0 --seconds 33 --trace 0
    python3 bench/run.py --seconds 33          # all three workloads, untraced
    python3 bench/run.py --quick               # smoke run, under a minute

Each workload runs in its own process, one client in a closed loop, with
the BLAS thread pin set in that process's environment only.  Untraced runs
report setup_s, job_p50_rel (job time in host-speed probe times),
peak_rss_mb and ok_share; traced runs report the per-layer metrics.  Every job's outputs are checked against the
reference outputs in bench/reference/.  The last line of standard output
is one JSON object; the exit code is non-zero when a check fails or the
benchmark cannot run.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

from stats import fail_share, relative_times, summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("hyper-fit", "prior-draws", "mmd-convergence")
BLAS_THREADS = 1
# fresh processes timed for setup_s, besides the workload process itself
SETUP_PROBES = {"full": 6, "smoke": 2}
# one workload must finish within 180 s, whatever happens
WORKLOAD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment():
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "mlpgp").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": src_digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_pin": {"OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
                         "OMP_NUM_THREADS": str(BLAS_THREADS)},
            "load1_start": os.getloadavg()[0]}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_worker(args, deadline):
    """Start a workload process; return (seconds to READY, result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT)
    ready = None
    result = None
    buf = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise BenchError("workload process ran past the deadline")
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if line == b"READY" and ready is None:
                        ready = time.perf_counter() - start
                    elif line.startswith(b"RESULT "):
                        result = json.loads(line[7:])
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process did not exit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"workload process exited with code {code}")
    return ready, result


def fmt(value):
    if value is None:
        return "null"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_workload(workload, seed, seconds, trace, size):
    """One run of one workload; returns (report lines, result object)."""
    deadline = time.perf_counter() + WORKLOAD_DEADLINE_S
    env = environment()
    if BLAS_THREADS > env["nproc"]:
        raise BenchError(f"BLAS pin {BLAS_THREADS} exceeds nproc "
                         f"{env['nproc']}; no timings are reported")
    base = ["--workload", workload, "--size", size, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES[size]):
            setup.append(run_worker(base + ["--setup-only"], deadline)[0])
    spans = OUT / f"{workload}-seed{seed}-spans.csv"
    ready, res = run_worker(base + ["--seconds", str(seconds), "--trace",
                                    str(trace), "--spans", str(spans)],
                            deadline)
    if res is None:
        raise BenchError("workload process printed no result")
    setup.append(ready)
    env["load1_end"] = os.getloadavg()[0]
    env.update(res["versions"])

    jobs = res["jobs"]
    attempted = sum(j["attempted"] for j in jobs)
    kinds = {}
    for j in jobs:
        for kind, n in j["failures"].items():
            kinds[kind] = kinds.get(kind, 0) + n
    failed = sum(kinds.values())
    share = fail_share(failed, attempted)
    correct = not any(j["problems"] for j in jobs)
    untraced_jobs = [j for j in jobs if not j["traced"]]
    untraced = summary([j["seconds"] for j in untraced_jobs])
    relative = summary(relative_times([j["seconds"] for j in untraced_jobs],
                                      [j["probe_s"] for j in untraced_jobs]))
    probes = summary([t for j in jobs for t in j["probe_s"]])

    lines = [f"mlpgp benchmark: workload {workload}, seed {seed}, "
             f"{seconds:g} s, {'traced' if trace else 'untraced'}, "
             f"size {size}",
             "env " + json.dumps(env, sort_keys=True)]
    if trace:
        metrics = res["per_layer"]
        for name, m in metrics.items():
            lines.append(f"  {name:38s} {fmt(m['value']):>12s} {m['unit']}")
        layer_sum = sum(m["value"] for n, m in metrics.items()
                        if n.startswith("layer.") or n == "trace.unattributed_s")
        lines.append(f"accounting: layer self times + unattributed = "
                     f"{layer_sum:.6f} s of {metrics['trace.job_s']['value']:.6f}"
                     f" s per traced job ({sum(j['traced'] for j in jobs)} "
                     f"traced, {untraced['n']} untraced jobs)")
        if res["absent_targets"]:
            lines.append("absent wrap targets: "
                         + ", ".join(res["absent_targets"]))
    else:
        s = summary(setup)
        metrics = {
            "setup_s": {"value": s["p50"], "unit": "s"},
            "job_p50_rel": {"value": relative["p50"], "unit": "probe"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_share": {"value": 1.0 - share, "unit": "ratio"},
        }
        lines += [
            f"  setup_s      {s['p50']:.4f} s   median of {s['n']} fresh "
            f"processes (q1 {s['q1']:.4f}, q3 {s['q3']:.4f})",
            f"  job_p50_rel  {relative['p50']:.4f} probe times   median of "
            f"{relative['n']} jobs (min {relative['min']:.4f}, "
            f"max {relative['max']:.4f})",
            f"  job_p50_s    {untraced['p50']:.4f} s   median wall time of "
            f"{untraced['n']} jobs (min {untraced['min']:.4f}, "
            f"max {untraced['max']:.4f}); not gated, host speed drifts",
            f"  probe_p50_s  {probes['p50']:.4f} s   median of "
            f"{probes['n']} probes (min {probes['min']:.4f}, "
            f"max {probes['max']:.4f})",
            f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB  workload process",
            f"  fail_share   {share:.6f}   {failed} of {attempted} operations "
            "failed" + "".join(f"; {k} {v}" for k, v in sorted(kinds.items())),
            f"  ok_share     {1.0 - share:.6f}   1 - fail_share",
        ]
    drifts = [j["drift"] for j in jobs if j["drift"] is not None]
    lines.append(
        f"check: {'pass' if correct else 'FAIL'}; "
        f"{sum(not j['problems'] for j in jobs)} of {len(jobs)} jobs match "
        f"the reference outputs; largest relative drift "
        f"{max(drifts) if drifts else float('nan'):.3g}; "
        f"{sum(j['identical'] for j in jobs)} outputs bit-identical")
    for j in jobs:
        for problem in j["problems"]:
            lines.append(f"  job {j['index']} (seed {j['seed']}): {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "environment": env,
              "setup_samples_s": setup, "metrics": metrics, "jobs": jobs}
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"record: {path.relative_to(ROOT)}")
    return lines, {"correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Benchmark of the mlpgp library (see bench/README.md).")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; all three when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default 33, --quick 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="smoke run: reduced sizes, every workload, untraced "
                        "and traced")
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else 33.0
    if seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "mlpgp" / "__init__.py").is_file():
        print(f"error: no mlpgp package under {SRC}", file=sys.stderr)
        return 2
    size = "smoke" if args.quick else "full"
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    modes = (0, 1) if args.quick else (args.trace,)
    ok = True
    for workload in workloads:
        for trace in modes:
            try:
                lines, result = run_workload(workload, args.seed, seconds,
                                             trace, size)
            except BenchError as exc:
                print(f"error: {workload}: {exc}", file=sys.stderr)
                return 3
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
