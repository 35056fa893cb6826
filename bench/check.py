"""Output check against the reference outputs stored with the benchmark.

Reference arrays live in `reference/<size>.npz` under the key
`<workload>/<job seed>/<output>`.  A number matches when it lies within a
relative tolerance of 1e-12 of the reference (ROADMAP's drift allowance).
A reference -inf may turn into any value: the spurious -inf grid cells of
the current kernel recursion are expected to become finite.  A finite
reference value that drifts, or turns non-finite, is a mismatch.
"""

import hashlib
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-12


def reference_path(size):
    return REFERENCE_DIR / f"{size}.npz"


def reference_key(workload, seed, output):
    return f"{workload}/{seed}/{output}"


def sha256(array):
    """Digest of an output's float64 bytes in C order."""
    a = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.sha256(a.tobytes()).hexdigest()


def compare(new, ref):
    """Mismatch description for one output, or None when it matches.

    Also returns the largest relative drift over the finite reference
    entries (0 when bit-identical).
    """
    new = np.asarray(new, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if new.shape != ref.shape:
        return f"shape {new.shape} != reference {ref.shape}", float("inf")
    finite = np.isfinite(ref)
    if np.any(np.isnan(ref) | (ref == np.inf)):
        return "reference holds NaN or +inf", float("inf")
    if not np.all(np.isfinite(new[finite])):
        return (f"{int(np.sum(~np.isfinite(new[finite])))} finite reference "
                "values turned non-finite"), float("inf")
    diff = np.abs(new[finite] - ref[finite])
    scale = np.abs(ref[finite])
    bad = diff > RTOL * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    drift = float(np.max(rel)) if rel.size else 0.0
    if np.any(bad):
        return (f"{int(np.sum(bad))} values drift beyond relative {RTOL:g} "
                f"(largest {drift:.3g})"), drift
    return None, drift


def check_job(reference, workload, seed, outputs):
    """Compare one job's outputs with the reference.

    Returns (problems, largest drift, count of bit-identical outputs).
    """
    problems = []
    drift = 0.0
    identical = 0
    for name, value in outputs.items():
        key = reference_key(workload, seed, name)
        if key not in reference:
            problems.append(f"{name}: no reference output {key}")
            continue
        ref = reference[key]
        problem, d = compare(value, ref)
        drift = max(drift, d)
        if problem:
            problems.append(f"{name}: {problem}")
        elif sha256(value) == sha256(ref):
            identical += 1
    return problems, drift, identical
