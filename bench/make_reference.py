"""Write the reference outputs that the benchmark checks its jobs against.

    python3 bench/make_reference.py

Runs every job seed of the pool for every workload at both sizes, in this
process, with the same BLAS thread pin as the benchmark (the outputs depend
on it), and writes bench/reference/<size>.npz plus sha256.json, the digest
of each output for information.  Only rerun it when a change of outputs is
intended and written down.
"""

import json
import os
import sys
from pathlib import Path

from run import BLAS_THREADS, SRC

os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the pin)

import check  # noqa: E402
import workloads  # noqa: E402


def main():
    digests = {}
    for size in ("full", "smoke"):
        arrays = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(size)
            for seed in range(workloads.POOL):
                outputs, _, failures = wl.run(seed)
                for out, value in outputs.items():
                    key = check.reference_key(name, seed, out)
                    arrays[key] = np.asarray(value, dtype=np.float64)
                    digests.setdefault(size, {})[key] = check.sha256(value)
                print(size, name, seed, failures, flush=True)
        np.savez_compressed(check.reference_path(size), **arrays)
    path = Path(check.REFERENCE_DIR) / "sha256.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
