"""Arithmetic of the benchmark: summaries, span self times, failure shares.

Standard library only, so the orchestrating process never imports numpy.
"""

import math
import statistics


def summary(values):
    """Count, median, quartiles and range of a non-empty sample.

    Quartiles are those of `statistics.quantiles(values, n=4)`; a single
    value is its own quartiles.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot summarise an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p50": statistics.median(values), "q1": q1,
            "q3": q3, "min": min(values), "max": max(values)}


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    `spans` is a sequence of (start, end, parent) where parent is the index
    of the enclosing span or None.  The part of a span covered by its
    children is the union of their intervals clipped to the span, so
    overlapping or out-of-bounds children are never counted twice.
    """
    children = {}
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][0]):
            lo = max(spans[c][0], reach)
            hi = min(spans[c][1], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def relative_times(job_s, probe_s):
    """Each job's time in probe times.

    `probe_s` holds, for each job, the probe times just before and just
    after it; the job is divided by their geometric mean, so a host-speed
    change that spans the job cancels whichever side it falls on.
    """
    if len(job_s) != len(probe_s):
        raise ValueError("need one pair of probe times per job")
    return [float(t) / math.sqrt(before * after)
            for t, (before, after) in zip(job_s, probe_s)]


def fail_share(failed, attempted):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count must lie in [0, attempted]")
    return failed / attempted
