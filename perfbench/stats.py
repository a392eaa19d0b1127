"""Order statistics the benchmark reports, computed from raw samples.

Percentiles use the nearest-rank definition on the sorted samples: the
q-th percentile of n samples is the ceil(q/100 * n)-th smallest. The tail
is the slowest sample of each iteration, as a median over the run's
iterations.
"""

import math
import statistics


def percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    # The small slack keeps q = 100 * k / n exactly on rank k despite
    # floating-point rounding of q.
    rank = math.ceil(q / 100.0 * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def tail(iterations):
    """The median, over iterations, of each iteration's slowest sample.

    `iterations` holds one non-empty list of samples per iteration. Each
    iteration sends the workload's whole request set once, so its slowest
    sample is the tail of one replicate of the workload. Returns
    (value, iteration_count, largest_iteration_size).
    """
    if not iterations or not all(iterations):
        raise ValueError("a tail needs at least one sample per iteration")
    return (statistics.median(max(samples) for samples in iterations),
            len(iterations), max(len(samples) for samples in iterations))
