"""Brute-force path enumeration of a chain functional, the oracle for the DP law."""

import numpy as np


def enumerate_distribution(spec):
    """Brute-force path enumeration oracle (small chains only).

    Returns sorted (value, probability) pairs of the centered functional,
    merging values that agree within 1e-11.
    """
    sizes = spec.state_counts
    n = spec.n_steps
    if np.prod([float(s) for s in sizes]) > 5e5:
        raise ValueError("path enumeration is for small chains only")
    means = spec.step_means()
    acc = {}

    def walk(j, x, prob, total):
        if prob == 0.0:
            return
        if j == n:
            acc[total] = acc.get(total, 0.0) + prob
            return
        k = spec.kernels[j]
        f = spec.observables[j]
        for y in range(k.shape[1]):
            walk(j + 1, y, prob * k[x, y], total + f[x, y] - means[j])

    for x0 in range(sizes[0]):
        walk(0, x0, float(spec.initial[x0]), 0.0)
    vals = sorted(acc)
    merged = []
    for v in vals:
        if merged and abs(v - merged[-1][0]) <= 1e-11:
            merged[-1] = (merged[-1][0], merged[-1][1] + acc[v])
        else:
            merged.append((v, acc[v]))
    return merged
