"""Brute-force path enumeration of a chain functional, the oracle for the DP law."""

import numpy as np


def marginals(spec):
    """Laws of X_0..X_n, the initial law stepped one kernel at a time."""
    laws = [spec.initial]
    for kernel in spec.kernels:
        laws.append(laws[-1] @ kernel)
    return laws


def step_means(spec):
    """E f_j(X_j, X_{j+1}) for each step, from `marginals`.

    Computed here rather than by the engines' `_step_means`, which also
    places the DP's support origin: a centering fault there cannot cancel
    against the oracle.
    """
    steps = zip(marginals(spec), spec.kernels, spec.observables)
    return np.array([float(law @ (k * f).sum(axis=1)) for law, k, f in steps])


def enumerate_distribution(spec):
    """Brute-force path enumeration oracle (small chains only).

    Returns sorted (value, probability) pairs of the centered functional,
    merging values that agree within 1e-11.
    """
    sizes = spec.state_counts
    n = spec.n_steps
    if np.prod([float(s) for s in sizes]) > 5e5:
        raise ValueError("path enumeration is for small chains only")
    means = step_means(spec)
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
