"""Textbook per-step DP of a chain functional, the oracle for the swept law.

One step at a time, one (x, y) pair at a time: new[y, c + s(x, y)] +=
K[x, y] table[x, c]. Each entry is a sum of at most S nonnegative
products, so a mass carries relative error at most n S u after n steps
(u the unit roundoff) while it stays in the normal float range.
"""

import itertools
import math

import numpy as np


def reference_law(spec, step, shifts):
    """(origin, masses): the value of cell 0 and the mass of every cell of the lattice.

    `step` is the lattice step and `shifts[j]` the integer shift array of
    step j; cell c holds origin + step * c. The origin is minus the exact
    sum of the per-step means of the lattice parts, each from the
    marginal stepped one kernel at a time.
    """
    table = spec.initial[:, None]
    for kernel, shift in zip(spec.kernels, shifts):
        table = textbook_step(table, kernel, shift)
    means = []
    law = spec.initial
    for kernel, shift in zip(spec.kernels, shifts):
        means.append(float(law @ (kernel * shift).sum(axis=1)) * step)
        law = law @ kernel
    return -math.fsum(means), table.sum(axis=0)


def textbook_step(table, kernel, shifts):
    """new[y, c] += K[x, y] table[x, c - s(x, y)], pair by pair in (x, y) order."""
    hi = table.shape[1]
    new = np.zeros((kernel.shape[1], hi + int(shifts.max())))
    for x, y in itertools.product(range(kernel.shape[0]), range(kernel.shape[1])):
        if kernel[x, y] != 0.0:
            s = int(shifts[x, y])
            new[y, s : s + hi] += kernel[x, y] * table[x]
    return new


def powered_error_bound(spec, shifts):
    """Relative error bound of a swept mass, whichever route each run takes.

    A run of r equal steps with S states, reduced width w/g (g the gcd of
    its live shifts) and B = floor(log2 r) errs by at most
    S r ((B/2 + 1) w/g + 1) u when powered, which also covers the r S u
    of stepping it; the sum over states at the end adds S u.
    """
    u = np.finfo(float).eps / 2
    total = 0.0
    for _, run in itertools.groupby(zip(spec.kernels, shifts), key=lambda ks: (id(ks[0]), id(ks[1]))):
        run = list(run)
        kernel, shift = run[0]
        live = shift[kernel != 0.0]
        g = max(1, int(np.gcd.reduce(live)))
        reduced = int(live.max()) // g
        r = len(run)
        total += max(kernel.shape) * r * (((r.bit_length() - 1) / 2 + 1) * reduced + 1) * u
    return total + max(spec.state_counts) * u


def chunked_run(moves, table, count):
    """`count` steps of a `_Moves` with one product call per (chunk, group), the loop before products were batched.

    A run with pairs goes state-major: group by group, chunk by chunk
    within each, then pair by pair. A run of products alone goes
    cells-major: chunk by chunk, group by group within each. Each product
    is the same chunk x S_in x S_out gemm the batched step makes, so the
    two give the same bytes wherever their adds come in the same order.
    """
    groups = list(zip(moves.dense, moves.stack))
    if moves.sparse:
        for _ in range(count):
            hi = table.shape[1]
            new = np.zeros((moves.states, hi + moves.width))
            for s, m in groups:
                dst = new[:, s : s + hi]
                for c in range(0, hi, moves.chunk):
                    dst[:, c : c + moves.chunk] += m.T @ table[:, c : c + moves.chunk]
            for x, y, s, p in moves.sparse:
                new[y, s : s + hi] += p * table[x]
            table = new
        return table
    cells = table.T.copy()
    for _ in range(count):
        hi = cells.shape[0]
        new = np.zeros((hi + moves.width, moves.states))
        for c in range(0, hi, moves.chunk):
            for s, m in groups:
                product = cells[c : c + moves.chunk] @ m
                new[c + s : c + s + product.shape[0]] += product
        cells = new
    return cells.T.copy()
