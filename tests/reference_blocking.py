"""Per-start walk of the greedy variance blocking, the oracle for the lockstep engine.

Each block is walked from its start one step at a time: the row series
v(z) times M(z) is divided by its total s(z), and log s adds
2 s_2/s_0 - (s_1/s_0)^2 to the variance, Neumaier-summed. A block ends at
the first step where that variance reaches the target.
"""

import numpy as np


def running_variances(steps, law):
    """Var of the sum over steps[0..j], j = 0, 1, .., from X at law `law`."""
    v = np.zeros((3, law.size))
    v[0] = law
    total = comp = 0.0
    for series in steps:
        r = np.matmul(v, series)  # r[b, i] = v_i M_b
        p = (r[0, 0], r[0, 1] + r[1, 0], r[0, 2] + r[1, 1] + r[2, 0])
        s0, s1, s2 = (float(c.sum()) for c in p)
        q0 = p[0] / s0
        q1 = (p[1] - s1 * q0) / s0
        v = np.stack((q0, q1, (p[2] - s1 * q1 - s2 * q0) / s0))
        x = 2.0 * s2 / s0 - (s1 / s0) ** 2
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        yield total + comp


def greedy_block_end(steps, start_law, start, target):
    """Extend a block from `start` until its own variance reaches the target."""
    for j, var in enumerate(running_variances(steps[start:], start_law), start):
        if var >= target:
            return j, var
    return None, None


def reference_blocks(steps, laws, target):
    """(blocks, block variances) of the greedy blocking, walking one block at a time.

    `steps` are the chain's order-2 step series and `laws[j]` the law of X_j.
    """
    blocks, block_vars, start = [], [], 0
    while start < len(steps):
        end, var = greedy_block_end(steps, laws[start], start, target)
        if var is None:  # tail too small to reach the target
            break
        blocks.append((start, end))
        block_vars.append(var)
        start = end + 1
    return blocks, block_vars


def reference_profile(steps, law):
    """Var(S_k), k = 0..n, by one walk over all steps."""
    return np.array([0.0] + list(running_variances(steps, law)))
