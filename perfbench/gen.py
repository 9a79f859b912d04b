"""Seeded input generators.

Everything here returns plain numpy arrays or text; package objects are
built from them by the workloads through the public constructors, inside
the timed span.  Only numpy is imported, so generating inputs never pays
for (or warms up) the package import.

Chains are a spine ``i -> i-1`` (so every state reaches state 0) plus a
*fixed* number of random extra out-edges per state.  A fixed out-degree
keeps exit rates, and with them the ``h * max_rate <= 0.1`` step guard of
the grid solver, independent of ``n``: a dense generator makes the grid
op measure the guard instead of the per-step cost.
"""

from __future__ import annotations

import numpy as np

RATE_LO, RATE_HI = 0.3, 2.5
EXTRA_EDGES = 3


def spine_chain(rng, n, extra=EXTRA_EDGES, leak=0.0):
    """Column-convention rate matrix: q[j, i] is the rate i -> j.

    ``leak > 0`` adds a jump to state 0 at a rate in [leak, 2 leak] from
    every state.  It makes hitting times of {0} steady from one draw to the
    next (without it they hinge on how many random edges happen to point at
    state 0) and bounds every ratio-family member's exit rate to 0 below by
    ``gamma * leak``, so exponential moments up to that exponent are finite.
    """
    q = np.zeros((n, n))
    for i in range(1, n):
        q[i - 1, i] = rng.uniform(RATE_LO, RATE_HI)
        others = np.setdiff1d(np.arange(n), [i, i - 1])
        for j in rng.choice(others, size=min(extra, others.size), replace=False):
            q[j, i] = rng.uniform(RATE_LO, RATE_HI)
        if leak > 0.0:
            q[0, i] += rng.uniform(leak, 2.0 * leak)
    q[np.diag_indices(n)] = -q.sum(axis=0)
    return q


def ratio_member(rng, q, lo=0.5, hi=2.0):
    """Member of q's ratio family: every intensity scaled within [lo, hi],
    so the support (and the mutual control level) is kept."""
    n = q.shape[0]
    out = q * rng.uniform(lo, hi, size=(n, n))
    out[np.diag_indices(n)] = 0.0
    out[np.diag_indices(n)] = -out.sum(axis=0)
    return out


def control_family(rng, q, size):
    return [ratio_member(rng, q) for _ in range(size)]


def box_member(rng, q, gamma):
    """Member of the gamma ratio box, factors log-uniform in [gamma, 1/gamma]."""
    n = q.shape[0]
    out = q * gamma ** rng.uniform(-1.0, 1.0, size=(n, n))
    out[np.diag_indices(n)] = 0.0
    out[np.diag_indices(n)] = -out.sum(axis=0)
    return out


def hop_distance(q, target):
    """Fewest jumps from each state to the target set, by BFS on the support."""
    n = q.shape[0]
    dist = np.full(n, -1)
    frontier = list(target)
    dist[frontier] = 0
    while frontier:
        nxt = []
        for j in frontier:
            for i in np.flatnonzero(q[j] > 0.0):  # i jumps to j
                if i != j and dist[i] < 0:
                    dist[i] = dist[j] + 1
                    nxt.append(int(i))
        frontier = nxt
    return dist


def spread_starts(q, target, count=4, eligible=None):
    """``count`` free states at increasing hop distance from the target,
    drawn from the ``eligible`` mask when one is given."""
    dist = hop_distance(q, target)
    ok = np.ones(dist.size, dtype=bool) if eligible is None else eligible
    free = [i for i in np.argsort(dist, kind="stable") if dist[i] > 0 and ok[i]]
    if not free:
        raise ValueError("no eligible start state")
    picks = np.linspace(0, len(free) - 1, count).round().astype(int)
    return sorted({int(free[k]) for k in picks})


def graph(rng, n, extra=EXTRA_EDGES):
    """Distance matrix (d[i, j] > 0 is edge i -> j), its walk generator and
    one speed-up: the walk with the exit rate of a random half of the nodes
    doubled."""
    d = np.zeros((n, n))
    for i in range(1, n):
        d[i, i - 1] = rng.uniform(0.5, 3.0)
        others = np.setdiff1d(np.arange(n), [i, i - 1])
        for j in rng.choice(others, size=min(extra, others.size), replace=False):
            d[i, j] = rng.uniform(0.5, 3.0)
    for j in rng.choice(np.arange(1, n), size=min(extra, n - 1), replace=False):
        d[0, j] = rng.uniform(0.5, 3.0)  # the target has exits too
    w = np.where(d > 0.0, 1.0 / np.where(d > 0.0, d, 1.0), 0.0)
    walk = (w / w.sum(axis=1, keepdims=True)).T
    walk[np.diag_indices(n)] = -1.0
    speed = walk.copy()
    fast = rng.random(n) < 0.5
    speed[:, fast] *= 2.0
    return d, walk, speed


def diode_ladder(rng, nodes):
    """Netlist text of a ladder ``in -D- x1 -R- x2 -D- x3 ...`` with every
    rung shunted to ground: ``nodes`` counts ``in`` and ``gnd``.  The drive is
    fixed at 1.5 V because Newton's iteration count grows with it: a random
    drive makes the op's cost vary more from draw to draw than the machine
    does."""
    lines = ["V in 1.5", "V gnd 0.0"]
    prev = "in"
    for k in range(1, nodes - 1):
        cur = f"x{k}"
        if k % 2:
            lines.append(f"D {prev} {cur} {rng.uniform(1e-10, 1e-8)!r} {rng.uniform(0.025, 0.03)!r}")
        else:
            lines.append(f"R {prev} {cur} {rng.uniform(100.0, 1000.0)!r}")
        lines.append(f"R {cur} gnd {rng.uniform(1000.0, 5000.0)!r}")
        prev = cur
    return "\n".join(lines) + "\n"


# The README's three-state problem and netlist, verbatim.
README_PROBLEM = {
    "chain": {"rates": [[-1.2, 0.3, 0.0], [1.2, -0.9, 0.0], [0.0, 0.6, 0.0]]},
    "target": [2],
    "terminal": [0.0, 0.0, 2.0],
    "driver": {"type": "affine", "g": [1.0, 1.0, 0.0], "r": [0.05, 0.05, 0.0]},
    "constants": {"beta": 1.0},
}
README_NETLIST = "V in 1.0\nV gnd 0.0\nD in out 1e-9 0.025\nR out gnd 1000\n"
