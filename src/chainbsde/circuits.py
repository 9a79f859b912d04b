"""Node potentials of resistor-diode circuits via the chain correspondence.

A resistive network is a reversible chain: conductances are jump rates,
and the potential is harmonic off the fixed-voltage source nodes.  A diode
is a voltage-dependent resistor (Shockley law I = I_s (e^{V/V_T} - 1)), so
the potential solves the same stationary system with the generator built
from the *implied* conductances w(V) = I/V at the solution's own voltage
drops.  That is exactly a stationary backward equation whose driver
compares the implied generator with a fixed reference, here the circuit
with every diode replaced by its zero-bias resistance V_T/I_s.

``newton_nodal`` solves the same physics directly (Kirchhoff current
residuals, analytic Jacobian, damped Newton) with no chain machinery at
all; the two routes agree on every netlist and validate each other.

Netlist format (one element per line, ``#`` starts a comment):

    V <node> <volts>          voltage source pinning a node
    R <a> <b> <ohms>          resistor between a and b
    D <a> <b> <I_s> <V_T>     diode, forward direction a -> b

Nodes are named by any token and indexed in order of first appearance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._linalg import solve_or_none
from .chain import RateMatrix, validate_rate_matrix
from .drivers import MarkovianDriver
from .errors import (
    DisconnectedNodeError,
    InputError,
    NoConvergenceError,
)
from .solver import HittingProblem, SolutionField, solve_homogeneous

__all__ = [
    "Resistor",
    "Diode",
    "CircuitSpec",
    "parse_netlist",
    "reference_matrix",
    "implied_matrix",
    "circuit_driver",
    "solve_circuit",
    "newton_nodal",
    "edge_currents",
    "kirchhoff_residuals",
]

_W_FLOOR = 1e-15  # siemens; keeps reverse-biased diodes conducting a hair
_EXP_CAP = 600.0  # exp argument clamp, keeps floats finite far off-solution


@dataclass(frozen=True)
class Resistor:
    ohms: float

    def __post_init__(self):
        if not self.ohms > 0.0:
            raise InputError(f"resistance must be positive, got {self.ohms!r}")


@dataclass(frozen=True)
class Diode:
    """Shockley diode; the circuit edge (a, b, Diode) conducts forward a -> b."""

    i_s: float
    v_t: float

    def __post_init__(self):
        if not self.i_s > 0.0:
            raise InputError(f"saturation current must be positive, got {self.i_s!r}")
        if not self.v_t > 0.0:
            raise InputError(f"thermal voltage must be positive, got {self.v_t!r}")


def _current(comp, v: float) -> float:
    """Current through the component at forward voltage v."""
    if isinstance(comp, Resistor):
        return v / comp.ohms
    x = min(v / comp.v_t, _EXP_CAP)
    return comp.i_s * math.expm1(x)


def _dcurrent(comp, v: float) -> float:
    if isinstance(comp, Resistor):
        return 1.0 / comp.ohms
    x = min(v / comp.v_t, _EXP_CAP)
    return comp.i_s / comp.v_t * math.exp(x)


def _conductance(comp, v: float) -> float:
    """Implied conductance I(v)/v, with the removable v = 0 singularity
    filled by the series (I_s/V_T)(1 + x/2 + x^2/6), x = v/V_T."""
    if isinstance(comp, Resistor):
        return 1.0 / comp.ohms
    x = v / comp.v_t
    if abs(x) < 1e-6:
        w = comp.i_s / comp.v_t * (1.0 + x / 2.0 + x * x / 6.0)
    else:
        w = comp.i_s * math.expm1(min(x, _EXP_CAP)) / (x * comp.v_t)
    return max(w, _W_FLOOR)


@dataclass(frozen=True)
class CircuitSpec:
    """A circuit as a node-indexed graph with component edges.

    ``edges`` entries are (a, b, Resistor | Diode) with node indices; the
    diode's forward direction is a -> b.  ``sources`` pins node potentials
    (the absorbing set of the chain correspondence).
    """

    nodes: tuple[str, ...]
    edges: tuple
    sources: dict[int, float]

    def __post_init__(self):
        n = len(self.nodes)
        if n == 0:
            raise InputError("circuit has no nodes")
        if len(set(self.nodes)) != n:
            raise InputError("duplicate node names")
        if not self.sources:
            raise InputError("circuit needs at least one voltage source")
        object.__setattr__(
            self, "sources", {int(k): float(v) for k, v in self.sources.items()}
        )
        for k, v in self.sources.items():
            if not 0 <= k < n:
                raise InputError(f"source node index {k} out of range [0, {n})")
            if not math.isfinite(v):
                raise InputError(f"source voltage at node {k} is not finite")
        edges = tuple((int(a), int(b), comp) for a, b, comp in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b, comp in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"edge ({a}, {b}) references a missing node")
            if a == b:
                raise InputError(f"edge ({a}, {b}) is a self-loop")
            if not isinstance(comp, (Resistor, Diode)):
                raise InputError(f"unknown component {comp!r} on edge ({a}, {b})")
        # every node must connect to a source through the edge graph
        adj = [set() for _ in range(n)]
        for a, b, _comp in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = set(self.sources)
        stack = list(seen)
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        floating = sorted(set(range(n)) - seen)
        if floating:
            raise DisconnectedNodeError([self.nodes[i] for i in floating])

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def source_vector(self) -> NDArray[np.float64]:
        phi = np.zeros(self.n)
        for k, v in self.sources.items():
            phi[k] = v
        return phi

    def index_of(self, name: str) -> int:
        return self.nodes.index(name)


def parse_netlist(text: str) -> CircuitSpec:
    """Build a circuit from netlist text (format in the module docstring)."""
    names: list[str] = []
    index: dict[str, int] = {}

    def node(tok: str) -> int:
        if tok not in index:
            index[tok] = len(names)
            names.append(tok)
        return index[tok]

    edges = []
    sources: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0].upper()
        try:
            if kind == "V" and len(toks) == 3:
                sources[node(toks[1])] = float(toks[2])
            elif kind == "R" and len(toks) == 4:
                edges.append((node(toks[1]), node(toks[2]), Resistor(float(toks[3]))))
            elif kind == "D" and len(toks) == 5:
                edges.append(
                    (node(toks[1]), node(toks[2]), Diode(float(toks[3]), float(toks[4])))
                )
            else:
                raise InputError(f"line {lineno}: unrecognized element {line!r}")
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad number in {line!r}") from exc
    return CircuitSpec(nodes=tuple(names), edges=tuple(edges), sources=sources)


def _assemble(c: CircuitSpec, weight_of) -> NDArray[np.float64]:
    q = np.zeros((c.n, c.n))
    for a, b, comp in c.edges:
        w = weight_of(a, b, comp)
        q[b, a] += w
        q[a, b] += w
    q[np.diag_indices(c.n)] = 0.0
    q[np.diag_indices(c.n)] -= q.sum(axis=0)
    return q


def reference_matrix(c: CircuitSpec) -> RateMatrix:
    """Generator of the all-resistor surrogate: each diode contributes its
    zero-bias conductance I_s/V_T (the small-signal limit at V = 0)."""

    def weight(a, b, comp):
        if isinstance(comp, Resistor):
            return 1.0 / comp.ohms
        return comp.i_s / comp.v_t

    return validate_rate_matrix(_assemble(c, weight), state_names=c.nodes)


def implied_matrix(c: CircuitSpec, v) -> RateMatrix:
    """Generator with conductances implied by the potentials ``v``."""
    v = np.asarray(v, dtype=float)

    def weight(a, b, comp):
        return _conductance(comp, v[a] - v[b])

    return validate_rate_matrix(_assemble(c, weight), state_names=c.nodes)


@dataclass(frozen=True)
class _CircuitDriver(MarkovianDriver):
    """Circuit driver whose field assembles the implied generator once per call."""

    gap: Callable[[NDArray[np.float64]], NDArray[np.float64]] | None = None

    def field(self, t, u, rows):
        return self.gap(u)[rows]


def circuit_driver(c: CircuitSpec, reference: RateMatrix | None = None) -> MarkovianDriver:
    """Driver ``z @ (A^z - A) e_x``: the gap between the implied-conductance
    generator at potentials z and the fixed all-resistor reference."""
    a = reference_matrix(c) if reference is None else reference
    aq = a.q

    def gap(z: NDArray[np.float64]) -> NDArray[np.float64]:
        az = _assemble(c, lambda i, j, comp: _conductance(comp, z[i] - z[j]))
        return (az - aq).T @ z

    def fn(x: int, t: float, y: float, z: NDArray[np.float64]) -> float:
        return float(gap(z)[x])

    return _CircuitDriver(fn, spec={"type": "diode_circuit"}, gap=gap)


def solve_circuit(c: CircuitSpec, tol: float = 1e-10, max_iter: int = 200) -> SolutionField:
    """Node potentials by the stationary backward-equation route.

    The solution satisfies current conservation at every non-source node:
    the stationary system's residual at x is exactly the net current into
    x under the implied conductances.  Initialization is the harmonic
    (all-resistor) solve, i.e. the driver frozen at z = 0.
    """
    a = reference_matrix(c)
    target = frozenset(c.sources)
    p = HittingProblem(
        a, target, c.source_vector, circuit_driver(c, a), require_reachable=True
    )
    return solve_homogeneous(p, tol=tol, max_iter=max_iter)


def newton_nodal(
    c: CircuitSpec, tol: float = 1e-12, max_iter: int = 200
) -> NDArray[np.float64]:
    """Independent oracle: damped Newton on the Kirchhoff current residuals
    with the analytic Shockley Jacobian.  No chain machinery involved.

    Returns the full potential vector (sources pinned).  The residual norm
    at return is below ``tol`` in amps.
    """
    n = c.n
    phi = c.source_vector
    free = np.array(sorted(set(range(n)) - set(c.sources)), dtype=np.int64)
    v = phi.copy()
    v[free] = 0.0
    if free.size == 0:
        return v
    pos = {int(x): k for k, x in enumerate(free)}

    def residual(vv):
        out = np.zeros(n)
        for a, b, comp in c.edges:
            cur = _current(comp, vv[a] - vv[b])
            out[a] += cur
            out[b] -= cur
        return out[free]

    def jacobian(vv):
        J = np.zeros((free.size, free.size))
        for a, b, comp in c.edges:
            g = _dcurrent(comp, vv[a] - vv[b])
            ia, ib = pos.get(a), pos.get(b)
            if ia is not None:
                J[ia, ia] += g
                if ib is not None:
                    J[ia, ib] -= g
            if ib is not None:
                J[ib, ib] += g
                if ia is not None:
                    J[ib, ia] -= g
        return J

    F = residual(v)
    for it in range(1, max_iter + 1):
        norm = float(np.abs(F).max())
        if norm < tol:
            return v
        step = solve_or_none(jacobian(v), -F)
        if step is None:
            raise NoConvergenceError(norm, it)
        alpha = 1.0
        while alpha > 2.0**-40:
            trial = v.copy()
            trial[free] += alpha * step
            Ft = residual(trial)
            if np.isfinite(Ft).all() and float(np.abs(Ft).max()) < norm:
                v, F = trial, Ft
                break
            alpha *= 0.5
        else:
            raise NoConvergenceError(norm, it)
    norm = float(np.abs(residual(v)).max())
    if norm < tol:
        return v
    raise NoConvergenceError(norm, max_iter)


def edge_currents(c: CircuitSpec, v) -> list[tuple[int, int, float]]:
    """Per-edge currents (a, b, amps flowing a -> b) at potentials ``v``."""
    v = np.asarray(v, dtype=float)
    return [(a, b, _current(comp, v[a] - v[b])) for a, b, comp in c.edges]


def kirchhoff_residuals(c: CircuitSpec, v) -> NDArray[np.float64]:
    """Net current out of each node at potentials ``v``; zero off the
    sources when ``v`` solves the circuit."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(c.n)
    for a, b, comp in c.edges:
        cur = _current(comp, v[a] - v[b])
        out[a] += cur
        out[b] -= cur
    return out
