"""Node potentials of resistor-diode circuits via the chain correspondence.

A resistive network is a reversible chain: conductances are jump rates,
and the potential is harmonic off the fixed-voltage source nodes.  A diode
is a voltage-dependent resistor (Shockley law I = I_s (e^{V/V_T} - 1)), so
the potential solves the same stationary system with the generator built
from the *implied* conductances w(V) = I/V at the solution's own voltage
drops.  That is exactly a stationary backward equation whose driver
compares the implied generator with a fixed reference, here the circuit
with every diode replaced by its zero-bias resistance V_T/I_s.

One vectorized law gives every edge's current and slope, and every matrix
here is one assembly of per-edge weights; the driver's exact Jacobian is
the assembly of the slopes of w(V) V.  ``solve_circuit`` starts Newton from
one more assembly, each diode at its implied conductance at SPICE's
critical drop V_crit = V_T ln(V_T / (sqrt(2) I_s)), and retries from the
harmonic one where that start does not converge.  It stops at a Kirchhoff
residual of 1e-12 A, ``newton_nodal``'s, or of 1e-12 times the largest
current at a non-source node where that exceeds 1 A.

``newton_nodal`` solves the same physics directly (Kirchhoff current
residuals, analytic Jacobian, damped Newton) with no chain machinery and
no implied conductance at all; the two routes agree on every netlist and
validate each other.

Netlist format (one element per line, ``#`` starts a comment):

    V <node> <volts>          voltage source pinning a node
    R <a> <b> <ohms>          resistor between a and b
    D <a> <b> <I_s> <V_T>     diode, forward direction a -> b

Nodes are named by any token and indexed in order of first appearance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from ._linalg import solve_or_none
from .chain import RateMatrix, _reach, validate_rate_matrix
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


@dataclass(frozen=True)
class CircuitSpec:
    """A circuit as a node-indexed graph with component edges.

    ``edges`` entries are (a, b, Resistor | Diode) with node indices; the
    diode's forward direction is a -> b.  ``sources`` pins node potentials
    (the absorbing set of the chain correspondence).

    Construction lays the edges out as read-only arrays in edge order:
    ``tail`` and ``head`` (a and b), the ``diode`` mask, ``g0`` (zero-bias
    conductance, 1/R or I_s/V_T), ``i_s`` and ``v_t``.  Resistors carry
    I_s = 0 and V_T = inf, so x = V/V_T vanishes on them.
    """

    nodes: tuple[str, ...]
    edges: tuple
    sources: dict[int, float]
    tail: NDArray[np.int_] = field(init=False, repr=False, compare=False, default=None)
    head: NDArray[np.int_] = field(init=False, repr=False, compare=False, default=None)
    diode: NDArray[np.bool_] = field(init=False, repr=False, compare=False, default=None)
    g0: NDArray[np.float64] = field(init=False, repr=False, compare=False, default=None)
    i_s: NDArray[np.float64] = field(init=False, repr=False, compare=False, default=None)
    v_t: NDArray[np.float64] = field(init=False, repr=False, compare=False, default=None)

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
        ends = np.array([(a, b) for a, b, _comp in edges], dtype=np.int64).reshape(-1, 2)
        adj = np.zeros((n, n), dtype=bool)
        adj[ends[:, 0], ends[:, 1]] = adj[ends[:, 1], ends[:, 0]] = True
        seed = np.zeros(n, dtype=bool)
        seed[list(self.sources)] = True
        floating = np.flatnonzero(~_reach(adj, seed))
        if floating.size:
            raise DisconnectedNodeError([self.nodes[i] for i in floating])
        diode = np.array([isinstance(comp, Diode) for _a, _b, comp in edges], dtype=bool)
        params = [
            (comp.i_s / comp.v_t, comp.i_s, comp.v_t) if d else (1.0 / comp.ohms, 0.0, math.inf)
            for (_a, _b, comp), d in zip(edges, diode)
        ]
        cols = np.array(params, dtype=float).reshape(-1, 3)
        names = ("tail", "head", "diode", "g0", "i_s", "v_t")
        for name, arr in zip(names, (*ends.T.copy(), diode, *cols.T.copy())):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


def _edge_law(c: CircuitSpec, u):
    """Forward drop ``v``, current ``I(v)`` and slope ``dI/dv`` of every edge
    at potentials ``u``: Ohm's law, or Shockley's with the exponent clamped
    at ``_EXP_CAP``."""
    u = np.asarray(u, dtype=float)
    v = u[c.tail] - u[c.head]
    x = np.minimum(v / c.v_t, _EXP_CAP)
    return v, np.where(c.diode, c.i_s * np.expm1(x), c.g0 * v), c.g0 * np.exp(x)


def _implied(c: CircuitSpec, u):
    """Forward drop ``v``, implied conductance ``w = I(v)/v`` and the exact
    derivative of ``w * v`` of every edge at potentials ``u``.

    Where ``|x| < 1e-6``, x = v/V_T (on every resistor, giving w = 1/R), the
    removable v = 0 singularity is filled by the series
    (I_s/V_T)(1 + x/2 + x^2/6).  Diode conductances are floored at
    ``_W_FLOOR`` (there ``w * v`` has slope ``_W_FLOOR``), and past
    ``_EXP_CAP`` the clamped current, hence ``w * v``, is constant.
    """
    v, cur, slope = _edge_law(c, u)
    x = v / c.v_t
    series = np.abs(x) < 1e-6
    # np.where evaluates both branches on every edge and discards one: the
    # series overflows at far-off drops, and cur / v is 0/0 at v = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.where(series, c.g0 * (1.0 + x / 2.0 + x * x / 6.0), cur / v)
        dwv = np.where(series, c.g0 * (1.0 + x + x * x / 2.0), np.where(x < _EXP_CAP, slope, 0.0))
    floor = c.diode & (w < _W_FLOOR)
    return v, np.where(floor, _W_FLOOR, w), np.where(floor, _W_FLOOR, dwv)


def _assemble(c: CircuitSpec, w: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symmetric generator with rate ``w[e]`` both ways along every edge."""
    q = np.zeros((c.n, c.n))
    np.add.at(q, (np.r_[c.head, c.tail], np.r_[c.tail, c.head]), np.r_[w, w])
    q[np.diag_indices(c.n)] = -q.sum(axis=0)
    return q


def reference_matrix(c: CircuitSpec) -> RateMatrix:
    """Generator of the all-resistor surrogate: each diode contributes its
    zero-bias conductance I_s/V_T (the small-signal limit at V = 0)."""
    return validate_rate_matrix(_assemble(c, c.g0), state_names=c.nodes)


def implied_matrix(c: CircuitSpec, v) -> RateMatrix:
    """Generator with conductances implied by the potentials ``v``."""
    _, w, _ = _implied(c, v)
    return validate_rate_matrix(_assemble(c, w), state_names=c.nodes)


@dataclass(frozen=True)
class _CircuitDriver(MarkovianDriver):
    """Driver ``z @ (A^z - A) e_x`` computed over the circuit's edges, with
    its exact Jacobian; ``eval`` reads one row of ``field``."""

    fn: Callable = field(init=False, default=None, repr=False)
    circuit: CircuitSpec = field(default=None, compare=False, repr=False)
    reference: NDArray[np.float64] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "fn", self._at)

    def _at(self, x, t, y, z):
        return float(self.field(t, z, np.array([x]))[0])

    def field(self, t, u, rows):
        # (A^z)^T z is the net implied current w v into each node
        c = self.circuit
        v, w, _ = _implied(c, u)
        inflow = np.bincount(c.head, w * v, c.n) - np.bincount(c.tail, w * v, c.n)
        return inflow[rows] - self.reference[:, rows].T @ u

    def jacobian(self, t, u, rows):
        *_, dwv = _implied(self.circuit, u)
        return (_assemble(self.circuit, dwv) - self.reference)[np.ix_(rows, rows)].T


def circuit_driver(c: CircuitSpec, reference: RateMatrix | None = None) -> MarkovianDriver:
    """Driver ``z @ (A^z - A) e_x``: the gap between the implied-conductance
    generator at potentials z and the fixed all-resistor reference."""
    a = reference_matrix(c) if reference is None else reference
    return _CircuitDriver(circuit=c, reference=a.q, spec={"type": "diode_circuit"})


def _critical_conductance(c: CircuitSpec) -> NDArray[np.float64]:
    """Edge conductances with each diode at its implied conductance at
    SPICE's critical drop V_crit = V_T x_crit, x_crit = ln(V_T / (sqrt(2) I_s)),
    and each resistor at 1/R."""
    w = c.g0.copy()
    d = np.flatnonzero(c.diode)
    x = np.minimum(np.log(c.v_t[d] / (math.sqrt(2.0) * c.i_s[d])), _EXP_CAP)
    # I_s >= V_T/sqrt(2) puts V_crit at or below 0: keep I_s/V_T, the x -> 0 limit
    on = x > 0.0
    w[d[on]] *= np.expm1(x[on]) / x[on]
    return w


def _linear_start(c: CircuitSpec, w: NDArray[np.float64]) -> NDArray[np.float64]:
    """Potentials of the linear circuit with edge conductances ``w``; zero
    off the sources if that system is singular."""
    free = np.setdiff1d(np.arange(c.n), list(c.sources))
    q = _assemble(c, w)
    u = c.source_vector
    uf = solve_or_none(q[np.ix_(free, free)], -q[free] @ u)
    if uf is not None:
        u[free] = uf
    return u


def _newton(c: CircuitSpec, p: HittingProblem, u, tol: float, max_iter: int) -> SolutionField:
    """``solve_homogeneous`` from ``u``, run again from its answer until the
    residual there is below ``tol * max(1, largest current at a non-source
    node)``; edges between two sources enter no residual and are left out."""
    pinned = np.zeros(c.n, dtype=bool)
    pinned[list(c.sources)] = True
    at_free = ~(pinned[c.tail] & pinned[c.head])

    def bound(u):
        return tol * max(1.0, float(np.abs(_edge_law(c, u)[1][at_free]).max(initial=0.0)))

    iterations = 0
    while True:
        sol = solve_homogeneous(p, tol=bound(u), max_iter=max_iter - iterations, u0=u)
        iterations += sol.iterations
        u = sol.u
        if sol.residual < bound(u):
            return replace(sol, iterations=iterations)
        # a pass that does not return took at least one step
        if iterations >= max_iter:
            raise NoConvergenceError(sol.residual, iterations)


def solve_circuit(c: CircuitSpec, tol: float = 1e-12, max_iter: int = 200) -> SolutionField:
    """Node potentials by the stationary backward-equation route.

    The solution satisfies current conservation at every non-source node:
    the stationary system's residual at x is exactly the net current into
    x under the implied conductances.  It is stopped below ``tol`` amps, or
    below ``tol`` times the largest edge current at a non-source node where
    that exceeds 1 A, since on large currents an absolute bound lies below
    the residual's rounding; the default 1e-12 is ``newton_nodal``'s.
    Newton starts from the linear circuit with every diode at its implied
    conductance at its critical drop V_crit = V_T ln(V_T / (sqrt(2) I_s))
    (Nagel, SPICE2, 1975), not from the harmonic (all-resistor) solve,
    which puts the whole drive across the diodes and leaves Newton to lower
    each drop by about one thermal voltage a step.  Where the critical start does not converge, the
    solve is repeated from the harmonic start; ``iterations`` counts both.
    """
    a = reference_matrix(c)
    target = frozenset(c.sources)
    p = HittingProblem(
        a, target, c.source_vector, circuit_driver(c, a), require_reachable=True
    )
    try:
        return _newton(c, p, _linear_start(c, _critical_conductance(c)), tol, max_iter)
    except NoConvergenceError as exc:
        spent = exc.iterations
    sol = _newton(c, p, _linear_start(c, c.g0), tol, max_iter)
    return replace(sol, iterations=spent + sol.iterations)


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

    def residual(vv):
        return kirchhoff_residuals(c, vv)[free]

    def jacobian(vv):
        *_, slope = _edge_law(c, vv)
        return -_assemble(c, slope)[np.ix_(free, free)]

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
    _, cur, _ = _edge_law(c, v)
    return [(a, b, i) for (a, b, _comp), i in zip(c.edges, cur.tolist())]


def kirchhoff_residuals(c: CircuitSpec, v) -> NDArray[np.float64]:
    """Net current out of each node at potentials ``v``; zero off the
    sources when ``v`` solves the circuit."""
    _, cur, _ = _edge_law(c, v)
    return np.bincount(c.tail, cur, c.n) - np.bincount(c.head, cur, c.n)
