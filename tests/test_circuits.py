import math

import numpy as np
import pytest

from chainbsde import (
    MarkovianDriver,
    CircuitSpec,
    Diode,
    DisconnectedNodeError,
    HittingProblem,
    InputError,
    NoConvergenceError,
    Resistor,
    edge_currents,
    implied_matrix,
    kirchhoff_residuals,
    newton_nodal,
    parse_netlist,
    reference_matrix,
    solve_circuit,
    solve_homogeneous,
)
from chainbsde.circuits import (
    _EXP_CAP,
    _W_FLOOR,
    _critical_conductance,
    _linear_start,
    _newton,
    circuit_driver,
)

from conftest import resistor_nodal_oracle

DIVIDER = """
# two equal resistors between a 1 V source and ground
V top 1.0
V gnd 0.0
R top mid 1000
R mid gnd 1000
"""

SERIES_DIODE = """
V in 1.0
V gnd 0.0
D in out 1e-9 0.025
R out gnd 1000
"""

BRIDGE = """
# full-wave bridge: ac+ / ac- feed a resistive load through four diodes
V acp 2.0
V acn 0.0
D acp p 1e-9 0.025
D n acp 1e-9 0.025
D acn p 1e-9 0.025
D n acn 1e-9 0.025
R p n 500
"""


def free_nodes(c):
    return sorted(set(range(c.n)) - set(c.sources))


class TestParsing:
    def test_divider_structure(self):
        c = parse_netlist(DIVIDER)
        assert c.nodes == ("top", "gnd", "mid")  # first-appearance order
        assert c.sources == {0: 1.0, 1: 0.0}
        assert len(c.edges) == 2
        assert all(isinstance(comp, Resistor) for _a, _b, comp in c.edges)

    def test_diode_line(self):
        c = parse_netlist(SERIES_DIODE)
        a, b, d = c.edges[0]
        assert isinstance(d, Diode)
        assert d.i_s == 1e-9 and d.v_t == 0.025
        assert (c.nodes[a], c.nodes[b]) == ("in", "out")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(InputError, match="line 1"):
            parse_netlist("Q a b 1.0")
        with pytest.raises(InputError, match="line 2"):
            parse_netlist("V a 1.0\nR a b abc")
        with pytest.raises(InputError, match="line 1"):
            parse_netlist("R a b")  # missing value token

    def test_comments_and_blanks_skipped(self):
        c = parse_netlist("\n# nothing\nV a 1.0\n  \nR a b 10\nV b 0.0\n")
        assert c.n == 2 and len(c.edges) == 1


class TestSpecValidation:
    def test_requires_a_source(self):
        with pytest.raises(InputError):
            CircuitSpec(("a", "b"), ((0, 1, Resistor(1.0)),), {})

    def test_rejects_bad_edges(self):
        with pytest.raises(InputError):
            CircuitSpec(("a", "b"), ((0, 0, Resistor(1.0)),), {0: 1.0})
        with pytest.raises(InputError):
            CircuitSpec(("a", "b"), ((0, 5, Resistor(1.0)),), {0: 1.0})
        with pytest.raises(InputError):
            CircuitSpec(("a", "b"), ((0, 1, "wire"),), {0: 1.0})
        with pytest.raises(InputError):
            CircuitSpec(("a", "a"), ((0, 1, Resistor(1.0)),), {0: 1.0})

    def test_component_validation(self):
        with pytest.raises(InputError):
            Resistor(0.0)
        with pytest.raises(InputError):
            Diode(-1e-9, 0.025)
        with pytest.raises(InputError):
            Diode(1e-9, 0.0)

    def test_floating_node_detected(self):
        with pytest.raises(DisconnectedNodeError) as err:
            CircuitSpec(
                ("a", "b", "lost"), ((0, 1, Resistor(1.0)),), {0: 1.0, 1: 0.0}
            )
        assert err.value.nodes == ["lost"]


class TestMatrices:
    def test_reference_uses_zero_bias_conductance(self):
        c = parse_netlist(SERIES_DIODE)
        a = reference_matrix(c)
        i, o = c.index_of("in"), c.index_of("out")
        assert a.q[o, i] == pytest.approx(1e-9 / 0.025)
        assert a.state_names == c.nodes

    def test_implied_at_zero_matches_reference(self):
        c = parse_netlist(SERIES_DIODE)
        ref = reference_matrix(c)
        imp = implied_matrix(c, np.zeros(c.n))
        assert np.abs(imp.q - ref.q).max() < 1e-15

    def test_implied_grows_with_forward_bias(self):
        c = parse_netlist(SERIES_DIODE)
        i, o = c.index_of("in"), c.index_of("out")
        v = np.zeros(c.n)
        v[i] = 0.7
        imp = implied_matrix(c, v)
        assert imp.q[o, i] > reference_matrix(c).q[o, i]


    def test_implied_matrix_builds_at_large_drops(self):
        # forward drops of a volt give diodes conductances near 1e8 S and
        # beyond, whose rebalanced diagonals round by more than 1e-9
        c = parse_netlist(BRANCHES)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = implied_matrix(c, rng.normal(0.0, 0.5, size=c.n))
            off_mass = a.q.sum(axis=0) - np.diag(a.q)
            assert (np.abs(a.q.sum(axis=0)) <= 1e-12 * np.maximum(1.0, off_mass)).all()


class TestResistorCircuits:
    def test_divider(self):
        c = parse_netlist(DIVIDER)
        sol = solve_circuit(c)
        assert sol.u[c.index_of("mid")] == pytest.approx(0.5, abs=1e-12)

    def test_random_grids_match_nodal_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            names = tuple(f"n{i}" for i in range(n))
            edges = []
            # random connected resistor graph: a spanning path plus extras
            for i in range(n - 1):
                edges.append((i, i + 1, Resistor(float(rng.uniform(10, 1e4)))))
            for _ in range(n):
                a, b = rng.integers(0, n, 2)
                if a != b:
                    edges.append(
                        (int(a), int(b), Resistor(float(rng.uniform(10, 1e4))))
                    )
            sources = {0: float(rng.uniform(-5, 5)), n - 1: float(rng.uniform(-5, 5))}
            c = CircuitSpec(names, tuple(edges), sources)
            sol = solve_circuit(c)

            g = np.zeros((n, n))
            for a, b, comp in c.edges:
                g[a, b] += 1.0 / comp.ohms
                g[b, a] += 1.0 / comp.ohms
            expect = resistor_nodal_oracle(g, sources)
            assert np.abs(sol.u - expect).max() < 1e-10

    def test_max_principle(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            names = tuple(f"n{i}" for i in range(n))
            edges = [
                (i, i + 1, Resistor(float(rng.uniform(1, 100))))
                for i in range(n - 1)
            ]
            lo, hi = sorted(rng.uniform(-3, 3, 2))
            c = CircuitSpec(names, tuple(edges), {0: float(lo), n - 1: float(hi)})
            sol = solve_circuit(c)
            assert (sol.u >= lo - 1e-12).all() and (sol.u <= hi + 1e-12).all()


class TestDiodeCircuits:
    def check_against_oracle(self, c, tol=1e-6):
        sol = solve_circuit(c)
        expect = newton_nodal(c)
        assert np.abs(sol.u - expect).max() < tol
        resid = kirchhoff_residuals(c, sol.u)
        assert np.abs(resid[free_nodes(c)]).max() < 1e-8
        # every diode edge satisfies the Shockley law at the solution
        for (a, b, comp), (_a, _b, cur) in zip(c.edges, edge_currents(c, sol.u)):
            if isinstance(comp, Diode):
                dv = sol.u[a] - sol.u[b]
                assert cur == pytest.approx(
                    comp.i_s * math.expm1(dv / comp.v_t), rel=1e-12, abs=1e-15
                )
        return sol

    def test_series_diode_operating_point(self):
        c = parse_netlist(SERIES_DIODE)
        sol = self.check_against_oracle(c)
        out = sol.u[c.index_of("out")]
        # the diode eats a forward drop: output lands between 0 and the source
        assert 0.0 < out < 1.0
        # consistency: resistor current equals diode current
        i_r = out / 1000.0
        dv = sol.u[c.index_of("in")] - out
        assert i_r == pytest.approx(1e-9 * math.expm1(dv / 0.025), rel=1e-9)

    def test_series_diode_reverse_blocked(self):
        c = parse_netlist(SERIES_DIODE.replace("V in 1.0", "V in -1.0"))
        sol = self.check_against_oracle(c)
        # reverse-biased: essentially no current, output pinned near ground
        assert abs(sol.u[c.index_of("out")]) < 1e-3

    def test_bridge_polarity(self):
        c = parse_netlist(BRIDGE)
        sol = self.check_against_oracle(c)
        p, n = sol.u[c.index_of("p")], sol.u[c.index_of("n")]
        # rectified: load sees positive drop about two diode drops under 2 V
        assert p > n
        assert 0.0 < p - n < 2.0

    def test_bridge_reversed_supply_same_load_drop(self):
        fwd = parse_netlist(BRIDGE)
        rev = parse_netlist(
            BRIDGE.replace("V acp 2.0", "V acp 0.0").replace("V acn 0.0", "V acn 2.0")
        )
        s_f = self.check_against_oracle(fwd)
        s_r = self.check_against_oracle(rev)
        drop_f = s_f.u[fwd.index_of("p")] - s_f.u[fwd.index_of("n")]
        drop_r = s_r.u[rev.index_of("p")] - s_r.u[rev.index_of("n")]
        assert drop_f == pytest.approx(drop_r, abs=1e-9)

    def test_two_diode_ladder(self):
        c = parse_netlist(
            """
            V in 1.5
            V gnd 0.0
            D in a 1e-9 0.025
            R a b 200
            D b gnd 2e-9 0.03
            R a gnd 5000
            """
        )
        self.check_against_oracle(c)

    def test_diode_resistor_mesh(self):
        c = parse_netlist(
            """
            V s 0.9
            V gnd 0.0
            D s m1 1e-12 0.026
            R m1 m2 150
            R m2 gnd 330
            D m1 gnd 1e-10 0.026
            R s m2 2200
            """
        )
        self.check_against_oracle(c)


# A netlist on which Newton and the Picard sweeps diverge from the critical
# start (residuals near 1e17 A); the harmonic start solves it in 3 steps.
STALLS_FROM_CRITICAL = """
V n0 6.282
V n1 0
R n0 n2 42986.879
D n1 n3 2.728e-09 0.02531
D n4 n2 2.172e-13 0.02738
D n5 n1 8.337e-10 0.02744
D n6 n2 3.943e-10 0.02848
R n2 n3 1833.674
D n3 n6 9.227e-12 0.02826
R n0 n2 2.652
D n4 n5 5.909e-11 0.02974
"""


def diode_ladder(rng, drive, nodes=12):
    """Ladder ``in -D- x1 -R- x2 -D- x3 ...`` with every rung shunted to
    ground; ``nodes`` counts ``in`` and ``gnd``."""
    lines = [f"V in {drive!r}", "V gnd 0.0"]
    prev = "in"
    for k in range(1, nodes - 1):
        cur = f"x{k}"
        if k % 2:
            lines.append(f"D {prev} {cur} {rng.uniform(1e-10, 1e-8)!r} {rng.uniform(0.025, 0.03)!r}")
        else:
            lines.append(f"R {prev} {cur} {rng.uniform(100.0, 1000.0)!r}")
        lines.append(f"R {cur} gnd {rng.uniform(1000.0, 5000.0)!r}")
        prev = cur
    return parse_netlist("\n".join(lines))


class TestCriticalStart:
    @pytest.mark.parametrize("drive", [1.5, 3.0, 5.0, 10.0])
    def test_ladders_take_few_steps(self, drive):
        # from the all-resistor start each step lowers the largest diode
        # drop by about one thermal voltage: 42-50 steps at 1.5 V, and past
        # max_iter at 10 V
        rng = np.random.default_rng([int(10 * drive), 8])
        for _ in range(3):
            c = diode_ladder(rng, drive)
            sol = solve_circuit(c)
            # the oracle keeps the zero start, so it crawls at high drive
            expect = newton_nodal(c, max_iter=1000)
            assert np.abs(sol.u - expect).max() <= 1e-9 * drive
            assert sol.iterations <= 15

    def test_series_diode_iterations(self):
        assert solve_circuit(parse_netlist(SERIES_DIODE)).iterations <= 8

    @pytest.mark.filterwarnings("error")
    def test_critical_drop_at_or_below_zero(self):
        # I_s >= V_T/sqrt(2) puts V_crit <= 0; the start keeps I_s/V_T there
        for i_s in (0.025 / math.sqrt(2.0), 0.5):
            c = parse_netlist(SERIES_DIODE.replace("1e-9 0.025", f"{i_s!r} 0.025"))
            sol = solve_circuit(c)
            assert np.abs(sol.u - newton_nodal(c)).max() < 1e-9

    def test_retry_from_the_harmonic_start(self):
        c = parse_netlist(STALLS_FROM_CRITICAL)
        a = reference_matrix(c)
        p = HittingProblem(
            a, frozenset(c.sources), c.source_vector, circuit_driver(c, a), require_reachable=True
        )
        with pytest.raises(NoConvergenceError):
            _newton(c, p, _linear_start(c, _critical_conductance(c)), 1e-12, 200)
        sol = solve_circuit(c)
        assert np.abs(sol.u - newton_nodal(c)).max() < 1e-9
        # the failed attempt's steps are counted
        assert sol.iterations > 200

    def test_high_current_circuit(self):
        # the diodes at m carry 7.4e3 A, where 1e-12 A is below the rounding
        # of the residual; the stopping bound scales with that current
        c = parse_netlist(BRANCHES)
        sol = solve_circuit(c)
        at_free = np.isin(c.tail, free_nodes(c)) | np.isin(c.head, free_nodes(c))
        scale = np.abs([cur for _a, _b, cur in edge_currents(c, sol.u)])[at_free].max()
        assert scale > 1e3
        assert np.abs(kirchhoff_residuals(c, sol.u)[free_nodes(c)]).max() < 1e-12 * scale
        assert np.abs(sol.u - newton_nodal(c, tol=1e-10)).max() < 1e-7

    @pytest.mark.filterwarnings("error")
    def test_far_off_iterates_raise_no_warning(self):
        # one Newton step from the harmonic start, then Picard sweeps through
        # far-off potentials (residuals near 1e140 A): the series terms of
        # the implied conductance must not overflow where they are discarded
        c = diode_ladder(np.random.default_rng([100, 8]), 10.0)
        a = reference_matrix(c)
        p = HittingProblem(
            a, frozenset(c.sources), c.source_vector, circuit_driver(c, a), require_reachable=True
        )
        with pytest.raises(NoConvergenceError):
            solve_homogeneous(p, max_iter=1)


# Every edge law branch at once: ``hi -> lo`` sits past the exponent cap,
# ``m -> g`` (I_s/V_T below the conductance floor) on the floor, and the
# potentials put ``k -> g`` inside the series window |V/V_T| < 1e-6.
BRANCHES = """
V s 2.0
V g 0.0
V hi 20.0
V lo 0.0
D hi lo 1e-9 0.025
D s m 1e-9 0.025
D m g 1e-18 0.025
R m k 100
D k g 1e-9 0.025
R s k 1000
"""


def loop_current(comp, v):
    """Per-edge current law the vectorized one replaced, kept as the reference."""
    if isinstance(comp, Resistor):
        return v / comp.ohms
    return comp.i_s * math.expm1(min(v / comp.v_t, _EXP_CAP))


def loop_conductance(comp, v):
    """Per-edge implied conductance the vectorized one replaced."""
    if isinstance(comp, Resistor):
        return 1.0 / comp.ohms
    x = v / comp.v_t
    if abs(x) < 1e-6:
        w = comp.i_s / comp.v_t * (1.0 + x / 2.0 + x * x / 6.0)
    else:
        w = comp.i_s * math.expm1(min(x, _EXP_CAP)) / (x * comp.v_t)
    return max(w, _W_FLOOR)


def loop_generator(c, weight):
    q = np.zeros((c.n, c.n))
    for a, b, comp in c.edges:
        w = weight(a, b, comp)
        q[b, a] += w
        q[a, b] += w
    q[np.diag_indices(c.n)] = 0.0
    q[np.diag_indices(c.n)] -= q.sum(axis=0)
    return q


class TestCircuitDriver:
    def test_field_matches_the_per_node_loop(self):
        c = parse_netlist(BRANCHES)
        d = circuit_driver(c)
        ix = c.index_of
        rows = np.arange(c.n)
        ref = loop_generator(
            c, lambda a, b, comp: 1.0 / comp.ohms if isinstance(comp, Resistor) else comp.i_s / comp.v_t
        )
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = rng.normal(0.0, 0.2, size=c.n)
            z[ix("hi")], z[ix("lo")] = 20.0, 0.0
            z[ix("k")] = z[ix("g")] + rng.uniform(-1e-8, 1e-8)
            z[ix("m")] = z[ix("g")] - rng.uniform(0.01, 0.2)
            drops = {(a, b): (z[a] - z[b]) / comp.v_t for a, b, comp in c.edges if isinstance(comp, Diode)}
            assert drops[ix("hi"), ix("lo")] > _EXP_CAP
            assert abs(drops[ix("k"), ix("g")]) < 1e-6
            assert loop_conductance(Diode(1e-18, 0.025), z[ix("m")] - z[ix("g")]) == _W_FLOOR

            az = loop_generator(c, lambda a, b, comp: loop_conductance(comp, z[a] - z[b]))
            assert np.all(np.abs(implied_matrix(c, z).q - az) <= 1e-12 * np.abs(az))
            # sums are compared against the size of their terms, the scale
            # of their rounding
            gap = (az - ref).T @ z
            scale = (np.abs(az) + np.abs(ref)).T @ np.abs(z)
            assert np.all(np.abs(d.field(0.0, z, rows) - gap) <= 1e-12 * scale)
            currents = [loop_current(comp, z[a] - z[b]) for a, b, comp in c.edges]
            for (a, b, i), (a0, b0, _comp), i0 in zip(edge_currents(c, z), c.edges, currents):
                assert (a, b) == (a0, b0) and abs(i - i0) <= 1e-12 * abs(i0)
            net = np.zeros(c.n)
            size = np.zeros(c.n)
            for (a, b, _comp), i in zip(c.edges, currents):
                net[a] += i
                net[b] -= i
                size[[a, b]] += abs(i)
            assert np.all(np.abs(kirchhoff_residuals(c, z) - net) <= 1e-12 * size)
            # off the diagonal the Jacobian is each edge's slope of w(v) v
            # less its reference conductance: zero past the cap, the floor
            # on the floor, else a central difference of the loop law
            jac = d.jacobian(0.0, z, rows) + ref
            for a, b, comp in c.edges:
                v = z[a] - z[b]
                if isinstance(comp, Diode) and v / comp.v_t > _EXP_CAP:
                    assert jac[a, b] == jac[b, a] == 0.0
                    continue
                h = 1e-4 * (comp.v_t if isinstance(comp, Diode) else 1.0)
                slope = (
                    loop_conductance(comp, v + h) * (v + h) - loop_conductance(comp, v - h) * (v - h)
                ) / (2.0 * h)
                assert jac[a, b] == jac[b, a] == pytest.approx(slope, rel=1e-6, abs=0.0)

    def test_jacobian_matches_forward_differences(self):
        c = parse_netlist("V in 1.5\nV gnd 0\nD in a 1e-9 0.025\nD a b 2e-9 0.03\nR b gnd 500\nR a gnd 5e3")
        d = circuit_driver(c)
        rows = np.array(free_nodes(c))
        z = newton_nodal(c)
        jac = d.jacobian(0.0, z, rows)
        fd = MarkovianDriver.jacobian(d, 0.0, z, rows)
        assert np.abs(jac - fd).max() <= 1e-5 * np.abs(jac).max()


class TestOracleGuards:
    def test_all_nodes_pinned(self):
        c = parse_netlist("V a 1.0\nV b 0.0\nR a b 10")
        v = newton_nodal(c)
        assert np.allclose(v, [1.0, 0.0])
        sol = solve_circuit(c)
        assert np.allclose(sol.u, [1.0, 0.0])
