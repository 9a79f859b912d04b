import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainbsde import (
    ControlSet,
    DimensionMismatchError,
    EmptyControlSetError,
    GammaNotCertifiableError,
    HittingProblem,
    InputError,
    MarkovianDriver,
    NoConvergenceError,
    NotCertifiedError,
    affine_driver,
    check_balanced,
    constant_driver,
    hamiltonian_inf,
    hamiltonian_sup,
    incremental_ratio,
    lipschitz_bound,
    measure_envelope_driver,
    reliability_driver,
    shift_invariance_defect,
    shortest_path_driver,
    solve_homogeneous,
    truncate_driver,
    validate_rate_matrix,
    zero_driver,
)

from conftest import affine_parts, recurrent_chain, scaled_member, spine_chain


@pytest.fixture
def chain():
    return validate_rate_matrix(
        [[-2.0, 1.0, 0.5], [1.5, -1.0, 0.5], [0.5, 0.0, -1.0]]
    )


class TestAffine:
    def test_formula(self, chain):
        rng = np.random.default_rng(0)
        b = scaled_member(rng, chain)
        g = np.array([0.2, -0.3, 1.0])
        r = np.array([0.5, 0.0, 1.5])
        d = affine_driver(chain, b=b, g=g, r=r)
        for _ in range(20):
            x = int(rng.integers(3))
            y = float(rng.normal())
            z = rng.normal(size=3)
            expect = z @ (b.q - chain.q)[:, x] + g[x] - r[x] * y
            assert d.eval(x, 0.0, y, z) == pytest.approx(expect, abs=1e-14)
        assert d.c == pytest.approx(1.5)
        assert not d.time_dependent
        assert d.spec["type"] == "affine"

    def test_defaults(self, chain):
        d = zero_driver(chain)
        assert d.eval(1, 0.0, 3.0, [1.0, 2.0, 3.0]) == 0.0
        d1 = constant_driver(chain, 2.5)
        assert d1.eval(0, 0.0, -1.0, np.zeros(3)) == 2.5

    def test_negative_discount_rejected(self, chain):
        with pytest.raises(InputError):
            affine_driver(chain, r=[-0.1, 0.0, 0.0])

    def test_dimension_checks(self, chain):
        with pytest.raises(DimensionMismatchError):
            affine_driver(chain, g=[1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            affine_driver(chain, b=np.zeros((2, 2)))

    def test_monotone_incremental_ratio(self, chain):
        rng = np.random.default_rng(4)
        d = affine_driver(chain, r=[0.5, 1.0, 0.2])
        for _ in range(30):
            x = int(rng.integers(3))
            y1, y2 = rng.normal(size=2)
            if y1 == y2:
                continue
            ratio = incremental_ratio(d, x, 0.0, y1, y2, rng.normal(size=3))
            assert -1e-12 <= ratio <= d.c + 1e-12

    def test_shift_invariance(self, chain):
        # z enters only through B - A, whose columns sum to zero
        rng = np.random.default_rng(5)
        d = affine_driver(chain, b=scaled_member(rng, chain), g=[1.0, 0.0, 0.0])
        assert shift_invariance_defect(d, chain.n, samples=200) < 1e-9


class TestControlSets:
    def make(self, rng, n=4, members=2):
        a = recurrent_chain(rng, n)
        mats = tuple(scaled_member(rng, a) for _ in range(members))
        cost = rng.uniform(0.0, 2.0, size=(n, members))
        return a, ControlSet(
            labels=tuple(f"u{k}" for k in range(members)),
            matrices=mats,
            cost=cost,
            reference=a,
        )

    def test_gamma_certificate_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            _a, cs = self.make(rng)
            assert 0.0 < cs.gamma <= 1.0

    def test_empty_family_rejected(self, chain):
        with pytest.raises(EmptyControlSetError):
            ControlSet(labels=(), matrices=(), cost=None, reference=chain)

    def test_support_mismatch_rejected(self, chain):
        # a member that deletes a jump can never be mutually controlled
        q = chain.q.copy()
        q[1, 0] = 0.0
        q[np.diag_indices(3)] = 0.0
        q[np.diag_indices(3)] = -q.sum(axis=0)
        bad = validate_rate_matrix(q)
        with pytest.raises(GammaNotCertifiableError):
            ControlSet(
                labels=("bad",), matrices=(bad,), cost=np.zeros((3, 1)),
                reference=chain,
            )

    def test_label_and_cost_shape_checks(self, chain):
        with pytest.raises(DimensionMismatchError):
            ControlSet(
                labels=("a", "b"), matrices=(chain,), cost=np.zeros((3, 1)),
                reference=chain,
            )
        with pytest.raises(DimensionMismatchError):
            ControlSet(
                labels=("a",), matrices=(chain,), cost=np.zeros((3, 2)),
                reference=chain,
            )

    def test_callable_cost_flag(self, chain):
        cs = ControlSet(
            labels=("a",), matrices=(chain,),
            cost=lambda t, y, x, u: t + x,
            reference=chain,
        )
        assert cs.cost_time_dependent is True
        assert cs.cost_value(2.0, 0.0, 1, 0) == 3.0


class TestHamiltonians:
    def test_envelope_order_and_attainment(self):
        rng = np.random.default_rng(21)
        a = recurrent_chain(rng, 4)
        mats = tuple(scaled_member(rng, a) for _ in range(3))
        cost = rng.uniform(0.0, 1.0, size=(4, 3))
        cs = ControlSet(
            labels=("u0", "u1", "u2"), matrices=mats, cost=cost, reference=a
        )
        lo = hamiltonian_inf(cs, a)
        hi = hamiltonian_sup(cs, a)
        for _ in range(50):
            x = int(rng.integers(4))
            y = float(rng.normal())
            z = rng.normal(size=4)
            vals = [
                cost[x, u] + z @ (mats[u].q[:, x] - a.q[:, x]) for u in range(3)
            ]
            flo = lo.eval(x, 0.0, y, z)
            fhi = hi.eval(x, 0.0, y, z)
            assert flo == pytest.approx(min(vals), abs=1e-12)
            assert fhi == pytest.approx(max(vals), abs=1e-12)
            umin = int(lo.policy(z)[x])
            umax = int(hi.policy(z)[x])
            assert vals[umin] == pytest.approx(flo, abs=1e-12)
            assert vals[umax] == pytest.approx(fhi, abs=1e-12)

    def test_argmin_breaks_ties_low(self):
        a = validate_rate_matrix([[-1.0, 1.0], [1.0, -1.0]])
        cs = ControlSet(
            labels=("first", "second"), matrices=(a, a),
            cost=np.ones((2, 2)), reference=a,
        )
        assert hamiltonian_inf(cs, a).policy(np.zeros(2))[0] == 0
        assert hamiltonian_sup(cs, a).policy(np.zeros(2))[0] == 0


class TestSpecialDrivers:
    def test_reliability_uncontrolled(self, chain):
        d = reliability_driver(chain, [0.3, 0.0, 1.0])
        assert d.eval(0, 0.0, 2.0, np.zeros(3)) == pytest.approx(-0.6)
        assert d.eval(1, 0.0, 2.0, np.ones(3)) == 0.0
        assert d.c == pytest.approx(1.0)
        assert d.spec == {
            "type": "reliability",
            "loss_rates": [0.3, 0.0, 1.0],
            "controlled": False,
        }
        with pytest.raises(InputError):
            reliability_driver(chain, [-0.1, 0.0, 0.0])

    def test_reliability_controlled_takes_best_tilt(self, chain):
        rng = np.random.default_rng(2)
        m = scaled_member(rng, chain)
        d = reliability_driver(chain, np.zeros(3), control_matrices=[chain, m])
        z = rng.normal(size=3)
        x = 1
        expect = max(0.0, z @ (m.q - chain.q)[:, x])
        assert d.eval(x, 0.0, 0.0, z) == pytest.approx(expect, abs=1e-14)
        assert d.spec["controlled"] is True

    def test_shortest_path_constant_for_singleton(self, chain):
        d = shortest_path_driver(chain)
        z = np.array([4.0, -1.0, 0.5])
        assert d.eval(0, 0.0, 9.9, z) == 1.0

    def test_measure_envelope_closed_form(self, chain):
        gamma = 0.5
        d = measure_envelope_driver(chain, gamma)
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = int(rng.integers(3))
            z = rng.normal(size=3)
            col = np.maximum(chain.q[:, x], 0.0)
            diff = z - z[x]
            diff[x] = 0.0
            expect = float(
                col
                @ (
                    (1.0 / gamma - 1.0) * np.maximum(diff, 0.0)
                    + (1.0 - gamma) * np.maximum(-diff, 0.0)
                )
            )
            assert d.eval(x, 0.0, 0.0, z) == pytest.approx(expect, abs=1e-13)
        # it is the sup over scaled members: dominates each sampled tilt
        for seed in range(10):
            m = scaled_member(np.random.default_rng(seed), chain, lo=gamma, hi=1 / gamma)
            for x in range(3):
                z = np.random.default_rng(seed + 50).normal(size=3)
                tilt = z @ (m.q - chain.q)[:, x]
                assert d.eval(x, 0.0, 0.0, z) >= tilt - 1e-10

    def test_measure_envelope_bad_gamma(self, chain):
        with pytest.raises(InputError):
            measure_envelope_driver(chain, 0.0)
        with pytest.raises(InputError):
            measure_envelope_driver(chain, 1.2)

    def test_truncation_agrees_inside_the_bound(self, chain):
        rng = np.random.default_rng(6)
        d = affine_driver(chain, b=scaled_member(rng, chain), g=[1.0, 2.0, 0.0], r=[0.1, 0.2, 0.3])
        t5 = truncate_driver(d, 5.0)
        z_small = np.array([0.5, -0.5, 1.0])
        assert t5.eval(0, 0.0, 2.0, z_small) == pytest.approx(
            d.eval(0, 0.0, 2.0, z_small), abs=1e-14
        )
        # a constant shift of z is invisible to both: recentering first
        assert t5.eval(0, 0.0, 2.0, z_small + 100.0) == pytest.approx(
            d.eval(0, 0.0, 2.0, z_small), abs=1e-14
        )
        # pointwise convergence as the bound grows
        z_big = np.array([40.0, -30.0, 0.0])
        exact = d.eval(1, 0.0, 50.0, z_big)
        gaps = [
            abs(truncate_driver(d, b).eval(1, 0.0, 50.0, z_big) - exact)
            for b in (1.0, 10.0, 100.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2] == 0.0
        with pytest.raises(InputError):
            truncate_driver(d, 0.0)


class TestBalance:
    def test_affine_driver_passes(self):
        rng = np.random.default_rng(30)
        a = recurrent_chain(rng, 4)
        b = scaled_member(rng, a, lo=0.6, hi=1.6)
        d = affine_driver(a, b=b, g=rng.normal(size=4), r=rng.uniform(0, 1, 4))
        cert = check_balanced(d, a, gamma=0.5, samples=100, seed=1)
        assert cert.passed
        assert cert.gamma == 0.5
        # witnesses satisfy the increment identity they claim to
        for x, t, z, zp, lam in cert.witnesses:
            df = d.eval(x, t, 0.0, z) - d.eval(x, t, 0.0, zp)
            assert (z - zp) @ (lam - a.q[:, x] * 0.0) - (
                df + (z - zp) @ a.q[:, x]
            ) == pytest.approx(0.0, abs=1e-7)

    def test_zero_driver_passes_at_any_level(self):
        rng = np.random.default_rng(31)
        a = recurrent_chain(rng, 3)
        cert = check_balanced(zero_driver(a), a, gamma=1.0, samples=100)
        assert cert.passed

    def test_unbalanced_driver_fails_with_counterexample(self):
        # depends on z through a sum, far outside any intensity box
        rng = np.random.default_rng(32)
        a = recurrent_chain(rng, 3)
        from chainbsde import MarkovianDriver

        d = MarkovianDriver(lambda x, t, y, z: 100.0 * float(np.sum(z * z)))
        cert = check_balanced(d, a, gamma=0.9, samples=40, seed=2)
        assert not cert.passed
        assert len(cert.failures) > 0

    def test_lipschitz_bound_needs_certificate(self):
        rng = np.random.default_rng(33)
        a = recurrent_chain(rng, 3)
        d = zero_driver(a)
        with pytest.raises(NotCertifiedError):
            lipschitz_bound(d, a, gamma=0.5, certificate=None)
        cert = check_balanced(d, a, gamma=0.5, samples=50)
        val = lipschitz_bound(d, a, gamma=0.5, certificate=cert)
        assert val == pytest.approx(np.sqrt(a.max_rate / 0.5))
        # certificate at a lower level does not cover a higher request
        with pytest.raises(NotCertifiedError):
            lipschitz_bound(d, a, gamma=0.9, certificate=cert)

    def test_import_leaves_the_lp_solver_unloaded(self):
        # scipy costs a large share of a CLI run's import and only the LP
        # fallback of check_balanced needs it (scipy.optimize)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, chainbsde.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


def family_drivers(rng, n):
    """Every built-in control-family driver on one random spine chain."""
    a = spine_chain(rng, n)
    mats = tuple(scaled_member(rng, a) for _ in range(3))
    cs = ControlSet(("u0", "u1", "u2"), mats, rng.uniform(0.5, 2.0, size=(n, 3)), a)
    b, g, r = affine_parts(rng, a)
    loss = rng.uniform(0.05, 0.5, size=n)
    return a, {
        "affine": affine_driver(a, b, g, r),
        "hamiltonian_inf": hamiltonian_inf(cs),
        "hamiltonian_sup": hamiltonian_sup(cs),
        "reliability": reliability_driver(a, loss),
        "reliability_controlled": reliability_driver(a, loss, [a, *mats]),
        "shortest_path": shortest_path_driver(a, [a, *mats]),
    }


class TestControlFamilies:
    """The vectorized family path against the per-state scalar path."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
    def test_field_and_jacobian_match_the_scalar_path(self, seed, n):
        rng = np.random.default_rng(seed)
        a, drivers = family_drivers(rng, n)
        u = rng.normal(0.0, 2.0, size=n)
        rows = np.arange(1, n)
        for d in drivers.values():
            loop = np.array([d.eval(x, 0.0, u[x], u) for x in rows])
            assert np.abs(d.field(0.0, u, rows) - loop).max() <= 1e-12
            # away from ties: no difference step switches the active member
            active = d.policy(u)
            for j in rows:
                up = u.copy()
                up[j] += 1e-7 * max(1.0, abs(u[j]))
                assume(np.array_equal(d.policy(up), active))
            fd = MarkovianDriver.jacobian(d, 0.0, u, rows)
            assert np.abs(d.jacobian(0.0, u, rows) - fd).max() <= 1e-6

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
    def test_solve_matches_the_opaque_driver(self, seed, n):
        rng = np.random.default_rng(seed)
        a, drivers = family_drivers(rng, n)
        phi = rng.uniform(0.0, 1.0, size=n)
        for d in drivers.values():
            fast = solve_homogeneous(HittingProblem(a, {0}, phi, d), tol=1e-12)
            u = fast.u
            scalar = [d.eval(x, 0.0, u[x], u) + a.q[:, x] @ u for x in range(1, n)]
            assert np.abs(scalar).max() <= 1e-10
            opaque = MarkovianDriver(d.fn, c=d.c)
            try:
                slow = solve_homogeneous(HittingProblem(a, {0}, phi, opaque), tol=1e-12)
            except NoConvergenceError:
                # forward differences can stall at a kink of the max; the
                # scalar residual above still certifies the fast solution
                continue
            assert np.abs(u - slow.u).max() <= 1e-10

    def test_exact_jacobian_solves_at_a_kink(self):
        # controlled reliability with a kink of the max near the solution,
        # where the forward-difference path stalls in NoConvergenceError
        rng = np.random.default_rng(1)
        a, drivers = family_drivers(rng, 4)
        phi = rng.uniform(0.0, 1.0, size=4)
        d = drivers["reliability_controlled"]
        sol = solve_homogeneous(HittingProblem(a, {0}, phi, d))
        u = sol.u
        scalar = [d.eval(x, 0.0, u[x], u) + a.q[:, x] @ u for x in range(1, 4)]
        assert np.abs(scalar).max() < 1e-10
