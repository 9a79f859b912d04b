import numpy as np
import pytest

from chainbsde import (
    MarkovianDriver,
    DimensionMismatchError,
    HittingProblem,
    InputError,
    McProblem,
    NumericalError,
    UnreachableTargetError,
    affine_driver,
    as_mc_problem,
    constant_driver,
    mc_validate,
    reliability_driver,
    shortest_path_driver,
    solve_homogeneous,
    validate_rate_matrix,
    zero_driver,
)
from chainbsde.montecarlo import _draw, _jump_tables

TWO = validate_rate_matrix([[-2.0, 0.0], [2.0, 0.0]])


class TestAsMcProblem:
    def test_affine_moves_tilt_into_dynamics(self):
        b = validate_rate_matrix([[-3.0, 0.0], [3.0, 0.0]])
        d = affine_driver(TWO, b=b, g=[0.5, 0.0], r=[0.1, 0.0])
        p = HittingProblem(TWO, frozenset({1}), [2.0, 0.0], d)
        mp = as_mc_problem(p)
        assert np.array_equal(mp.chain.q, b.q)
        assert np.allclose(mp.running, [0.5, 0.0])
        assert np.allclose(mp.discount, [0.1, 0.0])
        assert np.allclose(mp.phi, [2.0, 0.0])

    def test_reliability_uses_loss_as_discount(self):
        d = reliability_driver(TWO, [0.7, 0.0])
        p = HittingProblem(TWO, frozenset({1}), [0.0, 1.0], d)
        mp = as_mc_problem(p)
        assert np.array_equal(mp.chain.q, TWO.q)
        assert np.allclose(mp.discount, [0.7, 0.0])
        assert np.allclose(mp.running, 0.0)

    def test_controlled_drivers_rejected(self):
        d = shortest_path_driver(TWO, [TWO, validate_rate_matrix(2.0 * TWO.q)])
        p = HittingProblem(TWO, frozenset({1}), [0.0, 0.0], d)
        with pytest.raises(InputError, match="collapse the policy"):
            as_mc_problem(p)

    def test_zero_driver_is_simulable(self):
        # harmonic case: no tilt, no running term, pure hitting law
        p = HittingProblem(TWO, frozenset({1}), [0.0, 4.0], zero_driver(TWO))
        mp = as_mc_problem(p)
        assert np.array_equal(mp.chain.q, TWO.q)
        assert np.allclose(mp.running, 0.0) and np.allclose(mp.discount, 0.0)

    def test_opaque_driver_rejected(self):
        d = MarkovianDriver(lambda x, t, y, z: float(np.sin(y)), monotone=False)
        p = HittingProblem(TWO, frozenset({1}), [0.0, 0.0], d)
        with pytest.raises(InputError):
            as_mc_problem(p)

    def test_time_dependent_terminal_rejected(self):
        d = affine_driver(TWO)
        p = HittingProblem(TWO, frozenset({1}), lambda t, x: t, d)
        with pytest.raises(InputError):
            as_mc_problem(p)


class TestMcProblemValidation:
    def test_vector_shapes(self):
        with pytest.raises(DimensionMismatchError):
            McProblem(TWO, frozenset({1}), np.zeros(3))
        with pytest.raises(InputError):
            McProblem(TWO, frozenset({1}), [np.nan, 0.0])
        with pytest.raises(InputError):
            McProblem(TWO, frozenset(), np.zeros(2))

    def test_unreachable_target(self):
        q = validate_rate_matrix([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(UnreachableTargetError):
            McProblem(q, frozenset({1}), np.zeros(2))


class TestEstimates:
    def test_expected_hitting_time(self):
        p = HittingProblem(
            TWO, frozenset({1}), [0.0, 0.0], affine_driver(TWO, g=[1.0, 0.0])
        )
        sol = solve_homogeneous(p)
        assert sol.u[0] == pytest.approx(0.5, abs=1e-12)
        rep = mc_validate(p, sol.u, paths=40_000, seed=1)
        assert rep.within(4.0)
        assert rep.estimates[0] == pytest.approx(0.5, abs=0.02)

    def test_discounted_terminal(self):
        # u(0) = E[e^{-r tau}] = lam / (lam + r) for the single-jump chain
        r = 1.0
        mp = McProblem(
            TWO, frozenset({1}), [0.0, 1.0], discount=[r, 0.0]
        )
        rep = mc_validate(mp, [2.0 / 3.0, 1.0], paths=40_000, seed=2)
        assert rep.within(4.0)

    def test_negative_discount_grows_the_payoff(self):
        # discount -beta estimates E[e^{beta tau}] = lam / (lam - beta)
        beta = 0.5
        mp = McProblem(TWO, frozenset({1}), [0.0, 1.0], discount=[-beta, 0.0])
        rep = mc_validate(mp, [2.0 / 1.5, 1.0], paths=40_000, seed=3)
        assert rep.within(4.0)

    def test_running_plus_terminal_combination(self):
        # u0 = E[tau] * g + phi when undiscounted: 0.5 * 2 + 3 = 4
        mp = McProblem(TWO, frozenset({1}), [0.0, 3.0], running=[2.0, 0.0])
        rep = mc_validate(mp, [4.0, 3.0], paths=40_000, seed=4)
        assert rep.within(4.0)

    def test_wrong_value_rejected_by_z_score(self):
        p = HittingProblem(
            TWO, frozenset({1}), [0.0, 0.0], affine_driver(TWO, g=[1.0, 0.0])
        )
        rep = mc_validate(p, [0.8, 0.0], paths=40_000, seed=5)
        assert not rep.within(5.0)


class TestReportMechanics:
    def problem(self):
        return McProblem(TWO, frozenset({1}), [0.0, 7.0], running=[1.0, 0.0])

    def test_deterministic_per_seed(self):
        mp = self.problem()
        r1 = mc_validate(mp, [7.5, 7.0], paths=500, seed=9)
        r2 = mc_validate(mp, [7.5, 7.0], paths=500, seed=9)
        r3 = mc_validate(mp, [7.5, 7.0], paths=500, seed=10)
        assert np.array_equal(r1.estimates, r2.estimates)
        assert not np.array_equal(r1.estimates, r3.estimates)

    def test_streams_independent_of_request_order(self):
        mp = self.problem()
        both = mc_validate(mp, [7.5, 7.0], paths=500, seed=9)
        only0 = mc_validate(mp, [7.5, 7.0], paths=500, seed=9, start_states=[0])
        assert both.estimates[0] == only0.estimates[0]

    def test_target_start_scored_exactly(self):
        mp = self.problem()
        rep = mc_validate(mp, [7.5, 7.0], paths=100, seed=1, start_states=[1])
        assert rep.estimates[0] == 7.0
        assert rep.standard_errors[0] == 0.0
        assert rep.z_scores[0] == 0.0
        bad = mc_validate(mp, [7.5, 6.0], paths=100, seed=1, start_states=[1])
        assert np.isinf(bad.z_scores[0])

    def test_input_validation(self):
        mp = self.problem()
        with pytest.raises(InputError):
            mc_validate(mp, [7.5, 7.0], paths=1)
        with pytest.raises(DimensionMismatchError):
            mc_validate(mp, [7.5], paths=10)
        with pytest.raises(InputError):
            mc_validate(mp, [7.5, 7.0], paths=10, start_states=[5])

    def test_max_jumps_exhaustion(self):
        # a tight two-state loop with a vanishing escape rate overruns any
        # small jump budget almost surely
        loop = validate_rate_matrix(
            [[-1.0, 1.0, 0.0], [1.0, -1.0 - 1e-9, 0.0], [0.0, 1e-9, 0.0]]
        )
        mp = McProblem(loop, frozenset({2}), np.zeros(3))
        with pytest.raises(NumericalError):
            mc_validate(mp, np.zeros(3), paths=10, seed=0, max_jumps=50)

    def test_hitting_problem_accepted_directly(self):
        p = HittingProblem(
            TWO, frozenset({1}), [0.0, 0.0], affine_driver(TWO, g=[1.0, 0.0])
        )
        rep = mc_validate(p, [0.5, 0.0], paths=1_000, seed=0)
        assert rep.paths == 1_000 and rep.seed == 0


def simulator_draw(col, x, u):
    """Next state out of ``x`` by ``simulate_controlled_path``'s rule on the
    column ``col``: search the normalized cumulative rates of the positive
    jumps, side="right"."""
    probs = np.maximum(col, 0.0)
    probs[x] = 0.0
    nonzero = np.flatnonzero(probs)
    cum = np.cumsum(probs[nonzero])
    cum /= cum[-1]
    k = min(int(np.searchsorted(cum, u, side="right")), len(nonzero) - 1)
    return int(nonzero[k])


def test_jump_draws_follow_the_simulator_rule():
    rng = np.random.default_rng(17)
    below_one = np.nextafter(1.0, 0.0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        # sparse columns give zero-probability plateaus; an all-zero
        # column is an absorbing state, an empty row of the jump chain
        q = rng.uniform(0.1, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.4)
        q[:, rng.random(n) < 0.2] = 0.0
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=0))
        # validation moves column residuals into the diagonal, so an exit
        # rate can differ from its row's total by a rounding step
        q = validate_rate_matrix(q).q
        lam, cum = _jump_tables(q)
        for x in np.flatnonzero(lam > 0.0):
            # every CDF entry, the doubles on either side, and both ends
            edges = np.concatenate([cum[x], [0.0, below_one]])
            u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
            u = np.unique(u[(u >= 0.0) & (u < 1.0)])
            drawn = _draw(np.broadcast_to(cum[x], (u.size, n)), u)
            assert (q[drawn, x] > 0.0).all() and (drawn != x).all()
            assert drawn.tolist() == [simulator_draw(q[:, x], x, v) for v in u]
