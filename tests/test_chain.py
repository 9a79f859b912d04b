import numpy as np
import pytest
import scipy.stats

from chainbsde import (
    AbsorbedOutsideTargetError,
    ColumnSumError,
    DimensionMismatchError,
    InputError,
    NegativeOffDiagonalError,
    NonFiniteEntryError,
    RateMatrix,
    gamma_controlled,
    max_gamma,
    seminorm_sq,
    simulate_controlled_path,
    simulate_path,
    states_reaching,
    validate_rate_matrix,
)

from conftest import recurrent_chain, spine_chain

UNIT_2STATE = [[-1.0, 1.0], [1.0, -1.0]]
ABSORBING_2STATE = [[-1.0, 0.0], [1.0, 0.0]]


class TestValidation:
    def test_accepts_and_freezes(self):
        a = validate_rate_matrix(ABSORBING_2STATE, state_names=("alive", "done"))
        assert isinstance(a, RateMatrix)
        assert a.n == 2
        assert a.name_of(0) == "alive"
        with pytest.raises(ValueError):
            a.q[0, 0] = 5.0  # storage is read-only

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            validate_rate_matrix([[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionMismatchError):
            validate_rate_matrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteEntryError):
            validate_rate_matrix([[-np.inf, 0.0], [np.inf, 0.0]])
        with pytest.raises(NonFiniteEntryError):
            validate_rate_matrix([[np.nan, 0.0], [0.0, 0.0]])

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonalError) as err:
            validate_rate_matrix([[0.0, -0.5], [0.0, 0.5]])
        assert err.value.value == -0.5

    def test_offdiag_undershoot_clamped(self):
        # parsing noise within the slack is squashed to zero, and the
        # residual it leaves behind is folded back into the diagonal
        a = validate_rate_matrix([[-1.0, -1e-13], [1.0, 1e-13]])
        assert a.q[0, 1] == 0.0
        assert abs(a.q.sum(axis=0)).max() < 1e-12

    def test_column_residual_renormalized(self):
        a = validate_rate_matrix([[-1.0 + 3e-10, 0.0], [1.0, 0.0]])
        assert abs(a.q.sum(axis=0)).max() < 1e-12

    def test_column_residual_too_large(self):
        with pytest.raises(ColumnSumError) as err:
            validate_rate_matrix([[-1.0 + 1e-6, 0.0], [1.0, 0.0]])
        assert err.value.col == 0

    def test_column_window_scales_with_the_rates(self):
        # rates near 1e8 carry column residuals far above an absolute 1e-9
        # but well inside 1e-9 of their off-diagonal mass
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.uniform(1e7, 1e9, (5, 5))
            np.fill_diagonal(q, 0.0)
            q[np.diag_indices(5)] = -q.sum(axis=0)
            q += rng.normal(0.0, 1e-2, (5, 5))
            a = validate_rate_matrix(q)
            off_mass = a.q.sum(axis=0) - np.diag(a.q)
            assert (np.abs(a.q.sum(axis=0)) <= 1e-12 * off_mass).all()
            assert gamma_controlled(a, a, 0.5)
        with pytest.raises(ColumnSumError):
            validate_rate_matrix([[-1e8 + 1.0, 0.0], [1e8, 0.0]])

    def test_state_name_count(self):
        with pytest.raises(DimensionMismatchError):
            validate_rate_matrix(UNIT_2STATE, state_names=("only-one",))


class TestProperties:
    def test_exit_rates_and_support(self):
        a = validate_rate_matrix(
            [[-2.0, 1.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
        )
        assert np.allclose(a.exit_rates, [2.0, 1.0, 0.0])
        assert a.max_rate == 2.0
        assert a.support[1, 0] and a.support[0, 1]
        assert not a.support.diagonal().any()
        assert np.allclose(a.column(0), [-2.0, 2.0, 0.0])
        assert a.name_of(2) == "2"

    def test_random_chains_are_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = spine_chain(rng, n)
            off = a.q.copy()
            np.fill_diagonal(off, 0.0)
            assert (off >= 0.0).all()
            assert np.abs(a.q.sum(axis=0)).max() < 1e-12
            assert states_reaching(a, {0}).all()


class TestGammaControl:
    def test_unit_chain_self_level(self):
        # (1-g)*a has diagonal -(1-g) <= -g exactly when g <= 1/2
        a = validate_rate_matrix(UNIT_2STATE)
        assert gamma_controlled(a, a, 0.5)
        assert not gamma_controlled(a, a, 0.5 + 1e-6)
        assert abs(max_gamma(a, [a]) - 0.5) <= 1e-9

    def test_empty_family(self):
        a = validate_rate_matrix(UNIT_2STATE)
        assert max_gamma(a, []) == 1.0

    def test_support_mismatch_is_zero(self):
        a = validate_rate_matrix(UNIT_2STATE)
        b = validate_rate_matrix([[0.0, 1.0], [0.0, -1.0]])
        assert max_gamma(a, [b]) == 0.0

    def test_gamma_outside_range_rejected(self):
        a = validate_rate_matrix(UNIT_2STATE)
        with pytest.raises(InputError):
            gamma_controlled(a, a, 0.0)
        with pytest.raises(InputError):
            gamma_controlled(a, a, 1.5)

    def test_bisection_sits_on_the_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = recurrent_chain(rng, int(rng.integers(2, 6)))
            b = recurrent_chain(rng, a.n)
            # force shared support so a positive level exists
            bq = np.where(a.q != 0.0, np.abs(b.q), 0.0)
            np.fill_diagonal(bq, 0.0)
            bq[np.diag_indices(a.n)] = -bq.sum(axis=0)
            b = validate_rate_matrix(bq)
            g = max_gamma(a, [b])
            assert 0.0 < g <= 1.0
            assert gamma_controlled(a, b, g) and gamma_controlled(b, a, g)
            if g < 1.0 - 1e-9:
                probe = g + 5e-9
                assert not (
                    gamma_controlled(a, b, probe) and gamma_controlled(b, a, probe)
                )


def bisection_gamma(a, members, tol=1e-9):
    """The bisection ``max_gamma`` once ran on ``gamma_controlled``, kept
    as the oracle of its closed form."""
    def feasible(g):
        return all(gamma_controlled(a, b, g) and gamma_controlled(b, a, g) for b in members)

    if not members or feasible(1.0):
        return 1.0
    lo = 1e-12
    if not feasible(lo):
        return 0.0
    hi = 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def log_uniform_member(rng, support, span):
    q = np.where(support, 10.0 ** rng.uniform(*span, support.shape), 0.0)
    q[np.diag_indices(q.shape[0])] = -q.sum(axis=0)
    return validate_rate_matrix(q)


class TestGammaClosedForm:
    @pytest.mark.parametrize("span", [(-3.0, 3.0), (3.0, 10.0)])
    def test_matches_the_bisection(self, span):
        # every third family has an absorbing state, every third a member
        # whose support differs from the reference's in some entries
        rng = np.random.default_rng(17)
        for k in range(300):
            n = int(rng.integers(2, 7))
            support = rng.random((n, n)) < 0.6
            np.fill_diagonal(support, False)
            if k % 3 == 1:
                support[:, rng.integers(n)] = False
            a = log_uniform_member(rng, support, span)
            members = []
            for _ in range(int(rng.integers(1, 4))):
                s = support.copy()
                if k % 3 == 2 and rng.random() < 0.5:
                    s ^= rng.random((n, n)) < 0.2
                    np.fill_diagonal(s, False)
                members.append(log_uniform_member(rng, s, span))
            g, old = max_gamma(a, members), bisection_gamma(a, members)
            if g > 0.0:
                assert all(
                    gamma_controlled(a, b, g) and gamma_controlled(b, a, g) for b in members
                )
            if old in (0.0, 1e-12):
                assert g == old
            elif old > 1e-8:
                assert abs(g - old) <= 1e-9

    def test_member_size_checked(self):
        with pytest.raises(DimensionMismatchError):
            max_gamma(validate_rate_matrix(UNIT_2STATE), [validate_rate_matrix(np.zeros((3, 3)))])


class TestSeminorm:
    def test_formula_and_shift_invariance(self):
        a = validate_rate_matrix(
            [[-2.0, 1.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
        )
        z = np.array([1.0, 3.0, -1.0])
        # from state 0 the only jump is to 1 at rate 2
        assert seminorm_sq(a, 0, z) == pytest.approx((3.0 - 1.0) ** 2 * 2.0)
        assert seminorm_sq(a, 0, z + 7.5) == pytest.approx(seminorm_sq(a, 0, z))
        assert seminorm_sq(a, 2, z) == 0.0  # absorbing: no jumps, zero seminorm

    def test_input_checks(self):
        a = validate_rate_matrix(UNIT_2STATE)
        with pytest.raises(InputError):
            seminorm_sq(a, 5, [0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            seminorm_sq(a, 0, [0.0, 0.0, 0.0])


class TestReachability:
    def test_direction_is_into_the_target(self):
        # 0 -> 1 only: state 1 cannot reach {0}, but 0 reaches {1}
        a = validate_rate_matrix([[-1.0, 0.0], [1.0, 0.0]])
        assert states_reaching(a, {1}).all()
        assert list(states_reaching(a, {0})) == [True, False]

    def test_target_included(self):
        a = validate_rate_matrix(UNIT_2STATE)
        mask = states_reaching(a, {1})
        assert mask[1]

    def test_matches_the_set_search(self):
        # the per-predecessor loop states_reaching once ran, kept as the oracle
        def loop_reach(support, target):
            mask = np.zeros(support.shape[0], dtype=bool)
            stack = list(target)
            mask[stack] = True
            while stack:
                for i in np.flatnonzero(support[stack.pop(), :]):
                    if not mask[i]:
                        mask[i] = True
                        stack.append(int(i))
            return mask

        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            q = np.where(rng.random((n, n)) < rng.uniform(0.0, 0.4), 1.0, 0.0)
            np.fill_diagonal(q, 0.0)
            q[np.diag_indices(n)] = -q.sum(axis=0)
            a = validate_rate_matrix(q)
            target = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            assert (states_reaching(a, target) == loop_reach(a.support, target)).all()

    def test_bad_target_rejected(self):
        with pytest.raises(InputError):
            states_reaching(validate_rate_matrix(UNIT_2STATE), {2})


class TestSimulation:
    def test_deterministic_and_absorbing(self):
        a = validate_rate_matrix(ABSORBING_2STATE)
        p1 = simulate_path(a, 0, {1}, seed=42)
        p2 = simulate_path(a, 0, {1}, seed=42)
        assert p1 == p2
        assert p1.absorbed and p1.states[-1] == 1
        assert p1.terminal_time > 0.0

    def test_start_on_target(self):
        a = validate_rate_matrix(ABSORBING_2STATE)
        p = simulate_path(a, 1, {1}, seed=0)
        assert p.absorbed and p.terminal_time == 0.0 and p.states == (1,)

    def test_horizon_cutoff(self):
        a = validate_rate_matrix(UNIT_2STATE)
        p = simulate_path(a, 0, {1}, horizon=1e-9, seed=1)
        assert not p.absorbed
        assert p.terminal_time == 1e-9

    def test_trap_outside_target_raises(self):
        # 0 -> 1, 1 absorbing, target is {0}: the path dies in 1
        a = validate_rate_matrix(ABSORBING_2STATE)
        # starting in 0 with target {0} means instant absorption, so flip:
        q = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        a = validate_rate_matrix(q)
        with pytest.raises(AbsorbedOutsideTargetError):
            simulate_path(a, 0, {2}, seed=0)

    def test_bad_inputs(self):
        a = validate_rate_matrix(UNIT_2STATE)
        with pytest.raises(InputError):
            simulate_path(a, 0, set(), seed=0)  # no target, no horizon
        with pytest.raises(InputError):
            simulate_path(a, 0, {1}, horizon=-1.0, seed=0)
        with pytest.raises(InputError):
            simulate_path(a, 9, {1}, seed=0)

    def test_controlled_matches_constant_family(self):
        rng = np.random.default_rng(8)
        a = spine_chain(rng, 5)
        for seed in range(10):
            base = simulate_path(a, 4, {0}, seed=seed)
            listed = simulate_controlled_path([a] * 5, 4, {0}, seed=seed)
            mapped = simulate_controlled_path(lambda _s: a, 4, {0}, seed=seed)
            assert base == listed == mapped

    def test_controlled_switching_changes_dynamics(self):
        slow = validate_rate_matrix(ABSORBING_2STATE)
        fast = validate_rate_matrix([[-10.0, 0.0], [10.0, 0.0]])
        # same seed: the first holding time scales by exactly 1/10
        ps = simulate_path(slow, 0, {1}, seed=5)
        pf = simulate_controlled_path([fast, fast], 0, {1}, seed=5)
        assert pf.terminal_time == pytest.approx(ps.terminal_time / 10.0)

    def test_holding_times_are_exponential(self):
        """Distributional check on the first holding time (rate 1)."""
        a = validate_rate_matrix(ABSORBING_2STATE)
        samples = np.array(
            [simulate_path(a, 0, {1}, seed=s).terminal_time for s in range(4000)]
        )
        stat = scipy.stats.kstest(samples, "expon")
        assert stat.pvalue > 1e-3

    def test_embedded_jump_distribution(self):
        # from 0: to 1 at rate 2, to 2 at rate 1 -> 2/3 vs 1/3
        a = validate_rate_matrix(
            [[-3.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        hits = np.array(
            [simulate_path(a, 0, {1, 2}, seed=s).states[-1] for s in range(3000)]
        )
        frac = (hits == 1).mean()
        # 3 sigma around 2/3 with n = 3000
        assert abs(frac - 2.0 / 3.0) < 3.0 * np.sqrt((2.0 / 9.0) / 3000)
