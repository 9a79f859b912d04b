import numpy as np
import pytest

from chainbsde import (
    ControlSet,
    ControlSolution,
    DimensionMismatchError,
    GraphSpec,
    InputError,
    SingularSystemError,
    UnreachableTargetError,
    policy_matrix,
    reliability,
    shortest_path_times,
    solve_control,
    stationary_policy_value,
    validate_rate_matrix,
    walk_matrix,
)

from conftest import enumerate_policy_values, scaled_member, spine_chain


def two_speed_setup():
    """Fast chain (rate 2, cost 3) vs slow chain (rate 1, cost 1) on a line.

    All-slow is optimal with value [2, 1, 0]; all-fast costs [3, 1.5, 0].
    """
    fast = validate_rate_matrix(
        [[-2.0, 0.0, 0.0], [2.0, -2.0, 0.0], [0.0, 2.0, 0.0]]
    )
    slow = validate_rate_matrix(
        [[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    cost = np.array([[3.0, 1.0], [3.0, 1.0], [0.0, 0.0]])
    cs = ControlSet(("fast", "slow"), (fast, slow), cost, fast)
    return cs, fast


class TestWalkMatrix:
    def test_rates_proportional_to_inverse_distance(self):
        d = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        w = walk_matrix(d)
        # from node 0: weights 1, 1/2 normalized to rates 2/3, 1/3
        assert w.q[1, 0] == pytest.approx(2.0 / 3.0)
        assert w.q[2, 0] == pytest.approx(1.0 / 3.0)
        assert w.q[0, 0] == pytest.approx(-1.0)
        # from node 1: equal split
        assert w.q[0, 1] == pytest.approx(0.5)
        assert w.q[2, 1] == pytest.approx(0.5)
        # node 2 has no outgoing edges: absorbing
        assert (w.q[:, 2] == 0.0).all()

    def test_exit_rates_normalized(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.5, 3.0, (6, 6))
        np.fill_diagonal(d, 0.0)
        w = walk_matrix(d)
        assert np.allclose(w.exit_rates, 1.0)

    def test_names_passthrough(self):
        w = walk_matrix([[0.0, 1.0], [1.0, 0.0]], names=("a", "b"))
        assert w.state_names == ("a", "b")

    def test_matches_the_loop(self):
        # the per-entry loop walk_matrix once ran, kept as the oracle
        def loop_walk(d):
            n = d.shape[0]
            q = np.zeros((n, n))
            for i in range(n):
                out = [(j, 1.0 / d[i, j]) for j in range(n) if j != i and d[i, j] > 0.0]
                if not out:
                    continue
                total = sum(wgt for _, wgt in out)
                for j, wgt in out:
                    q[j, i] = wgt / total
                q[i, i] = -1.0
            return validate_rate_matrix(q).q

        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.01, 100.0, (n, n)), 0.0)
            d[rng.random(n) < 0.25] = 0.0  # nodes with no edge stay absorbing
            d[np.diag_indices(n)] = rng.uniform(0.0, 1.0, n)  # self-distances are ignored
            assert np.abs(walk_matrix(d).q - loop_walk(d)).max() <= 1e-14


class TestGraphSpec:
    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            GraphSpec(np.zeros((2, 3)), 0)
        with pytest.raises(InputError):
            GraphSpec([[0.0, -1.0], [1.0, 0.0]], 0)
        with pytest.raises(InputError):
            GraphSpec([[0.0, np.nan], [1.0, 0.0]], 0)
        with pytest.raises(InputError):
            GraphSpec([[0.0, 1.0], [1.0, 0.0]], 5)
        with pytest.raises(UnreachableTargetError) as err:
            GraphSpec([[0.0, 1.0], [0.0, 0.0]], 0)
        assert err.value.states == [1]

    def test_speedup_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            GraphSpec(
                [[0.0, 1.0], [1.0, 0.0]],
                0,
                speedups=(validate_rate_matrix([[0.0]]),),
            )


class TestShortestPaths:
    def test_three_node_closed_form(self):
        """m0 = 1 + (2/3) m1, m1 = 1 + (1/2) m0 gives (2.5, 2.25, 0)."""
        g = GraphSpec([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 2)
        full, remaining = shortest_path_times(g)
        assert np.allclose(remaining.u, [2.5, 2.25, 0.0], atol=1e-10)
        assert full.mode == "affine_time"
        # arrival time seen from time t is remaining + t
        assert np.allclose(full.field_at(1.5), remaining.u + 1.5)
        assert np.allclose(full.at_zero(), remaining.u)

    def test_speedup_halves_the_walk(self):
        d = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        base = GraphSpec(d, 2)
        doubled = validate_rate_matrix(2.0 * base.walk.q)
        g = GraphSpec(d, 2, speedups=(doubled,))
        _, remaining = shortest_path_times(g)
        assert np.allclose(remaining.u, [1.25, 1.125, 0.0], atol=1e-10)

    def test_useless_speedup_ignored(self):
        # a slower walk is admissible but never chosen
        d = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        base = GraphSpec(d, 2)
        halved = validate_rate_matrix(0.5 * base.walk.q)
        g = GraphSpec(d, 2, speedups=(halved,))
        _, remaining = shortest_path_times(g)
        assert np.allclose(remaining.u, [2.5, 2.25, 0.0], atol=1e-10)


class TestSolveControl:
    def test_two_speed_line(self):
        cs, fast = two_speed_setup()
        sol = solve_control(cs, fast, {2}, np.zeros(3))
        assert np.allclose(sol.value.u, [2.0, 1.0, 0.0], atol=1e-10)
        assert sol.policy[0] == "slow" and sol.policy[1] == "slow"
        # generator under the policy follows the slow matrix on free states
        assert sol.matrix[1, 0] == pytest.approx(1.0)
        assert sol.matrix[2, 1] == pytest.approx(1.0)

    def test_bellman_below_every_policy(self):
        cs, fast = two_speed_setup()
        sol = solve_control(cs, fast, {2}, np.zeros(3))
        table = enumerate_policy_values(
            [m.q for m in cs.matrices], np.asarray(cs.cost), {2}, np.zeros(3)
        )
        for _pol, v in table:
            assert (sol.value.u <= v + 1e-10).all()
        best = np.min(np.stack([v for _pol, v in table]), axis=0)
        assert np.abs(sol.value.u - best).max() < 1e-8

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            ref = spine_chain(rng, n)
            mats = [ref]
            for _ in range(int(rng.integers(1, 3))):
                factors = rng.uniform(0.6, 1.6, (n, n))
                q = ref.q.copy()
                off = ~np.eye(n, dtype=bool)
                q[off] *= factors[off]
                np.fill_diagonal(q, 0.0)
                np.fill_diagonal(q, -q.sum(axis=0))
                mats.append(validate_rate_matrix(q))
            cost = rng.uniform(0.1, 2.0, (n, len(mats)))
            cost[0] = 0.0
            phi = np.zeros(n)
            labels = tuple(f"u{k}" for k in range(len(mats)))
            cs = ControlSet(labels, tuple(mats), cost, ref)
            sol = solve_control(cs, ref, {0}, phi)
            table = enumerate_policy_values([m.q for m in mats], cost, {0}, phi)
            best = np.min(np.stack([v for _pol, v in table]), axis=0)
            assert np.abs(sol.value.u - best).max() < 1e-8

    def test_callable_cost_matches_its_table(self):
        rng = np.random.default_rng(29)
        n = 12
        ref = spine_chain(rng, n)
        mats = (ref, scaled_member(rng, ref), scaled_member(rng, ref))
        table = rng.uniform(0.1, 2.0, (n, 3))
        labels = ("u0", "u1", "u2")
        phi = rng.normal(size=n)
        by_table = solve_control(ControlSet(labels, mats, table, ref), ref, {0}, phi)
        cs = ControlSet(
            labels, mats, lambda t, y, x, u: table[x, u], ref, cost_time_dependent=False
        )
        by_callable = solve_control(cs, ref, {0}, phi)
        assert np.abs(by_callable.value.u - by_table.value.u).max() < 1e-10
        assert by_callable.policy_indices == by_table.policy_indices

    def test_reference_mismatch_rejected(self):
        cs, _fast = two_speed_setup()
        other = validate_rate_matrix(
            [[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        with pytest.raises(InputError):
            solve_control(cs, other, {2}, np.zeros(3))


class TestPolicyValue:
    def test_fixed_policies(self):
        cs, fast = two_speed_setup()
        slow_val = stationary_policy_value(cs, fast, {2}, np.zeros(3), (1, 1, 0))
        fast_val = stationary_policy_value(cs, fast, {2}, np.zeros(3), (0, 0, 0))
        assert np.allclose(slow_val, [2.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(fast_val, [3.0, 1.5, 0.0], atol=1e-12)

    def test_policy_matrix_mixes_columns(self):
        cs, _fast = two_speed_setup()
        q = policy_matrix(cs, (0, 1, 0))
        assert q[1, 0] == 2.0  # fast column at state 0
        assert q[2, 1] == 1.0  # slow column at state 1
        with pytest.raises(DimensionMismatchError):
            policy_matrix(cs, (0, 1))
        with pytest.raises(InputError):
            policy_matrix(cs, (0, 5, 0))

    @pytest.mark.parametrize("target", [{-1}, {3}, set()])
    def test_bad_targets_rejected(self, target):
        cs, fast = two_speed_setup()
        with pytest.raises(InputError):
            stationary_policy_value(cs, fast, target, np.zeros(3), (1, 1, 0))

    def test_non_absorbing_policy_rejected(self):
        trap = validate_rate_matrix([[0.0, 0.0], [0.0, 0.0]])
        cs = ControlSet(("stay",), (trap,), np.zeros((2, 1)), trap)
        with pytest.raises(SingularSystemError):
            stationary_policy_value(cs, trap, {1}, np.zeros(2), (0, 0))


class TestReliability:
    def build(self):
        # 0 -> dead zone 1 at rate 1, 0 -> delivery 2 at rate 2, loss rate 1
        chain = validate_rate_matrix(
            [[-3.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        )
        return chain, [1.0, 0.0, 0.0]

    def test_uncontrolled_race(self):
        chain, loss = self.build()
        sol = reliability(chain, loss, {1}, 2)
        # success iff the rate-2 jump wins the three-way race
        assert sol.u[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.u[1] == 0.0 and sol.u[2] == 1.0

    def test_two_state_competition(self):
        chain = validate_rate_matrix([[-5.0, 0.0], [5.0, 0.0]])
        sol = reliability(chain, [1.0, 0.0], set(), 1)
        assert sol.u[0] == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_values_are_probabilities(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = spine_chain(rng, int(rng.integers(3, 7)))
            loss = rng.uniform(0.0, 1.0, a.n)
            loss[0] = 0.0
            sol = reliability(a, loss, set(), 0)
            assert (sol.u >= -1e-12).all() and (sol.u <= 1.0 + 1e-12).all()

    def test_more_loss_less_reliable(self):
        chain, _ = self.build()
        hi = reliability(chain, [1.0, 0.0, 0.0], {1}, 2)
        lo = reliability(chain, [2.0, 0.0, 0.0], {1}, 2)
        assert lo.u[0] < hi.u[0]

    def test_controlled_routing(self):
        chain, loss = self.build()
        boost = chain.q.copy()
        boost[:, 0] *= 2.0
        controls = ControlSet(
            ("boost",),
            (validate_rate_matrix(boost),),
            np.zeros((3, 1)),
            chain,
        )
        sol = reliability(chain, loss, {1}, 2, controls=controls)
        assert isinstance(sol, ControlSolution)
        # boosted race: success rate 4 against 2 + 1 failure channels
        assert sol.value.u[0] == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert sol.policy[0] == "boost"
        # absorbed states take no decision; ties resolve to the reference
        assert sol.policy[1] == "reference"
        assert sol.matrix[2, 0] == pytest.approx(4.0)

    def test_target_in_dead_rejected(self):
        chain, loss = self.build()
        with pytest.raises(InputError):
            reliability(chain, loss, {2}, 2)

    def test_negative_loss_rejected(self):
        chain, _ = self.build()
        with pytest.raises(InputError):
            reliability(chain, [-1.0, 0.0, 0.0], {1}, 2)
