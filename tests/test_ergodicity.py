import math

import numpy as np
import pytest

from chainbsde import (
    InputError,
    NoFiniteExponentError,
    SingularSystemError,
    condition_K,
    exp_moment,
    expected_hitting_times,
    sample_box_member,
    validate_rate_matrix,
    worst_case_exp_moment,
)

from conftest import recurrent_chain, resolvent_oracle, spine_chain


def two_state(lam: float):
    return validate_rate_matrix([[-lam, 0.0], [lam, 0.0]])


def loop_worst_case(a, gamma, target, beta, tie=1e-14):
    """Column-box policy iteration written state by state: push each
    intensity to the box end that raises the moment, keep it on ties."""
    free = [x for x in range(a.n) if x not in target]
    member = a.q.copy()
    for _ in range(100):
        h = resolvent_oracle(member, target, beta)
        new = member.copy()
        for x in free:
            off = 0.0
            for j in range(a.n):
                if j == x or a.q[j, x] == 0.0:
                    continue
                if h[j] - h[x] > tie:
                    new[j, x] = a.q[j, x] / gamma
                elif h[j] - h[x] < -tie:
                    new[j, x] = gamma * a.q[j, x]
                off += new[j, x]
            new[x, x] = -off
        if np.abs(new - member).max() <= 1e-12:
            break
        member = new
    return member, h


class TestHittingMeans:
    def test_birth_chain_closed_form(self):
        q = validate_rate_matrix(
            [[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        m = expected_hitting_times(q, {2})
        assert np.allclose(m, [2.0, 1.0, 0.0], atol=1e-12)

    def test_random_chains_satisfy_generator_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = spine_chain(rng, int(rng.integers(2, 9)))
            m = expected_hitting_times(a, {0})
            # sum_j q[j][x] m[j] = -1 on free states, m = 0 on the target
            resid = a.q.T @ m
            assert m[0] == 0.0
            assert np.abs(resid[1:] + 1.0).max() < 1e-9

    def test_unreachable_reports_states(self):
        q = validate_rate_matrix(
            [[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        with pytest.raises(SingularSystemError) as err:
            expected_hitting_times(q, {2})
        assert err.value.states == [0]

    def test_target_validation(self):
        a = two_state(1.0)
        with pytest.raises(InputError):
            expected_hitting_times(a, set())
        with pytest.raises(InputError):
            expected_hitting_times(a, {9})


class TestExpMoment:
    def test_two_state_closed_form(self):
        lam, beta = 2.0, 0.5
        rep = exp_moment(two_state(lam), {1}, beta)
        assert rep.finite
        assert rep.values[0] == pytest.approx(lam / (lam - beta), abs=1e-12)
        assert rep.values[1] == 1.0

    def test_boundary_and_beyond_not_finite(self):
        lam = 2.0
        at = exp_moment(two_state(lam), {1}, lam)
        past = exp_moment(two_state(lam), {1}, 3.0)
        assert not at.finite and at.values is None
        assert not past.finite and past.values is None

    def test_matches_resolvent_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = spine_chain(rng, int(rng.integers(2, 7)))
            beta = float(rng.uniform(0.01, 0.3))
            rep = exp_moment(a, {0}, beta)
            expect = resolvent_oracle(a.q, {0}, beta)
            if expect is None:
                assert not rep.finite
            else:
                assert rep.finite
                assert np.abs(rep.values - expect).max() < 1e-10

    def test_all_target_trivial(self):
        a = two_state(1.0)
        rep = exp_moment(a, {0, 1}, 5.0)
        assert rep.finite
        assert np.allclose(rep.values, 1.0)

    def test_beta_validation(self):
        with pytest.raises(InputError):
            exp_moment(two_state(1.0), {1}, 0.0)
        with pytest.raises(InputError):
            exp_moment(two_state(1.0), {1}, -1.0)


class TestWorstCase:
    def test_two_state_slows_the_exit(self):
        # slowing the only transition to gamma*lam maximizes e^{beta*tau}
        rep = worst_case_exp_moment(two_state(1.0), 0.25, {1}, 0.1)
        assert rep.finite and rep.worst_case and rep.gamma == 0.25
        assert rep.values[0] == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert rep.worst_member[1, 0] == pytest.approx(0.25)
        assert rep.iterations == 1

    def test_gamma_one_degenerates_to_reference(self):
        rng = np.random.default_rng(31)
        a = recurrent_chain(rng, 5)
        beta = 0.05
        ref = exp_moment(a, {0}, beta)
        wc = worst_case_exp_moment(a, 1.0, {0}, beta)
        assert wc.finite
        assert np.abs(wc.values - ref.values).max() < 1e-12
        assert wc.iterations == 0

    def test_divergence_detected(self):
        # reference moment finite at beta, family supremum infinite: the
        # slowed member's abscissa gamma*lam falls below beta
        lam, gamma, beta = 1.0, 0.25, 0.5
        assert exp_moment(two_state(lam), {1}, beta).finite
        rep = worst_case_exp_moment(two_state(lam), gamma, {1}, beta)
        assert not rep.finite and rep.values is None

    def test_dominates_sampled_members(self):
        rng = np.random.default_rng(41)
        a = recurrent_chain(rng, 5)
        gamma = 0.7
        ck = condition_K(a, gamma, {0}, beta=1.0)
        beta = ck.beta_prime
        wc = worst_case_exp_moment(a, gamma, {0}, beta)
        assert wc.finite
        for seed in range(30):
            member = sample_box_member(a, gamma, seed=seed)
            rep = exp_moment(member, {0}, beta)
            assert rep.finite
            assert (rep.values <= wc.values + 1e-9).all()

    def test_matches_the_state_by_state_rule(self):
        for seed, n in ((51, 8), (52, 30)):
            rng = np.random.default_rng(seed)
            a = spine_chain(rng, n)
            gamma = 0.7
            beta = condition_K(a, gamma, {0}, 0.5).beta_prime
            member, h = loop_worst_case(a, gamma, {0}, beta)
            wc = worst_case_exp_moment(a, gamma, {0}, beta)
            assert np.abs(wc.worst_member - member).max() <= 1e-12
            assert np.abs(wc.values - h).max() <= 1e-12 * np.abs(h).max()

    def test_validation(self):
        a = two_state(1.0)
        with pytest.raises(InputError):
            worst_case_exp_moment(a, 0.0, {1}, 0.1)
        with pytest.raises(InputError):
            worst_case_exp_moment(a, 1.5, {1}, 0.1)
        with pytest.raises(InputError):
            worst_case_exp_moment(a, 0.5, {1}, 0.0)


class TestSampleBoxMember:
    def test_ratios_confined_and_support_preserved(self):
        rng = np.random.default_rng(51)
        a = recurrent_chain(rng, 6)
        gamma = 0.4
        for seed in range(10):
            m = sample_box_member(a, gamma, seed=seed)
            off = ~np.eye(a.n, dtype=bool)
            orig = a.q[off]
            new = m.q[off]
            nz = orig > 0.0
            assert (new[~nz] == 0.0).all()
            ratios = new[nz] / orig[nz]
            assert (ratios >= gamma - 1e-12).all()
            assert (ratios <= 1.0 / gamma + 1e-12).all()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(52)
        a = recurrent_chain(rng, 4)
        m1 = sample_box_member(a, 0.5, seed=3)
        m2 = sample_box_member(a, 0.5, seed=3)
        m3 = sample_box_member(a, 0.5, seed=4)
        assert np.array_equal(m1.q, m2.q)
        assert not np.array_equal(m1.q, m3.q)

    def test_gamma_validation(self):
        a = two_state(1.0)
        with pytest.raises(InputError):
            sample_box_member(a, 0.0)
        with pytest.raises(InputError):
            sample_box_member(a, 2.0)


class TestConditionK:
    def test_two_state_exact_constants(self):
        """gamma=0.5, beta=1, unit rate: every constant has a closed form."""
        ck = condition_K(two_state(1.0), 0.5, {1}, beta=1.0)
        # slowest member has rate gamma*lam = 0.5, the family's abscissa
        assert ck.abscissa == pytest.approx(0.5, abs=1e-11)
        assert ck.beta_prime == pytest.approx(0.25, abs=1e-11)
        # h(beta') under the slowed chain: 0.5 / (0.5 - 0.25) = 2
        assert ck.h_sup == pytest.approx(2.0, rel=1e-9)
        # C(1, 1/4) = (2 / 0.25)^2 e^{0.25 - 2} = 64 e^{-1.75}
        expected_k = 2.0 * 64.0 * math.exp(-1.75)
        assert ck.k == pytest.approx(expected_k, rel=1e-9)
        assert ck.k == pytest.approx(22.24306476168732, rel=1e-7)
        # compounded: beta_tilde defaults to beta, beta_compound = 3,
        # k_tilde = k^2 * C(3, 1/4) * h_sup
        assert ck.beta_compound == pytest.approx(3.0)
        expected_kt = expected_k**2 * (16.0**4 * math.exp(0.25 - 4.0)) * 2.0
        assert ck.k_tilde == pytest.approx(expected_kt, rel=1e-7)

    def test_bound_evaluation(self):
        ck = condition_K(two_state(1.0), 0.5, {1}, beta=1.0)
        assert ck.bound(3.0) == pytest.approx(ck.k * 16.0)
        assert ck.bound_tilde(1.0) == pytest.approx(ck.k_tilde * 16.0)
        assert ck.bound(0.0) == ck.k
        with pytest.raises(InputError):
            ck.bound(-0.5)
        with pytest.raises(InputError):
            ck.bound_tilde(-0.5)

    def test_envelope_dominates_polynomial_moment(self):
        # E[(1 + tau)^{1+beta}] <= K(0) = k, checked by simulation
        rng = np.random.default_rng(61)
        a = recurrent_chain(rng, 4)
        gamma = 0.6
        ck = condition_K(a, gamma, {0}, beta=0.5)
        samples = rng.exponential(1.0, 0)  # placeholder; use hitting means
        del samples
        means = expected_hitting_times(a, {0})
        # Jensen on the reference chain gives a cheap necessary check
        assert ((1.0 + means) ** 1.5 <= ck.k + 1e-9).all()

    def test_free_empty(self):
        ck = condition_K(two_state(1.0), 0.5, {0, 1}, beta=1.0)
        assert ck.k == 1.0 and ck.k_tilde == 1.0
        assert math.isinf(ck.abscissa)
        assert ck.bound(2.0) == pytest.approx(9.0)

    def test_huge_beta_saturates_instead_of_overflowing(self):
        # the envelope exists for any beta, but its constants can leave the
        # double range; they must come back as inf, not OverflowError
        ck = condition_K(two_state(1.0), 0.5, {1}, beta=50.0)
        assert math.isfinite(ck.k)
        assert math.isinf(ck.k_tilde)
        ck = condition_K(two_state(1.0), 0.5, {1}, beta=2000.0)
        assert math.isinf(ck.k)
        assert math.isinf(ck.k_tilde)
        assert math.isinf(ck.bound(1.0))

    def test_no_finite_exponent(self):
        q = validate_rate_matrix(
            [[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]
        )
        with pytest.raises(NoFiniteExponentError):
            condition_K(q, 0.5, {2}, beta=1.0)

    def test_validation(self):
        a = two_state(1.0)
        with pytest.raises(InputError):
            condition_K(a, 0.5, {1}, beta=0.0)
        with pytest.raises(InputError):
            condition_K(a, 0.5, {1}, beta=1.0, beta_tilde=-1.0)
