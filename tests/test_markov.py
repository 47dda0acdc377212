import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noncompletion_by_dense_solve, stationary_by_linear_solve
from crsim.kernels import mc_noncompletion
from crsim.markov import (
    ChainError,
    Distribution,
    OccupancyChain,
    blocking_probability,
    noncompletion_by_state,
    noncompletion_probability,
    prob_free_at_least,
    stationary,
    transition_matrix,
)

# frozen from the absorbing-chain solve; cross-checked against the Monte
# Carlo kernel below (1e6 sessions)
NONCOMPLETION_C2 = 0.6193484042553191


def test_transition_matrix_two_state_example():
    m = transition_matrix(OccupancyChain(1, 0.3, 0.2))
    assert np.allclose(m, [[0.7, 0.3], [0.2, 0.8]])


def test_transition_matrix_identity_for_frozen_chain():
    m = transition_matrix(OccupancyChain(5, 0.0, 0.0))
    assert np.array_equal(m, np.eye(6))


def test_transition_matrix_middle_row():
    m = transition_matrix(OccupancyChain(2, 0.2, 0.4))
    assert np.allclose(m[1], [0.4, 0.4, 0.2])


def test_a_pure_birth_chain_rests_at_capacity_and_admits_nothing():
    chain = OccupancyChain(4, 0.3, 0.0)
    assert stationary(chain).probabilities.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    with pytest.raises(ChainError, match="admission has probability zero"):
        noncompletion_probability(chain, 2, 0.5, 0.5)


def test_transition_rows_are_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = int(rng.integers(1, 17))
        p = float(rng.uniform(0, 1))
        q = float(rng.uniform(0, 1 - p))
        m = transition_matrix(OccupancyChain(c, p, q))
        assert np.all(m >= 0)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12


def test_chain_invariants_enforced():
    with pytest.raises(ChainError):
        OccupancyChain(0, 0.2, 0.2)
    with pytest.raises(ChainError):
        OccupancyChain(4, 0.7, 0.7)
    with pytest.raises(ChainError):
        OccupancyChain(4, -0.1, 0.2)
    with pytest.raises(ChainError, match="death probability"):
        OccupancyChain(4, 0.2, 1.5)


def test_stationary_uniform_when_rates_match():
    pi = stationary(OccupancyChain(8, 0.2, 0.2)).probabilities
    assert np.allclose(pi, np.full(9, 1 / 9), atol=1e-12)


def test_stationary_point_mass_at_zero_when_no_births():
    pi = stationary(OccupancyChain(6, 0.0, 0.4)).probabilities
    assert pi[0] == 1.0 and np.all(pi[1:] == 0.0)


def test_stationary_geometric_example():
    pi = stationary(OccupancyChain(2, 0.2, 0.4)).probabilities
    assert np.allclose(pi, [4 / 7, 2 / 7, 1 / 7], atol=1e-14)


def test_stationary_frozen_chain_raises():
    with pytest.raises(ChainError, match="no unique stationary"):
        stationary(OccupancyChain(3, 0.0, 0.0))


def test_stationary_matches_linear_solve_on_random_chains():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = int(rng.integers(1, 17))
        p = float(rng.uniform(0.01, 0.95))
        q = float(rng.uniform(0.01, 1 - p))
        chain = OccupancyChain(c, p, q)
        pi = stationary(chain).probabilities
        m = transition_matrix(chain)
        assert np.max(np.abs(pi @ m - pi)) < 1e-10
        assert np.max(np.abs(pi - stationary_by_linear_solve(m))) < 1e-10


@pytest.mark.parametrize(
    "vector, message",
    [([[0.5, 0.5]], "1-d"), ([np.nan, 1.0], "sum to 1"), ([1.5, -0.5], "nonnegative"), ([0.5, 0.4], "sum to 1")],
    ids=["two-d", "nan", "negative", "short-sum"],
)
def test_distribution_rejects_what_is_not_a_probability_vector(vector, message):
    with pytest.raises(ChainError, match=message):
        Distribution(np.array(vector))


@pytest.mark.parametrize(
    "figure", [prob_free_at_least, lambda chain, d: blocking_probability([chain], d)], ids=["prob-free", "blocking"]
)
def test_a_negative_demand_is_refused(figure):
    with pytest.raises(ChainError, match="demand must be nonnegative"):
        figure(OccupancyChain(4, 0.2, 0.2), -1)


def test_prob_free_examples():
    assert prob_free_at_least(OccupancyChain(8, 0.2, 0.2), 0) == 1.0
    assert prob_free_at_least(OccupancyChain(8, 0.0, 0.4), 8) == 1.0
    assert prob_free_at_least(OccupancyChain(8, 0.2, 0.2), 4) == pytest.approx(5 / 9, abs=1e-14)


def test_prob_free_demand_above_capacity_errors():
    with pytest.raises(ChainError, match="demand exceeds capacity"):
        prob_free_at_least(OccupancyChain(4, 0.2, 0.2), 5)


def test_blocking_examples():
    idle = OccupancyChain(8, 0.0, 0.4)
    assert blocking_probability([idle], 4) == 0.0
    busy = OccupancyChain(8, 0.2, 0.2)
    assert blocking_probability([busy], 4) == pytest.approx(4 / 9, abs=1e-14)
    assert blocking_probability([busy, busy], 4) == pytest.approx(16 / 81, abs=1e-14)


def test_blocking_requires_a_band():
    with pytest.raises(ChainError, match="no spectrum configured"):
        blocking_probability([], 4)


def test_blocking_skips_undersized_bands():
    tiny = OccupancyChain(2, 0.2, 0.2)
    busy = OccupancyChain(8, 0.2, 0.2)
    assert blocking_probability([tiny, busy], 4) == pytest.approx(4 / 9, abs=1e-14)


def test_blocking_monotone_in_demand():
    bands = [OccupancyChain(8, 0.2, 0.2), OccupancyChain(6, 0.3, 0.3)]
    values = [blocking_probability(bands, d) for d in range(0, 7)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_noncompletion_zero_when_occupancy_never_rises():
    chain = OccupancyChain(8, 0.0, 0.3)
    assert noncompletion_probability(chain, 4, 0.2, 0.5) == 0.0


def test_noncompletion_zero_when_sessions_complete_instantly():
    chain = OccupancyChain(8, 0.2, 0.3)
    assert noncompletion_probability(chain, 4, 1.0, 0.3) == 0.0


def test_noncompletion_rejects_never_completing_sessions():
    with pytest.raises(ChainError, match="never completes"):
        noncompletion_probability(OccupancyChain(8, 0.2, 0.3), 4, 0.0, 0.5)


def test_noncompletion_parameter_validation():
    chain = OccupancyChain(8, 0.2, 0.3)
    with pytest.raises(ChainError):
        noncompletion_probability(chain, 0, 0.2, 0.5)
    with pytest.raises(ChainError):
        noncompletion_probability(chain, 9, 0.2, 0.5)
    with pytest.raises(ChainError):
        noncompletion_probability(chain, 4, 0.2, 1.5)
    with pytest.raises(ChainError, match="completion probability"):
        noncompletion_probability(chain, 4, 1.5, 0.5)


def test_noncompletion_two_state_solve_frozen_value():
    chain = OccupancyChain(2, 0.3, 0.3)
    x = noncompletion_by_state(chain, 1, 0.1, 0.5)
    assert x.shape == (2,)
    assert noncompletion_probability(chain, 1, 0.1, 0.5) == pytest.approx(NONCOMPLETION_C2, abs=1e-12)


def test_noncompletion_two_state_solve_matches_monte_carlo():
    # independent brute-force oracle: direct session simulation, 1e6 sessions
    chain = OccupancyChain(2, 0.3, 0.3)
    solve = noncompletion_probability(chain, 1, 0.1, 0.5)
    mc = mc_noncompletion(chain, 1, 0.1, 0.5, n_sessions=1_000_000, seed=1234)
    assert abs(mc - solve) < 0.005


def test_noncompletion_by_state_matches_monte_carlo_per_state():
    chain = OccupancyChain(2, 0.3, 0.3)
    x = noncompletion_by_state(chain, 1, 0.1, 0.5)
    for k in range(2):
        mc = mc_noncompletion(chain, 1, 0.1, 0.5, n_sessions=300_000, seed=60 + k, start_state=k)
        assert abs(mc - x[k]) < 0.005


def test_noncompletion_monotone_in_grant_probability_and_completion():
    chain = OccupancyChain(8, 0.25, 0.45)
    for c in (0.05, 0.15, 0.4):
        values = [noncompletion_probability(chain, 4, c, g) for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    for g in (0.1, 0.5, 0.9):
        values = [noncompletion_probability(chain, 4, c, g) for c in (0.05, 0.1, 0.25, 0.6, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@st.composite
def absorbing_chains(draw):
    """A chain of up to 40 channels, with p and q including 0 and p + q = 1,
    and a demand, completion and grant probability it can be solved for.

    Each row's margin of diagonal dominance is the completion probability, so
    two sound solves can part by about 1e-17 / completion: completions start at
    1e-4 to keep that under 1e-12."""
    capacity = draw(st.integers(1, 40))
    birth = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    death = draw(st.sampled_from([0.0, 1.0 - birth]) | st.floats(0.0, 1.0 - birth))
    demand = draw(st.integers(1, capacity))
    completion = draw(st.sampled_from([1e-4, 1.0]) | st.floats(1e-4, 1.0))
    grant = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return OccupancyChain(capacity, birth, death), demand, completion, grant


@settings(max_examples=300, deadline=None)
@given(absorbing_chains())
def test_noncompletion_by_state_matches_the_dense_reference(case):
    x = noncompletion_by_state(*case)
    assert x.shape == (case[0].capacity - case[1] + 1,)
    assert np.allclose(x, noncompletion_by_dense_solve(*case), rtol=0.0, atol=1e-12)


def test_a_demand_equal_to_capacity_leaves_one_transient_state():
    # B = 0: the only state is the boundary, any rise drops the session and
    # no negotiation is ever held, so the grant probability plays no part
    chain = OccupancyChain(5, 0.3, 0.1)
    x = noncompletion_by_state(chain, 5, 0.2, 0.4)
    assert x.shape == (1,)
    assert x[0] == pytest.approx(noncompletion_by_dense_solve(chain, 5, 0.2, 0.4)[0], abs=1e-15)
    assert x[0] == pytest.approx(0.8 * 0.3 / (1.0 - 0.8 * 0.7), abs=1e-15)


def test_a_completion_lost_in_rounding_leaves_a_singular_system():
    # 1 - 1e-300 == 1: a chain that never rises then has no term to pin x
    with pytest.raises(ChainError, match="singular in double precision"):
        noncompletion_by_state(OccupancyChain(8, 0.0, 0.2), 4, 1e-300, 0.5)


def test_the_widest_band_the_reader_accepts_is_solved_in_linear_memory():
    # a dense system for 65,536 channels would take 32 GiB
    chain = OccupancyChain(65_536, 0.2, 0.2)
    start = time.perf_counter()
    x = noncompletion_by_state(chain, 4, 0.05, 0.5)
    assert time.perf_counter() - start < 1.0
    assert x.shape == (65_533,)
    assert np.all((x >= 0.0) & (x <= 1.0))
