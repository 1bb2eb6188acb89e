"""Single-step operator and m-step propagation routes."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from votermodel import (
    EXACT,
    FLOAT,
    NormalizationError,
    build_decomposition,
    delta_distribution,
    dense_oracle,
    make_distribution,
    propagate_spectral,
    single_step,
    to_coordinates,
    transition_operator,
    transition_rates,
    uniform_distribution,
)
from votermodel.propagator import OracleLimitError


def random_exact_distribution(weights):
    total = sum(weights)
    if total == 0:
        weights = list(weights)
        weights[0] = 1
        total = 1
    return make_distribution([Fraction(w, total) for w in weights])


class TestTransitionRates:
    def test_n4(self):
        assert transition_rates(4) == (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 4), 0)

    @pytest.mark.parametrize("N", [2, 7, 33])
    def test_absorbing_boundaries_and_symmetry(self, N):
        p = transition_rates(N)
        assert p[0] == p[N] == 0
        assert all(p[j] == p[N - j] for j in range(N + 1))
        assert max(p) <= Fraction(1, 2)

    def test_float_mode(self):
        p = transition_rates(5, FLOAT)
        assert isinstance(p[1], float)
        assert p[2] == 6.0 / 20.0


class TestSingleStep:
    def test_delta_spreads_symmetrically(self):
        op = transition_operator(4)
        out = single_step(op, delta_distribution(4, 2))
        assert out.a == (0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0)
        assert out.step == 1

    def test_consensus_is_absorbing(self):
        op = transition_operator(6)
        d0 = delta_distribution(6, 0)
        assert single_step(op, d0).a == d0.a

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_conserves_mass_and_mean(self, weights):
        dist = random_exact_distribution(weights)
        op = transition_operator(dist.N)
        out = single_step(op, dist)
        assert sum(out.a) == 1
        # the macrostate count is a martingale of the dynamics
        assert out.mean() == dist.mean()

    def test_float_matches_exact(self):
        N = 30
        exact = single_step(transition_operator(N), uniform_distribution(N))
        flo = single_step(transition_operator(N, FLOAT), uniform_distribution(N, FLOAT))
        diff = np.abs(np.array(flo.a) - np.array([float(v) for v in exact.a])).max()
        assert diff <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            single_step(transition_operator(5), delta_distribution(4, 1))


class TestPropagation:
    @pytest.mark.parametrize("N,j,m", [(4, 2, 7), (9, 3, 25), (12, 6, 60)])
    def test_spectral_equals_oracle_exactly(self, N, j, m):
        dec = build_decomposition(N)
        a0 = delta_distribution(N, j)
        spectral = propagate_spectral(dec, to_coordinates(dec, a0), m)
        direct = dense_oracle(transition_operator(N), a0, m)
        assert spectral.a == direct.a

    def test_spectral_equals_oracle_float(self):
        N = 64
        dec = build_decomposition(N, FLOAT)
        a0 = delta_distribution(N, 20, FLOAT)
        spectral = propagate_spectral(dec, to_coordinates(dec, a0), 1000)
        direct = dense_oracle(transition_operator(N, FLOAT), a0, 1000)
        assert np.abs(np.array(spectral.a) - np.array(direct.a)).max() <= 1e-12

    def test_zero_steps_is_identity(self):
        dec = build_decomposition(8)
        a0 = uniform_distribution(8)
        assert propagate_spectral(dec, to_coordinates(dec, a0), 0).a == a0.a

    def test_large_m_float(self):
        # closed form reaches m = 10^9 directly; mass must sit near consensus
        N = 10
        dec = build_decomposition(N, FLOAT)
        a0 = delta_distribution(N, 3, FLOAT)
        out = propagate_spectral(dec, to_coordinates(dec, a0), 10**9)
        assert abs(sum(out.a) - 1.0) <= 1e-12
        assert abs(out.a[0] - 0.7) <= 1e-12
        assert abs(out.a[N] - 0.3) <= 1e-12

    def test_exact_step_cap(self):
        dec = build_decomposition(4)
        coords = to_coordinates(dec, delta_distribution(4, 2))
        with pytest.raises(ValueError):
            propagate_spectral(dec, coords, 100_001)

    def test_oracle_limit(self):
        with pytest.raises(OracleLimitError):
            dense_oracle(
                transition_operator(300, FLOAT), delta_distribution(300, 1, FLOAT), 1
            )


class TestLimitDistribution:
    """The m -> infinity limit puts mass d_0 on consensus 0 and d_1 on N."""

    @pytest.mark.parametrize("N,j", [(5, 2), (10, 7)])
    def test_fixation_probability_is_martingale(self, N, j):
        dec = build_decomposition(N)
        a0 = delta_distribution(N, j)
        coords = to_coordinates(dec, a0)
        assert coords.d[1] == sum(i * ai for i, ai in enumerate(a0.a)) / N
        assert coords.d[1] == Fraction(j, N)
        assert coords.d[0] == Fraction(N - j, N)

    def test_agrees_with_long_propagation(self):
        N = 12
        dec = build_decomposition(N, FLOAT)
        coords = to_coordinates(dec, delta_distribution(N, 5, FLOAT))
        lim = np.zeros(N + 1)
        lim[0], lim[N] = coords.d[0], coords.d[1]
        far = np.array(propagate_spectral(dec, coords, 10**7).a)
        assert np.abs(lim - far).max() <= 1e-12


class TestValidation:
    def test_make_distribution_rejects_bad_sum(self):
        with pytest.raises(NormalizationError):
            make_distribution([0.5, 0.25, 0.2, 0.0, 0.0], mode=FLOAT)

    def test_make_distribution_rejects_negative(self):
        with pytest.raises(NormalizationError):
            make_distribution([Fraction(3, 2), Fraction(-1, 2), 0, 0, 0])
