"""Spectral decomposition: eigenvalues, eigenvectors, and coordinates."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from votermodel import spectral
from votermodel import (
    EXACT,
    FLOAT,
    InvalidPopulationError,
    NormalizationError,
    b_coefficients,
    binomial_transform,
    build_decomposition,
    delta_distribution,
    dense_oracle,
    eigenvalues,
    inverse_binomial_transform,
    local_times_exact,
    local_times_oracle,
    make_distribution,
    moment_exact,
    moments_oracle,
    propagate_spectral,
    to_coordinates,
    transition_operator,
    transition_rates,
    uniform_distribution,
)


def dense_matrix(N):
    p = np.array(transition_rates(N, FLOAT))
    T = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        T[i, i] = 1.0 - 2.0 * p[i]
        if i > 0:
            T[i - 1, i] += p[i]
        if i < N:
            T[i + 1, i] += p[i]
    return T


class TestEigenvalues:
    def test_n2(self):
        assert eigenvalues(2) == (1, 1, 0)

    def test_n4(self):
        assert eigenvalues(4) == (1, 1, Fraction(5, 6), Fraction(1, 2), 0)

    @pytest.mark.parametrize("N", [2, 3, 7, 20])
    def test_leading_pair_is_one(self, N):
        vals = eigenvalues(N)
        assert vals[0] == vals[1] == 1

    @pytest.mark.parametrize("N", range(2, 13))
    def test_matches_dense_eigensolve(self, N):
        dense = np.sort(np.linalg.eigvals(dense_matrix(N)).real)
        closed = np.sort(np.array(eigenvalues(N, FLOAT)))
        assert np.abs(dense - closed).max() <= 1e-10

    @pytest.mark.parametrize("N", [5, 16])
    def test_multiplicity_and_range(self, N):
        vals = eigenvalues(N)
        assert vals.count(1) == 2
        assert all(0 <= v < 1 for v in vals[2:])
        assert all(vals[k] > vals[k + 1] for k in range(1, N))

    def test_rejects_small_population(self):
        with pytest.raises(InvalidPopulationError):
            eigenvalues(1)


class TestBCoefficients:
    def test_n4_k2(self):
        assert b_coefficients(4, 2) == (0, 0, 1, 1, Fraction(3, 10))

    @pytest.mark.parametrize("N,k", [(4, 2), (9, 3), (12, 12), (7, 5)])
    def test_normalization_and_support(self, N, k):
        b = b_coefficients(N, k)
        assert b[k] == 1
        assert all(b[j] == 0 for j in range(k))

    def test_out_of_range_k(self):
        with pytest.raises(IndexError):
            b_coefficients(6, 7)
        with pytest.raises(IndexError):
            b_coefficients(6, 1)


class TestBinomialTransform:
    def test_n4_k2(self):
        c = binomial_transform(b_coefficients(4, 2))
        assert c == (
            Fraction(3, 10), Fraction(-1, 5), Fraction(-1, 5), Fraction(-1, 5),
            Fraction(3, 10),
        )

    def test_terminal_basis_vector(self):
        from math import comb

        N = 6
        b = [0] * N + [1]
        c = binomial_transform(b)
        assert c == tuple((-1) ** (N - j) * comb(N, j) for j in range(N + 1))

    @given(
        st.lists(
            st.fractions(max_denominator=50, min_value=-10, max_value=10),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pascal_involution(self, seq):
        assert inverse_binomial_transform(binomial_transform(seq)) == tuple(seq)
        assert binomial_transform(inverse_binomial_transform(seq)) == tuple(seq)


class TestBuildDecomposition:
    def test_n4_pair_k2(self):
        dec = build_decomposition(4)
        pair = dec.pairs[2]
        assert pair.lam == Fraction(5, 6)
        assert pair.c == (
            Fraction(3, 10), Fraction(-1, 5), Fraction(-1, 5), Fraction(-1, 5),
            Fraction(3, 10),
        )

    def test_n2_terminal_pair(self):
        pair = build_decomposition(2).pairs[2]
        assert pair.lam == 0
        assert pair.c == binomial_transform(b_coefficients(2, 2))
        assert pair.c == (1, -2, 1)

    def test_consensus_pairs_are_indicators(self):
        dec = build_decomposition(5)
        assert dec.pairs[0].c == (1, 0, 0, 0, 0, 0)
        assert dec.pairs[1].c == (0, 0, 0, 0, 0, 1)

    @pytest.mark.parametrize("N", [2, 5, 12])
    def test_exact_eigen_equation(self, N):
        # P c = lambda c with zero residual, all pairs
        dec = build_decomposition(N)
        p = transition_rates(N)
        for pair in dec.pairs:
            c = pair.c
            for j in range(N + 1):
                lhs = (1 - 2 * p[j]) * c[j]
                if j > 0:
                    lhs += p[j - 1] * c[j - 1]
                if j < N:
                    lhs += p[j + 1] * c[j + 1]
                assert lhs == pair.lam * c[j]

    @pytest.mark.parametrize("N", [12, 100])
    def test_float_residuals(self, N):
        dec = build_decomposition(N, FLOAT)
        T = dense_matrix(N)
        for pair in dec.pairs:
            c = np.array(pair.c)
            resid = np.abs(T @ c - pair.lam * c).max() / np.abs(c).max()
            assert resid <= 1e-9

    def test_cache_keeps_small_n_and_one_large_n(self, monkeypatch):
        built = []

        def counting_pair(N, k, mode):
            if k == 2:
                built.append((N, mode))

        monkeypatch.setattr(spectral, "_pairs_cache", {})
        monkeypatch.setattr(spectral, "_interior_pair", counting_pair)
        for N in (100, 4, 12, 32, 100):
            build_decomposition(N)
        assert built == [(100, EXACT), (4, EXACT), (12, EXACT), (32, EXACT)]
        # a second large N evicts the first; the small ones stay
        del built[:]
        for N in (80, 100, 4, 12, 32):
            build_decomposition(N)
        assert built == [(80, EXACT), (100, EXACT)]
        assert sorted(spectral._pairs_cache) == [
            (4, EXACT), (12, EXACT), (32, EXACT), (100, EXACT)
        ]
        # both modes of one N coexist, for small and large N alike
        del built[:]
        for N, mode in ((100, FLOAT), (4, FLOAT), (100, EXACT), (100, FLOAT), (4, FLOAT)):
            build_decomposition(N, mode)
        assert built == [(100, FLOAT), (4, FLOAT)]
        assert sorted(spectral._pairs_cache) == [
            (4, EXACT), (4, FLOAT), (12, EXACT), (32, EXACT), (100, EXACT), (100, FLOAT)
        ]


class TestCoordinates:
    def test_uniform_excites_only_k2(self):
        # the uniform distribution is interior-proportional to eigenvector 2
        N = 10
        dec = build_decomposition(N)
        coords = to_coordinates(dec, uniform_distribution(N))
        assert all(coords.d[k] == 0 for k in range(3, N + 1))
        interior = coords.d[2] * dec.pairs[2].c[1]
        assert interior == Fraction(1, N + 1)

    def test_consensus_delta(self):
        dec = build_decomposition(6)
        coords = to_coordinates(dec, delta_distribution(6, 0))
        assert coords.d == (1, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("N,j", [(4, 2), (9, 4), (16, 1)])
    def test_exact_round_trip(self, N, j):
        dec = build_decomposition(N)
        a0 = delta_distribution(N, j)
        assert propagate_spectral(dec, to_coordinates(dec, a0), 0).a == a0.a

    def test_float_round_trip(self):
        N = 100
        dec = build_decomposition(N, FLOAT)
        a0 = delta_distribution(N, 37, FLOAT)
        rec = np.array(propagate_spectral(dec, to_coordinates(dec, a0), 0).a)
        assert np.abs(rec - np.array(a0.a)).max() <= 1e-10

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=5, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_distributions(self, weights):
        total = sum(weights)
        if total == 0:
            weights[0] = 1
            total = 1
        a = [Fraction(w, total) for w in weights]
        N = len(a) - 1
        dec = build_decomposition(N)
        assert propagate_spectral(dec, to_coordinates(dec, a), 0).a == tuple(a)

    def test_rejects_unnormalized(self):
        dec = build_decomposition(4)
        with pytest.raises(NormalizationError):
            to_coordinates(dec, [Fraction(1, 2), 0, 0, 0, 0])
        with pytest.raises(NormalizationError):
            to_coordinates(dec, [Fraction(1, 2)] * 4)


@st.composite
def exact_distributions(draw):
    """A random exact distribution on 0..N for a random N in 2..32."""
    N = draw(st.integers(min_value=2, max_value=32))
    weights = draw(st.lists(st.integers(min_value=0, max_value=20), min_size=N + 1,
                            max_size=N + 1))
    if sum(weights) == 0:
        weights[draw(st.integers(min_value=0, max_value=N))] = 1
    total = sum(weights)
    return make_distribution([Fraction(w, total) for w in weights])


class TestDifferential:
    """The spectral routes against the independent step-by-step and
    tridiagonal routes, and the eigenpair build against the Pascal route."""

    @given(exact_distributions(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_spectral_routes_equal_oracles(self, a0, m):
        N = a0.N
        dec = build_decomposition(N)
        coords = to_coordinates(dec, a0)
        assert propagate_spectral(dec, coords, 0).a == a0.a
        op = transition_operator(N)
        assert propagate_spectral(dec, coords, m).a == dense_oracle(op, a0, m).a
        assert local_times_exact(dec, coords).M == local_times_oracle(op, a0).M
        if all(v == 0 for v in a0.a[1:N]):
            return  # no interior mass: the moments are undefined on both routes
        for p in (1, 2, 3):
            assert moment_exact(dec, coords, p).value == moments_oracle(op, a0, p).value

    @pytest.mark.parametrize("N", [2, 3, 5, 17, 33, 64])
    def test_eigenvectors_equal_pascal_transform(self, N):
        from math import comb

        dec = build_decomposition(N)
        # u-basis coefficients of the consensus indicators: e_0 and C(N, j)
        consensus_b = ([1] + [0] * N, [comb(N, j) for j in range(N + 1)])
        for pair in dec.pairs:
            b = consensus_b[pair.k] if pair.k < 2 else b_coefficients(N, pair.k)
            assert pair.c == binomial_transform(b)

    @pytest.mark.parametrize("N", [5, 64, 100])
    def test_float_pairs_are_rounded_exact_pairs(self, N):
        exact = build_decomposition(N, EXACT).pairs
        flo = build_decomposition(N, FLOAT).pairs
        for e, f in zip(exact, flo, strict=True):
            assert f.lam == float(e.lam)
            assert f.c == tuple(float(v) for v in e.c)
