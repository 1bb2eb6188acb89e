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
    eigenvalues,
    inverse_binomial_transform,
    reconstruct,
    to_coordinates,
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
        assert pair.b == (0, 0, 1)
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

        def counting_pair(N, k):
            if k == 2:
                built.append(N)

        monkeypatch.setattr(spectral, "_pairs_cache", {})
        monkeypatch.setattr(spectral, "_interior_pair", counting_pair)
        for N in (100, 4, 12, 32, 100):
            spectral._exact_pairs(N)
        assert built == [100, 4, 12, 32]
        # a second large N evicts the first; the small ones stay
        for N in (80, 100, 4, 12, 32):
            spectral._exact_pairs(N)
        assert built == [100, 4, 12, 32, 80, 100]
        assert sorted(spectral._pairs_cache) == [4, 12, 32, 100]


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
        assert reconstruct(dec, to_coordinates(dec, a0)) == a0.a

    def test_float_round_trip(self):
        N = 100
        dec = build_decomposition(N, FLOAT)
        a0 = delta_distribution(N, 37, FLOAT)
        rec = reconstruct(dec, to_coordinates(dec, a0))
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
        assert reconstruct(dec, to_coordinates(dec, a)) == tuple(a)

    def test_rejects_unnormalized(self):
        dec = build_decomposition(4)
        with pytest.raises(NormalizationError):
            to_coordinates(dec, [Fraction(1, 2), 0, 0, 0, 0])
        with pytest.raises(NormalizationError):
            to_coordinates(dec, [Fraction(1, 2)] * 4)
