"""Consensus-time moments, local times, and continuum-limit objects."""

import math

import pytest
from fractions import Fraction

from votermodel import (
    EXACT,
    FLOAT,
    build_decomposition,
    delta_distribution,
    dense_oracle,
    greens_kernel,
    greens_local_time,
    hypergeometric_eigenfunction,
    local_times_exact,
    local_times_oracle,
    moment_exact,
    moment_asymptotic,
    moments_oracle,
    to_coordinates,
    transition_operator,
    uniform_distribution,
)
from votermodel.observables import (
    UndefinedMomentError,
    eulerian_coefficients,
    power_sum,
    s_coefficients,
    stirling2,
)


def coords_for(N, init, mode=EXACT):
    dec = build_decomposition(N, mode)
    return dec, to_coordinates(dec, init)


class TestEulerian:
    def test_first_rows(self):
        assert eulerian_coefficients(1) == (1,)
        assert eulerian_coefficients(2) == (1, 1)
        assert eulerian_coefficients(3) == (1, 4, 1)
        assert eulerian_coefficients(4) == (1, 11, 11, 1)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_row_sums_to_factorial(self, p):
        assert sum(eulerian_coefficients(p)) == math.factorial(p)

    @pytest.mark.parametrize("lam,p", [(0.5, 1), (0.5, 3), (0.9, 2), (Fraction(2, 3), 4)])
    def test_power_sum_matches_series(self, lam, p):
        closed = float(power_sum(lam, p))
        brute = sum(m**p * float(lam) ** (m - 1) for m in range(1, 4000))
        assert abs(closed - brute) <= 1e-9 * abs(closed)


class TestAbsorptionFlux:
    def test_s_matches_flux_series(self):
        # q_m reconstructed from s_k weights equals the brute-force flux
        N = 8
        a0 = delta_distribution(N, 3)
        dec, coords = coords_for(N, a0)
        s = s_coefficients(dec, coords)
        op = transition_operator(N)
        dist = a0
        for m in range(1, 12):
            q_spectral = (
                sum(sk * pair.lam ** (m - 1) for sk, pair in zip(s, dec.pairs[2:])) / N
            )
            assert q_spectral == (dist.a[1] + dist.a[N - 1]) / N
            dist = dense_oracle(op, dist, 1)


class TestMoments:
    def test_n2_consensus_in_one_step(self):
        dec, coords = coords_for(2, delta_distribution(2, 1))
        for p in (1, 2, 3):
            assert moment_exact(dec, coords, p).value == 1

    @pytest.mark.parametrize("N,j", [(5, 2), (10, 4), (16, 8)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_exact_equals_fundamental_matrix(self, N, j, p):
        a0 = delta_distribution(N, j)
        dec, coords = coords_for(N, a0)
        spectral = moment_exact(dec, coords, p).value
        oracle = moments_oracle(transition_operator(N), a0, p).value
        assert spectral == oracle

    def test_asymptotic_equals_exact_at_p1(self):
        dec, coords = coords_for(12, delta_distribution(12, 5))
        assert moment_asymptotic(dec, coords, 1).value == moment_exact(
            dec, coords, 1
        ).value

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_asymptotic_converges_from_above(self, p):
        N = 100
        dec, coords = coords_for(N, delta_distribution(N, N // 2, FLOAT), FLOAT)
        exact = moment_exact(dec, coords, p).value
        asym = moment_asymptotic(dec, coords, p).value
        assert asym >= exact
        assert abs(asym - exact) <= 0.005 * exact

    def test_undefined_for_consensus_start(self):
        dec, coords = coords_for(6, delta_distribution(6, 0))
        with pytest.raises(UndefinedMomentError):
            moment_exact(dec, coords, 1)
        with pytest.raises(UndefinedMomentError):
            moments_oracle(transition_operator(6), delta_distribution(6, 6), 1)

    def test_rejects_bad_order(self):
        dec, coords = coords_for(4, delta_distribution(4, 2))
        with pytest.raises(ValueError):
            moment_exact(dec, coords, 0)

    @pytest.mark.parametrize("p,r,val", [(4, 2, 7), (5, 3, 25), (6, 1, 1), (3, 3, 1)])
    def test_stirling_numbers(self, p, r, val):
        assert stirling2(p, r) == val


class TestLocalTimes:
    @pytest.mark.parametrize("N,j", [(4, 2), (6, 1), (12, 7)])
    def test_spectral_equals_fundamental_matrix(self, N, j):
        a0 = delta_distribution(N, j)
        dec, coords = coords_for(N, a0)
        spectral = local_times_exact(dec, coords)
        oracle = local_times_oracle(transition_operator(N), a0)
        assert spectral.M == oracle.M

    @pytest.mark.parametrize("N", [5, 9, 20])
    def test_total_equals_mean_consensus_time(self, N):
        # every pre-absorption step visits exactly one interior state
        a0 = delta_distribution(N, N // 2)
        dec, coords = coords_for(N, a0)
        assert local_times_exact(dec, coords).total() == moment_exact(dec, coords, 1).value

    @pytest.mark.parametrize("N", [6, 25])
    def test_uniform_initial_distribution(self, N):
        # uniform start excites only pair 2, so every interior local time is
        # the same constant N(N-1)/(2(N+1))
        dec, coords = coords_for(N, uniform_distribution(N))
        spectral = local_times_exact(dec, coords)
        oracle = local_times_oracle(transition_operator(N), uniform_distribution(N))
        assert spectral.M == oracle.M
        assert set(spectral.M) == {Fraction(N * (N - 1), 2 * (N + 1))}

    def test_counts_initial_state(self):
        # M_j >= a0_j: the starting visit at m = 0 is included
        N = 8
        a0 = delta_distribution(N, 3)
        dec, coords = coords_for(N, a0)
        assert local_times_exact(dec, coords).M[2] >= 1


class TestContinuum:
    def test_lowest_eigenfunctions(self):
        assert hypergeometric_eigenfunction(2).coeffs == (1,)
        assert hypergeometric_eigenfunction(3).coeffs == (1, -2)
        assert hypergeometric_eigenfunction(4).coeffs == (1, -5, 5)

    def test_rejects_trivial_orders(self):
        with pytest.raises(ValueError):
            hypergeometric_eigenfunction(1)

    def test_degree_terminates(self):
        assert len(hypergeometric_eigenfunction(9).coeffs) == 8

    def test_discrete_eigenvector_converges_to_polynomial(self):
        N = 150
        k = 4
        dec = build_decomposition(N, FLOAT)
        f = hypergeometric_eigenfunction(k)
        c = dec.pairs[k].c
        j_mid = N // 2
        scale = c[j_mid] / f(j_mid / N)
        for j in (N // 4, N // 3, 2 * N // 3):
            approx = scale * f(j / N)
            assert abs(approx - c[j]) <= 0.05 * max(abs(c[j]), abs(c[j_mid]))

    def test_greens_kernel_values(self):
        assert greens_kernel(0.25, 0.5) == pytest.approx(0.5 / 0.75)
        assert greens_kernel(0.5, 0.25) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            greens_kernel(0.0, 0.5)

    def test_point_mass_bypasses_quadrature(self):
        assert greens_local_time(("point", 0.25), 0.5, 100) == pytest.approx(50.0)

    def test_uniform_density_integrates_to_half(self):
        for rho in (0.2, 0.5, 0.8):
            assert greens_local_time("uniform", rho, 200) == pytest.approx(100.0, abs=1e-6)

    def test_uniform_density_is_closed_form(self):
        for rho in (0.2, 0.5, 0.8):
            assert greens_local_time("uniform", rho, 120) == 60.0
            # the quadrature route for a callable density agrees with it
            assert greens_local_time(lambda xi: 1.0, rho, 120) == pytest.approx(60.0, rel=1e-12)

    def test_matches_discrete_local_times(self):
        # fixed-density start: the kernel predicts the exact local times
        N = 200
        j0 = N // 4
        lt = local_times_oracle(transition_operator(N), delta_distribution(N, j0))
        for j in (N // 8, N // 2, 3 * N // 4):
            cont = greens_local_time(("point", j0 / N), j / N, N)
            assert abs(cont - float(lt.M[j - 1])) <= 0.03 * cont
