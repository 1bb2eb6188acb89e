"""Stochastic simulator: reproducibility, exactness checks, and scaling."""

import math

import numpy as np
import pytest

from votermodel import (
    FLOAT,
    SimulationConfig,
    build_decomposition,
    delta_distribution,
    estimate_moments,
    generate_bipartite,
    generate_complete,
    generate_er,
    local_time_histogram,
    moment_exact,
    propagate_spectral,
    run_to_consensus,
    simulate,
    to_coordinates,
    transition_rates,
)
from votermodel.montecarlo import UnsupportedObservableError, linear_fit


def config(topo, init, runs, seed, **kw):
    return SimulationConfig(topology=topo, init=init, runs=runs, seed=seed, **kw)


class TestReproducibility:
    def test_replicas_are_deterministic(self):
        cfg = config(generate_complete(40), ("count", 20), 5, seed=99)
        first = simulate(cfg)
        second = simulate(cfg)
        assert first == second

    def test_replicas_are_order_independent(self):
        cfg = config(generate_complete(30), ("count", 10), 4, seed=5)
        assert run_to_consensus(cfg, 3) == simulate(cfg)[3]

    def test_distinct_seeds_differ(self):
        topo = generate_complete(40)
        a = simulate(config(topo, ("count", 20), 3, seed=1))
        b = simulate(config(topo, ("count", 20), 3, seed=2))
        assert [r.steps for r in a] != [r.steps for r in b]


class TestMicroDynamics:
    def test_n2_mixed_state_fixates_in_one_step(self):
        rec = run_to_consensus(config(generate_complete(2), ("count", 1), 1, seed=0), 0)
        assert rec.steps == 1
        assert not rec.censored

    def test_step_maintains_counts(self):
        topo = generate_er(25, 0.3, seed=4)
        for m in range(1, 201):
            rec = run_to_consensus(config(topo, ("count", 10), 1, seed=17, max_steps=m), 0)
            assert rec.steps <= m
            assert 0 <= rec.final_count <= topo.N
            assert rec.censored == (0 < rec.final_count < topo.N)
            assert rec.fixated == (rec.final_count == topo.N)

    def test_urn_maintains_counts(self):
        # the complete-graph jump chain still stops after exactly m iterations
        N = 25
        topo = generate_complete(N)
        for m in range(1, 201):
            cfg = config(topo, ("count", 10), 1, seed=17, max_steps=m, track_local_times=True)
            rec = run_to_consensus(cfg, 0)
            assert rec.steps <= m
            assert 0 <= rec.final_count <= N
            assert rec.censored == (0 < rec.final_count < N)
            if rec.censored:
                assert rec.steps == m
            assert sum(rec.visits) == rec.steps
            assert rec.fixated == (rec.final_count == N)

    @pytest.mark.parametrize("init", [("density", 0.3), ("uniform",)])
    def test_complete_inits_draw_a_valid_count(self, init):
        N = 20
        cfg = config(generate_complete(N), init, 200, seed=3)
        counts = [rec.initial_count for rec in simulate(cfg)]
        assert all(0 <= c <= N for c in counts)
        if init[0] == "density":
            assert set(counts) == {6}
        else:
            assert len(set(counts)) > 1

    def test_single_step_frequencies_match_rates(self):
        # P(n -> n±1) = p_j each; binomial 4-sigma gate on 4000 fresh trials
        N, j, trials = 10, 3, 4000
        cfg = config(generate_complete(N), ("count", j), 1, seed=123, max_steps=1)
        p_j = float(transition_rates(N, FLOAT)[j])
        ends = [run_to_consensus(cfg, r).final_count for r in range(trials)]
        up, down = ends.count(j + 1), ends.count(j - 1)
        sigma = math.sqrt(trials * p_j * (1 - p_j))
        assert abs(up - trials * p_j) <= 4 * sigma
        assert abs(down - trials * p_j) <= 4 * sigma

    def test_fixation_frequency_is_martingale(self):
        N, j, runs = 20, 5, 2000
        cfg = config(generate_complete(N), ("count", j), runs, seed=31)
        wins = sum(rec.fixated for rec in simulate(cfg))
        rho = j / N
        sigma = math.sqrt(runs * rho * (1 - rho))
        assert abs(wins - runs * rho) <= 4 * sigma

    def test_bipartite_neighbors_stay_across_groups(self):
        # a node copies a uniform neighbour from the other group, so with
        # a1 of n1 and a2 of n2 nodes in state A:
        # P(up) = (n1-a1)/N a2/n2 + (n2-a2)/N a1/n1, and mirrored for down
        n1, n2, a1, a2, trials = 3, 7, 2, 3, 4000
        N = n1 + n2
        cfg = config(generate_bipartite(n1, n2), ("groups", a1, a2), 1, seed=8, max_steps=1)
        ends = [run_to_consensus(cfg, r).final_count for r in range(trials)]
        rates = {
            a1 + a2 + 1: (n1 - a1) / N * a2 / n2 + (n2 - a2) / N * a1 / n1,
            a1 + a2 - 1: a1 / N * (n2 - a2) / n2 + a2 / N * (n1 - a1) / n1,
        }
        for end, rate in rates.items():
            sigma = math.sqrt(trials * rate * (1 - rate))
            assert abs(ends.count(end) - trials * rate) <= 4 * sigma


class TestAgainstExactSolution:
    def test_macrostate_distribution_at_fixed_step(self):
        # empirical occupation at m = 40 vs the spectral m-step distribution
        N, j0, m, runs = 12, 6, 40, 3000
        cfg = config(generate_complete(N), ("count", j0), 1, seed=777, max_steps=m)
        counts = np.zeros(N + 1)
        for r in range(runs):
            counts[run_to_consensus(cfg, r).final_count] += 1
        dec = build_decomposition(N, FLOAT)
        a0 = delta_distribution(N, j0, FLOAT)
        exact = np.array(propagate_spectral(dec, to_coordinates(dec, a0), m).a)
        sigma = np.sqrt(runs * exact * (1 - exact)) + 1e-9
        assert (np.abs(counts - runs * exact) <= 4 * sigma + 4).all()

    def test_mean_consensus_time(self):
        N, runs = 30, 600
        cfg = config(generate_complete(N), ("count", N // 2), runs, seed=404)
        records = simulate(cfg)
        a0 = delta_distribution(N, N // 2)
        dec = build_decomposition(N)
        expected = float(moment_exact(dec, to_coordinates(dec, a0), 1).value)
        times = np.array([rec.steps for rec in records], dtype=float)
        se = times.std(ddof=1) / math.sqrt(runs)
        assert abs(times.mean() - expected) <= 4 * se

    def test_local_time_tracking(self):
        N, runs = 10, 1500
        cfg = config(
            generate_complete(N), ("count", 5), runs, seed=55, track_local_times=True
        )
        records = simulate(cfg)
        mean, se = local_time_histogram(records, N)
        from votermodel import local_times_oracle, transition_operator

        exact = local_times_oracle(transition_operator(N), delta_distribution(N, 5))
        for j in range(1, N):
            assert abs(mean[j] - float(exact.M[j - 1])) <= 4 * se[j] + 0.05
        # boundary tallies stay empty: runs stop at absorption
        assert mean[0] == mean[N] == 0

    def test_local_times_rejected_off_complete(self):
        cfg = config(
            generate_bipartite(4, 4), ("count", 4), 1, seed=1, track_local_times=True
        )
        with pytest.raises(UnsupportedObservableError):
            run_to_consensus(cfg, 0)


class TestScalingAndEstimates:
    def test_complete_graph_consensus_scales_as_n_squared(self):
        sizes = (20, 50, 100, 200)
        means = []
        for N in sizes:
            cfg = config(generate_complete(N), ("density", 0.5), 150, seed=9000 + N)
            times = [rec.steps for rec in simulate(cfg) if not rec.censored]
            means.append(sum(times) / len(times))
        slope, _, r2 = linear_fit(np.log(np.array(sizes)), np.log(np.array(means)))
        assert abs(slope - 2.0) <= 0.15
        assert r2 >= 0.99

    def test_estimate_moments_report(self):
        cfg = config(generate_complete(40), ("density", 0.5), 400, seed=2718)
        records = simulate(cfg)
        report = estimate_moments(records, seed=2718, p_max=4, normalization=1600.0)
        assert report.p_values == (1, 2, 3, 4)
        assert report.censored == 0
        assert all(se > 0 for se in report.std_errors)
        # ln(T_p/p!) is close to linear in p when the gap mode dominates
        assert report.r_squared >= 0.98
        # first normalized moment should sit near the entropy factor ln 2
        assert abs(report.moments[0] - math.log(2)) <= 10 * report.std_errors[0]

    def test_censoring_is_flagged(self):
        cfg = config(
            generate_complete(50), ("density", 0.5), 5, seed=77, max_steps=10
        )
        with pytest.warns(UserWarning):
            records = simulate(cfg)
        assert all(rec.censored for rec in records)
        with pytest.raises(ValueError):
            estimate_moments(records, seed=77, p_max=2)

    def test_linear_fit_recovers_line(self):
        x = np.arange(10, dtype=float)
        slope, intercept, r2 = linear_fit(x, 3.0 * x - 1.0)
        assert slope == pytest.approx(3.0)
        assert intercept == pytest.approx(-1.0)
        assert r2 == pytest.approx(1.0)

    def test_invalid_configs(self):
        topo = generate_complete(10)
        with pytest.raises(ValueError):
            simulate(config(topo, ("count", 5), 0, seed=1))
        with pytest.raises(ValueError):
            run_to_consensus(config(topo, ("count", 11), 1, seed=1), 0)
        with pytest.raises(ValueError):
            run_to_consensus(config(topo, ("groups", 2, 2), 1, seed=1), 0)
