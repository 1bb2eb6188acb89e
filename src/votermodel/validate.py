"""Self-validation suites: desk-scale correctness and full-size statistics.

Each check returns a :class:`CheckResult` with the measured value, the
expectation, and the tolerance it was gated at, so failures are directly
diagnosable from the report.  The ``core`` suite covers the exact
machinery (spectral correctness, propagator equivalence, oracle
agreement, continuum limits); the ``figures`` suite runs the full-size
Monte Carlo protocols at full size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import montecarlo as mc
from . import observables as ob
from . import propagator as pg
from . import spectral as sp
from . import topology as tp


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str
    tolerance: str


def _result(name, passed, measured, expected, tolerance):
    return CheckResult(
        name=name, passed=bool(passed), measured=str(measured), expected=str(expected),
        tolerance=str(tolerance),
    )


def _dense_matrix(N):
    """Column-stochastic dense transition matrix from the rate sequence."""
    p = np.array(pg.transition_rates(N, sp.FLOAT))
    T = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        T[i, i] = 1.0 - 2.0 * p[i]
        if i > 0:
            T[i - 1, i] += p[i]
        if i < N:
            T[i + 1, i] += p[i]
    return T


def check_spectral_correctness():
    """Criterion 1: closed-form spectrum vs dense eigensolve, N = 2..12."""
    worst_eig = 0.0
    worst_resid = 0.0
    for N in range(2, 13):
        T = _dense_matrix(N)
        dec = sp.build_decomposition(N, sp.FLOAT)
        dense = np.sort(np.linalg.eigvals(T).real)
        closed = np.sort([pair.lam for pair in dec.pairs])
        worst_eig = max(worst_eig, float(np.abs(dense - closed).max()))
        for pair in dec.pairs:
            c = np.array(pair.c)
            resid = np.abs(T @ c - pair.lam * c).max() / np.abs(c).max()
            worst_resid = max(worst_resid, float(resid))
    # exact-mode residuals are checked during construction; exercise N = 32
    sp.build_decomposition(32, sp.EXACT)
    measured = max(worst_eig, worst_resid)
    return _result(
        "spectral-correctness",
        measured <= 1e-10,
        f"max eigenvalue/residual error {measured:.3e}",
        "0 (exact residual = 0 verified for N <= 32)",
        "1e-10",
    )


def check_propagator_equivalence():
    """Criterion 2: spectral propagation equals m-fold direct stepping."""
    worst = 0.0
    worst_sum = 0.0
    worst_mean = 0.0
    for N in (4, 12, 64):
        dec = sp.build_decomposition(N, sp.FLOAT)
        op = pg.transition_operator(N, sp.FLOAT)
        a0 = pg.delta_distribution(N, N // 2, sp.FLOAT)
        coords = sp.to_coordinates(dec, a0)
        dist = a0
        prev = 0
        for m in (1, 10, 1000, 10000):
            dist = pg.dense_oracle(op, dist, m - prev)
            prev = m
            spec = pg.propagate_spectral(dec, coords, m)
            worst = max(worst, max(abs(x - y) for x, y in zip(dist.a, spec.a)))
            worst_sum = max(worst_sum, abs(sum(dist.a) - 1.0))
            worst_mean = max(worst_mean, abs(dist.mean() - N // 2))
    measured = max(worst, worst_sum, worst_mean)
    return _result(
        "propagator-equivalence",
        measured <= 1e-10,
        f"max inf-norm/sum/mean deviation {measured:.3e}",
        "0",
        "1e-10",
    )


def check_uniform_local_time():
    """Criterion 3: N = 100 uniform start gives flat local times N(N-1)/(2(N+1))."""
    dec = sp.build_decomposition(100, sp.EXACT)
    coords = sp.to_coordinates(dec, pg.uniform_distribution(100))
    lt = ob.local_times_exact(dec, coords)
    target = Fraction(100 * 99, 2 * 101)
    ok = all(m == target for m in lt.M)
    return _result(
        "uniform-local-time",
        ok,
        f"interior values {{{float(lt.M[0]):.6f}}}" if ok else f"values differ from {target}",
        f"{target} = {float(target):.6f} at every interior state",
        "exact equality (rational mode)",
    )


def check_oracle_equivalence():
    """Criterion 4: spectral moments/local times vs fundamental-matrix oracle."""
    # exact equality, N <= 32
    for N in (4, 12, 32):
        dec = sp.build_decomposition(N, sp.EXACT)
        op = pg.transition_operator(N, sp.EXACT)
        a0 = pg.delta_distribution(N, max(1, N // 3), sp.EXACT)
        coords = sp.to_coordinates(dec, a0)
        for p in range(1, 5):
            exact = ob.moment_exact(dec, coords, p).value
            oracle = ob.moments_oracle(op, a0, p).value
            if exact != oracle:
                return _result(
                    "oracle-equivalence", False,
                    f"N={N} p={p}: spectral {exact} != oracle {oracle}",
                    "exact equality", "0 (rational mode)",
                )
        if ob.local_times_exact(dec, coords).M != ob.local_times_oracle(op, a0).M:
            return _result(
                "oracle-equivalence", False,
                f"N={N}: local-time vectors differ",
                "exact equality", "0 (rational mode)",
            )
    # float agreement, N = 100
    worst = 0.0
    dec = sp.build_decomposition(100, sp.FLOAT)
    op = pg.transition_operator(100, sp.FLOAT)
    a0 = pg.delta_distribution(100, 25, sp.FLOAT)
    coords = sp.to_coordinates(dec, a0)
    for p in range(1, 5):
        exact = ob.moment_exact(dec, coords, p).value
        oracle = ob.moments_oracle(op, a0, p).value
        worst = max(worst, abs(exact - oracle) / abs(oracle))
    lt_s = np.array(ob.local_times_exact(dec, coords).M)
    lt_o = np.array(ob.local_times_oracle(op, a0).M)
    worst = max(worst, float(np.abs(lt_s - lt_o).max() / np.abs(lt_o).max()))
    return _result(
        "oracle-equivalence",
        worst <= 1e-8,
        f"exact for N <= 32; float N=100 relative error {worst:.3e}",
        "0",
        "exact (N <= 32); 1e-8 relative (float, N = 100)",
    )


def check_consensus_time_value(runs=500, seed=2024_0501):
    """Criterion 5: E[T] at N = 100 from delta_50 vs N^2 ln 2 and Monte Carlo."""
    dec = sp.build_decomposition(100, sp.EXACT)
    coords = sp.to_coordinates(dec, pg.delta_distribution(100, 50))
    exact = float(ob.moment_exact(dec, coords, 1).value)
    continuum = 100**2 * math.log(2)
    rel = abs(exact - continuum) / continuum
    cfg = mc.SimulationConfig(
        topology=tp.generate_complete(100), init=("count", 50), runs=runs, seed=seed
    )
    report = mc.estimate_moments(mc.simulate(cfg), seed, 1)
    sigmas = abs(report.moments[0] - exact) / report.std_errors[0]
    ok = rel <= 0.02 and sigmas <= 3.0
    return _result(
        "consensus-time-value",
        ok,
        f"exact {exact:.2f} ({100 * rel:.2f}% off continuum); MC {report.moments[0]:.1f} "
        f"({sigmas:.2f} standard errors)",
        f"continuum {continuum:.1f}",
        "2% (exact vs continuum); 3 standard errors (MC vs exact)",
    )


def _histogram_case(init, exact_a0, runs, seed):
    dec = sp.build_decomposition(100, sp.FLOAT)
    coords = sp.to_coordinates(dec, exact_a0)
    exact = np.array(ob.local_times_exact(dec, coords).M)
    cfg = mc.SimulationConfig(
        topology=tp.generate_complete(100), init=init, runs=runs, seed=seed,
        track_local_times=True,
    )
    mean, se = mc.local_time_histogram(mc.simulate(cfg), 100)
    mean, se = mean[1:100], se[1:100]
    within = np.abs(mean - exact) <= 3.0 * se
    return float(within.mean())


def check_local_time_histograms(runs=3000, seed=2024_0502):
    """Criterion 6: simulated local-time histograms track the exact curves."""
    cases = [
        (("count", 50), pg.delta_distribution(100, 50, sp.FLOAT)),
        (("count", 25), pg.delta_distribution(100, 25, sp.FLOAT)),
        (("uniform",), pg.uniform_distribution(100, sp.FLOAT)),
    ]
    fractions = [
        _histogram_case(init, a0, runs, seed + idx) for idx, (init, a0) in enumerate(cases)
    ]
    ok = all(f >= 0.95 for f in fractions)
    return _result(
        "local-time-histograms",
        ok,
        "fraction of interior bins within 3 SE: "
        + ", ".join(f"{f:.3f}" for f in fractions),
        ">= 0.95 per init (delta_50, delta_25, uniform); 3000 runs each",
        "3 per-bin standard errors, 95% of bins",
    )


def _linearity_family(topo, init, normalization, seed, runs=100, p_max=10):
    cfg = mc.SimulationConfig(topology=topo, init=init, runs=runs, seed=seed)
    return mc.estimate_moments(mc.simulate(cfg), seed, p_max, normalization)


def check_moment_linearity(runs=100, seed=2024_0503):
    """Criterion 7: ln(T_p/p!) is linear in p for all three families at N = 100."""
    er = tp.generate_er(100, 0.05, seed=seed)
    mom = tp.degree_moments(er)
    families = [
        ("complete", tp.generate_complete(100), ("count", 50), 1.0),
        ("bipartite", tp.generate_bipartite(80, 20), ("groups", 40, 10), 1.0),
        ("er", er, ("density", 0.5), float(mom.mu1**2 / mom.mu2)),
    ]
    r2s = {}
    for idx, (name, topo, init, norm) in enumerate(families):
        report = _linearity_family(topo, init, norm, seed + idx, runs)
        r2s[name] = report.r_squared
    ok = all(r2 >= 0.98 for r2 in r2s.values())
    return _result(
        "moment-linearity",
        ok,
        "R^2: " + ", ".join(f"{k}={v:.4f}" for k, v in r2s.items()),
        "linear ln(T_p/p!) vs p, p = 1..10, 100 runs per family",
        "R^2 >= 0.98",
    )


def _scaling_point(name, N, seed, runs):
    if name == "complete":
        topo, init, norm = tp.generate_complete(N), ("count", N // 2), 1.0
    elif name == "bipartite":
        n2 = N // 5
        topo = tp.generate_bipartite(4 * n2, n2)
        init, norm = ("groups", 2 * n2, max(1, n2 // 2)), 1.0
    else:
        topo = tp.generate_er(N, 5.0 / N, seed=seed)
        mom = tp.degree_moments(topo)
        init, norm = ("density", 0.5), float(mom.mu1**2 / mom.mu2)
    cfg = mc.SimulationConfig(topology=topo, init=init, runs=runs, seed=seed)
    report = mc.estimate_moments(mc.simulate(cfg), seed, 5, norm)
    return report.log_moments[4]


def check_moment_scaling(runs=100, seed=2024_0504):
    """Criterion 8: ln(T_5/5!) grows with slope 2p = 10 in ln N."""
    sizes = list(range(10, 101, 10))
    slopes = {}
    for fam_idx, name in enumerate(("complete", "bipartite", "er")):
        ys = [
            _scaling_point(name, N, seed + 100 * fam_idx + N, runs) for N in sizes
        ]
        slope, _, _ = mc.linear_fit(np.log(np.array(sizes, dtype=float)), np.array(ys))
        slopes[name] = slope
    ok = all(9.0 <= s <= 11.0 for s in slopes.values())
    return _result(
        "moment-scaling",
        ok,
        "slopes: " + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items()),
        "2p = 10 (p = 5), N = 10..100, 100 runs per point",
        "slope in [9.0, 11.0]",
    )


def check_continuum_limits():
    """Criterion 9: eigenvector k=7 vs 2F1(8,-5,2,x); local times vs Green kernel."""
    # (a) rescaled eigenvector against the terminating hypergeometric series
    dec = sp.build_decomposition(100, sp.FLOAT)
    c = np.array(dec.pairs[7].c[1:100])
    u_fn = ob.hypergeometric_eigenfunction(7)
    x = np.arange(1, 100) / 100.0
    u = np.array([u_fn(xi) for xi in x])
    alpha = float(np.dot(c, u) / np.dot(c, c))
    rel_eig = float(np.abs(alpha * c - u).max() / np.abs(u).max())

    # (b) discrete local times for a point start converge to N*g(rho, xi)
    xi = 0.25
    errors = []
    for N in (50, 100, 200):
        op = pg.transition_operator(N, sp.FLOAT)
        a0 = pg.delta_distribution(N, round(xi * N), sp.FLOAT)
        M = np.array(ob.local_times_oracle(op, a0).M)
        rho = np.arange(1, N) / N
        g = np.array([ob.greens_kernel(r, xi) for r in rho])
        errors.append(float(np.abs(M - N * g).max() / (N * g).max()))
    monotone = errors[0] > errors[1] > errors[2]
    ok = rel_eig <= 0.05 and monotone
    return _result(
        "continuum-limits",
        ok,
        f"eigenvector rel Linf {rel_eig:.4f}; local-time errors "
        + " > ".join(f"{e:.4f}" for e in errors),
        "<= 0.05; strictly decreasing over N = 50, 100, 200",
        "5% (eigenvector); monotone decrease (local times)",
    )


def _mean_time(topo, init, runs, seed, normalization=1.0):
    cfg = mc.SimulationConfig(topology=topo, init=init, runs=runs, seed=seed)
    report = mc.estimate_moments(mc.simulate(cfg), seed, 1, normalization)
    return report.moments[0]


def check_gap_scaling(runs=100, seed=2024_0505):
    """Criterion 10: consensus times scale as N1 N2 (bipartite), N^2 mu1^2/mu2 (ER)."""
    n2s = [4, 8, 12, 16, 20]
    bip = [
        _mean_time(tp.generate_bipartite(4 * n2, n2), ("groups", 2 * n2, n2 // 2),
                   runs, seed + n2)
        for n2 in n2s
    ]
    slope_b, _, _ = mc.linear_fit(np.log(np.array(n2s, dtype=float)), np.log(np.array(bip)))

    sizes = [20, 40, 60, 80, 100]
    er_means = []
    for N in sizes:
        topo = tp.generate_er(N, 5.0 / N, seed=seed + 1000 + N)
        mom = tp.degree_moments(topo)
        er_means.append(
            _mean_time(topo, ("density", 0.5), runs, seed + 2000 + N,
                       normalization=float(mom.mu1**2 / mom.mu2))
        )
    slope_e, _, _ = mc.linear_fit(np.log(np.array(sizes, dtype=float)), np.log(np.array(er_means)))
    ok = abs(slope_b - 2.0) <= 0.2 and abs(slope_e - 2.0) <= 0.2
    return _result(
        "gap-scaling",
        ok,
        f"bipartite slope {slope_b:.3f} (vs N2, N1 = 4 N2); "
        f"ER normalized slope {slope_e:.3f} (vs N)",
        "2.0 for both families",
        "+- 0.2",
    )


CORE_CHECKS = (
    check_spectral_correctness,
    check_propagator_equivalence,
    check_uniform_local_time,
    check_oracle_equivalence,
    check_consensus_time_value,
    check_continuum_limits,
)

FIGURE_CHECKS = (
    check_local_time_histograms,
    check_moment_linearity,
    check_moment_scaling,
    check_gap_scaling,
)


def run_suite(suite):
    """Run a named suite; exceptions become failed results, never crashes."""
    if suite == "core":
        checks = CORE_CHECKS
    elif suite == "figures":
        checks = FIGURE_CHECKS
    elif suite == "all":
        checks = CORE_CHECKS + FIGURE_CHECKS
    else:
        raise ValueError(f"unknown suite {suite!r}; expected core, figures, or all")
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(
                _result(check.__name__.removeprefix("check_").replace("_", "-"),
                        False, f"raised {type(exc).__name__}: {exc}", "no exception", "n/a")
            )
    return results
