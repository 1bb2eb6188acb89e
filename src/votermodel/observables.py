"""Consensus-time moments, local times, and continuum-limit objects.

The absorption probability at step m is ``q_m = (a_1 + a_{N-1})/N``
evaluated at step m-1, so every moment of the consensus time reduces to
sums ``sum_m m^p lambda^(m-1)``, which close in terms of Eulerian
polynomials.  All spectral-route quantities are cross-checkable against a
fundamental-matrix oracle built from the interior substochastic block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .propagator import ORACLE_LIMIT, OracleLimitError
from .spectral import EXACT, FLOAT


class UndefinedMomentError(ValueError):
    """Raised for moments of an initial distribution with no interior mass."""


@dataclass(frozen=True)
class ConsensusMoment:
    p: int
    value: object
    method: str


@dataclass(frozen=True)
class LocalTimes:
    """Expected visit counts for the interior macrostates j = 1..N-1.

    The boundary states are excluded: once absorbed the walk stays forever,
    so their local times are infinite by convention.
    """

    N: int
    M: tuple

    def total(self):
        return sum(self.M)


@dataclass(frozen=True)
class ContinuumEigenfunction:
    """Terminating-series polynomial limit of eigenvector k (degree k-2)."""

    k: int
    coeffs: tuple

    def __call__(self, x):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc


# ---------------------------------------------------------------------------
# Eulerian polynomials and the geometric-power sum
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eulerian_coefficients(p):
    """Coefficient row of the p-th Eulerian polynomial (A_1 = 1, A_2 = 1+x)."""
    if p < 0:
        raise ValueError("Eulerian polynomial order must be >= 0")
    if p == 0:
        return (1,)
    prev = eulerian_coefficients(p - 1)
    row = []
    for k in range(p):
        val = 0
        if k < len(prev):
            val += (k + 1) * prev[k]
        if k - 1 >= 0:
            val += (p - k) * prev[k - 1]
        row.append(val)
    return tuple(row)


def power_sum(lam, p):
    """Closed form of ``sum_{m>=1} m^p lam^(m-1)`` for |lam| < 1.

    Equals ``A_p(lam) / (1 - lam)^(p+1)`` with the Eulerian polynomial A_p.
    """
    if p < 1:
        raise ValueError("power-sum order must be >= 1")
    coeffs = eulerian_coefficients(p)
    acc = 0
    for c in reversed(coeffs):
        acc = acc * lam + c
    return acc / (1 - lam) ** (p + 1)


# ---------------------------------------------------------------------------
# Consensus-time moments
# ---------------------------------------------------------------------------


def s_coefficients(decomp, coords):
    """Weights s_k = d_k (c_1^(k) + c_{N-1}^(k)) for k = 2..N.

    These carry the boundary-adjacent components that feed the absorption
    flux; the consensus pairs k = 0, 1 never contribute.
    """
    N = decomp.N
    return tuple(
        coords.d[k] * (decomp.pairs[k].c[1] + decomp.pairs[k].c[N - 1])
        for k in range(2, N + 1)
    )


def _check_moment_args(coords, p):
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    # no weight on any interior pair means the walk starts absorbed
    if all(abs(dk) <= 1e-300 for dk in coords.d[2:]):
        raise UndefinedMomentError(
            "initial distribution has no interior mass; consensus time is identically 0"
        )


def moment_exact(decomp, coords, p):
    """Exact p-th moment via the Eulerian closed form of the m-sum.

    ``E[T^p] = (1/N) sum_{k>=2} s_k A_p(lambda_k)/(1-lambda_k)^(p+1)``;
    no large-N approximation is involved.
    """
    _check_moment_args(coords, p)
    N = decomp.N
    s = s_coefficients(decomp, coords)
    total = sum(sk * power_sum(pair.lam, p) for sk, pair in zip(s, decomp.pairs[2:]))
    total = total / N
    return ConsensusMoment(p=p, value=total, method="exact-spectral")


def moment_asymptotic(decomp, coords, p):
    """Large-N form with the m-sum replaced by ``p!/(1-lambda_k)^(p+1)``.

    Identical to the exact moment at p = 1 (the first Eulerian polynomial
    is the constant 1); for p > 1 it overshoots by a vanishing relative
    margin as N grows.
    """
    _check_moment_args(coords, p)
    N = decomp.N
    s = s_coefficients(decomp, coords)
    fact = factorial(p)
    total = sum(sk * fact / (1 - pair.lam) ** (p + 1) for sk, pair in zip(s, decomp.pairs[2:]))
    total = total / N
    return ConsensusMoment(p=p, value=total, method="large-n-asymptotic")


# ---------------------------------------------------------------------------
# Fundamental-matrix oracle
# ---------------------------------------------------------------------------


def _interior_tridiag(op):
    """(I - Q) over interior states 1..N-1 as (sub, diag, sup) sequences."""
    N = op.N
    p = op.p
    diag = [2 * p[j] for j in range(1, N)]
    sub = [-p[j] for j in range(2, N)]  # row j, column j-1
    sup = [-p[j] for j in range(1, N - 1)]  # row j, column j+1
    return sub, diag, sup


def _solve_tridiag(sub, diag, sup, rhs):
    """Thomas algorithm; exact when fed Fractions, float otherwise."""
    n = len(diag)
    cp = list(sup) + [None]
    dp = list(rhs)
    dg = list(diag)
    for i in range(1, n):
        w = sub[i - 1] / dg[i - 1]
        dg[i] = dg[i] - w * cp[i - 1]
        dp[i] = dp[i] - w * dp[i - 1]
    x = [None] * n
    x[n - 1] = dp[n - 1] / dg[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (dp[i] - cp[i] * x[i + 1]) / dg[i]
    return x


@lru_cache(maxsize=None)
def stirling2(p, r):
    """Stirling numbers of the second kind."""
    if p == r:
        return 1
    if r == 0 or r > p:
        return 0
    return r * stirling2(p - 1, r) + stirling2(p - 1, r - 1)


def _check_oracle(op, limit):
    if op.N > limit:
        raise OracleLimitError(f"oracle limited to N <= {limit}, got N={op.N}")


def moments_oracle(op, a0, p, limit=ORACLE_LIMIT):
    """p-th raw moment from the fundamental matrix of the interior block.

    Factorial moments come from iterated (I-Q) solves,
    ``E[T^(r)] = r! a0 Q^(r-1) (I-Q)^(-r) 1``, and convert to raw moments
    with Stirling numbers.  Fully independent of the spectral route.
    """
    _check_oracle(op, limit)
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    N = op.N
    a = a0.a if hasattr(a0, "a") else a0
    interior = list(a[1:N])
    if all(v == 0 for v in interior):
        raise UndefinedMomentError(
            "initial distribution has no interior mass; consensus time is identically 0"
        )
    one = Fraction(1) if op.mode == EXACT else 1.0
    sub, diag, sup = _interior_tridiag(op)
    pr = op.p

    def apply_q(v):
        out = []
        for idx, j in enumerate(range(1, N)):
            val = (1 - 2 * pr[j]) * v[idx]
            if idx > 0:
                val += pr[j] * v[idx - 1]
            if idx < N - 2:
                val += pr[j] * v[idx + 1]
            out.append(val)
        return out

    w = _solve_tridiag(sub, diag, sup, [one] * (N - 1))
    factorial_moments = [sum(ai * wi for ai, wi in zip(interior, w))]
    for _ in range(2, p + 1):
        w = _solve_tridiag(sub, diag, sup, apply_q(w))
        factorial_moments.append(sum(ai * wi for ai, wi in zip(interior, w)))
    value = sum(
        stirling2(p, r) * factorial(r) * factorial_moments[r - 1] for r in range(1, p + 1)
    )
    return ConsensusMoment(p=p, value=value, method="fundamental-matrix-oracle")


def local_times_oracle(op, a0, limit=ORACLE_LIMIT):
    """Expected interior visit counts from the fundamental matrix.

    ``M_j = sum_i a0_i [(I-Q)^(-1)]_{ij}``, counting the m = 0 state, via a
    single transposed tridiagonal solve.
    """
    _check_oracle(op, limit)
    N = op.N
    a = a0.a if hasattr(a0, "a") else a0
    interior = list(a[1:N])
    sub, diag, sup = _interior_tridiag(op)
    # row vector through (I-Q)^(-1)  ==  solve with the transpose
    m = _solve_tridiag(sup, diag, sub, interior)
    return LocalTimes(N=N, M=tuple(m))


# ---------------------------------------------------------------------------
# Spectral local times
# ---------------------------------------------------------------------------


def local_times_exact(decomp, coords):
    """Closed-form local times ``N(N-1) sum_{k>=2} d_k/(k(k-1)) c^(k)``.

    Only interior components are returned; the consensus pairs drop out of
    the interior distribution and are discarded.
    """
    N = decomp.N
    scale = N * (N - 1)
    if decomp.mode == FLOAT:
        d = np.asarray(coords.d[2:], dtype=float)
        ks = np.arange(2, N + 1, dtype=float)
        C = np.array([pair.c[1:N] for pair in decomp.pairs[2:]])
        m = scale * (d / (ks * (ks - 1))) @ C
        return LocalTimes(N=N, M=tuple(m.tolist()))
    out = [Fraction(0)] * (N - 1)
    for k in range(2, N + 1):
        dk = coords.d[k]
        if dk == 0:
            continue
        w = Fraction(scale, k * (k - 1)) * dk
        cj = decomp.pairs[k].c
        for idx in range(N - 1):
            out[idx] += w * cj[idx + 1]
    return LocalTimes(N=N, M=tuple(out))


# ---------------------------------------------------------------------------
# Continuum limit
# ---------------------------------------------------------------------------


def hypergeometric_eigenfunction(k):
    """Terminating Gauss series 2F1(k+1, 2-k, 2, x) as polynomial coefficients.

    The parameter 2-k is a non-positive integer for k >= 2, so the series
    stops at degree k-2.  k in {0, 1} admit only the trivial solution.
    """
    if k < 2:
        raise ValueError(
            f"continuum eigenfunctions are trivial (identically 0) for k={k}; need k >= 2"
        )
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for n in range(k - 2):
        term *= Fraction((k + 1 + n) * (2 - k + n), (2 + n) * (1 + n))
        coeffs.append(term)
    return ContinuumEigenfunction(k=k, coeffs=tuple(coeffs))


def greens_kernel(rho, xi):
    """Local-time Green's kernel: (1-xi)/(1-rho) below the kink, xi/rho above."""
    if not 0 < rho < 1:
        raise ValueError(f"density must lie in (0, 1), got rho={rho}")
    if not 0 < xi < 1:
        raise ValueError(f"density must lie in (0, 1), got xi={xi}")
    if rho < xi:
        return (1 - xi) / (1 - rho)
    return xi / rho


def greens_local_time(f, rho, N, abs_tol=1e-10):
    """Continuum local time ``M(rho) ~ N int f(xi) g(rho, xi) dxi``.

    ``f`` is either ``("point", xi)``, ``"uniform"``, or a callable density
    on (0, 1) integrating to 1.  Point masses and the uniform density are
    closed form (``int_0^1 g(rho, xi) dxi = rho/2 + (1-rho)/2 = 1/2``);
    other densities use adaptive quadrature split at the kernel kink.
    """
    if not 0 < rho < 1:
        raise ValueError(f"density must lie in (0, 1), got rho={rho}")
    if isinstance(f, tuple) and f and f[0] == "point":
        return N * greens_kernel(rho, float(f[1]))
    if f == "uniform":
        return N / 2
    if not callable(f):
        raise ValueError(f"unsupported initial-density spec {f!r}")
    # scipy costs most of the package's import time and only this branch uses it
    from scipy.integrate import quad

    val, _ = quad(
        lambda xi: f(xi) * greens_kernel(rho, xi),
        0.0,
        1.0,
        points=[rho],
        epsabs=abs_tol,
        epsrel=1e-12,
        limit=200,
    )
    return N * val
