"""Tridiagonal single-step transition operator and m-step propagation.

Distributions over macrostates j = 0..N evolve under

    a_j' = p_{j-1} a_{j-1} + (1 - 2 p_j) a_j + p_{j+1} a_{j+1},

with absorbing boundary rows (p_0 = p_N = 0).  Propagation is available
either step-by-step (the brute-force oracle) or in closed form through
the spectral decomposition, ``a^(m) = sum_k d_k lambda_k^m c^(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import (
    EXACT,
    FLOAT,
    _check_mode,
    _check_population,
    _validate_distribution,
)

#: largest N accepted by the step-by-step oracle
ORACLE_LIMIT = 256

#: largest m for exact rational eigenvalue powers (digit count grows with m)
EXACT_STEP_CAP = 100_000


class OracleLimitError(ValueError):
    """Raised when a brute-force oracle is asked for a population too large."""


@dataclass(frozen=True)
class TransitionOperator:
    """Single-step operator, stored as its tridiagonal rate sequence p_j."""

    N: int
    mode: str
    p: tuple


@dataclass(frozen=True)
class MacrostateDistribution:
    """Probability vector over macrostates with its time index."""

    a: tuple
    step: int = 0

    @property
    def N(self):
        return len(self.a) - 1

    def mean(self):
        return sum(j * aj for j, aj in enumerate(self.a))


def transition_rates(N, mode=EXACT):
    """Rates ``p_j = j(N-j)/(N(N-1))`` for j = 0..N."""
    N = _check_population(N)
    _check_mode(mode)
    M = N * (N - 1)
    rates = tuple(Fraction(j * (N - j), M) for j in range(N + 1))
    if mode == FLOAT:
        return tuple(float(r) for r in rates)
    return rates


def transition_operator(N, mode=EXACT):
    return TransitionOperator(N=_check_population(N), mode=mode, p=transition_rates(N, mode))


def make_distribution(a, step=0, mode=EXACT):
    """Validate and wrap a probability vector (no silent rescaling)."""
    if mode == EXACT:
        vals = tuple(Fraction(x) for x in a)
        _validate_distribution(vals, len(vals) - 1, EXACT)
        return MacrostateDistribution(a=vals, step=step)
    arr = tuple(float(x) for x in a)
    _validate_distribution(arr, len(arr) - 1, FLOAT)
    return MacrostateDistribution(a=arr, step=step)


def delta_distribution(N, j, mode=EXACT):
    """Point mass at macrostate j."""
    N = _check_population(N)
    if not 0 <= j <= N:
        raise ValueError(f"macrostate index must be in 0..{N}, got {j}")
    one, zero = (Fraction(1), Fraction(0)) if mode == EXACT else (1.0, 0.0)
    a = [zero] * (N + 1)
    a[j] = one
    return MacrostateDistribution(a=tuple(a))


def uniform_distribution(N, mode=EXACT):
    N = _check_population(N)
    v = Fraction(1, N + 1) if mode == EXACT else 1.0 / (N + 1)
    return MacrostateDistribution(a=(v,) * (N + 1))


def single_step(op, dist):
    """Apply the propagator once.

    Boundary rows reduce to ``a_0' = a_0 + p_1 a_1`` and
    ``a_N' = a_N + p_{N-1} a_{N-1}``.
    """
    a = dist.a
    N = op.N
    if len(a) != N + 1:
        raise ValueError(f"distribution length {len(a)} does not match N={N}")
    p = op.p
    if op.mode == FLOAT:
        arr = np.asarray(a, dtype=float)
        pr = np.asarray(p, dtype=float)
        out = (1.0 - 2.0 * pr) * arr
        out[:-1] += pr[1:] * arr[1:]
        out[1:] += pr[:-1] * arr[:-1]
        return MacrostateDistribution(a=tuple(out.tolist()), step=dist.step + 1)
    out = []
    for j in range(N + 1):
        v = (1 - 2 * p[j]) * a[j]
        if j > 0:
            v += p[j - 1] * a[j - 1]
        if j < N:
            v += p[j + 1] * a[j + 1]
        out.append(v)
    return MacrostateDistribution(a=tuple(out), step=dist.step + 1)


def dense_oracle(op, a0, m, limit=ORACLE_LIMIT):
    """Ground truth by m-fold application of single_step."""
    if op.N > limit:
        raise OracleLimitError(f"oracle limited to N <= {limit}, got N={op.N}")
    if m < 0:
        raise ValueError("step count must be >= 0")
    dist = a0
    for _ in range(m):
        dist = single_step(op, dist)
    return dist


def propagate_spectral(decomp, coords, m):
    """Closed-form m-step distribution ``sum_k d_k lambda_k^m c^(k)``."""
    if m < 0:
        raise ValueError("step count must be >= 0")
    N = decomp.N
    if decomp.mode == FLOAT:
        d = np.asarray(coords.d, dtype=float)
        lams = np.array([p.lam for p in decomp.pairs])
        C = np.array([p.c for p in decomp.pairs])
        a = (d * lams**m) @ C
        return MacrostateDistribution(a=tuple(a.tolist()), step=m)
    if m > EXACT_STEP_CAP:
        raise ValueError(
            f"exact-mode step count capped at {EXACT_STEP_CAP} "
            "(rational powers grow without bound); use float mode"
        )
    out = [Fraction(0)] * (N + 1)
    for dk, pair in zip(coords.d, decomp.pairs):
        if dk == 0:
            continue
        w = dk * pair.lam**m
        if w == 0:
            continue
        for j in range(N + 1):
            out[j] += w * pair.c[j]
    return MacrostateDistribution(a=tuple(out), step=m)

