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
from math import gcd, lcm

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


def _steps(op, a, m):
    """``a`` after m steps, the one step kernel behind both step routes.

    Exact mode carries integers over one denominator: with D the lcm of
    the rate denominators and ``r_j = D p_j``, one step reads
    ``D a'_j = (D - 2 r_j) a_j + r_{j-1} a_{j-1} + r_{j+1} a_{j+1}``, so
    the numerators over ``L D^m`` evolve in integers and each entry
    becomes one Fraction at the end.  Float mode keeps numpy arrays
    across the steps and makes one tuple at the end.
    """
    N = op.N
    if len(a) != N + 1:
        raise ValueError(f"distribution length {len(a)} does not match N={N}")
    if op.mode == FLOAT:
        pr = np.asarray(op.p, dtype=float)
        stay, down, up = 1.0 - 2.0 * pr, pr[1:], pr[:-1]
        arr = np.asarray(a, dtype=float)
        for _ in range(m):
            out = stay * arr
            out[:-1] += down * arr[1:]
            out[1:] += up * arr[:-1]
            arr = out
        return tuple(arr.tolist())
    D = lcm(*(pj.denominator for pj in op.p))
    r = [pj.numerator * (D // pj.denominator) for pj in op.p]
    stay = [D - 2 * rj for rj in r]
    L = lcm(*(v.denominator for v in a))
    x = [v.numerator * (L // v.denominator) for v in a]
    for _ in range(m):
        x = [
            stay[j] * x[j]
            + (r[j - 1] * x[j - 1] if j > 0 else 0)
            + (r[j + 1] * x[j + 1] if j < N else 0)
            for j in range(N + 1)
        ]
    den = L * D**m
    return tuple(Fraction(v, den) for v in x)


def single_step(op, dist):
    """Apply the propagator once.

    Boundary rows reduce to ``a_0' = a_0 + p_1 a_1`` and
    ``a_N' = a_N + p_{N-1} a_{N-1}``.
    """
    return MacrostateDistribution(a=_steps(op, dist.a, 1), step=dist.step + 1)


def _check_oracle(op, limit):
    if op.N > limit:
        raise OracleLimitError(f"oracle limited to N <= {limit}, got N={op.N}")


def dense_oracle(op, a0, m, limit=ORACLE_LIMIT):
    """Ground truth by m steps of the single-step kernel."""
    _check_oracle(op, limit)
    if m < 0:
        raise ValueError("step count must be >= 0")
    if m == 0:
        return a0
    return MacrostateDistribution(a=_steps(op, a0.a, m), step=a0.step + m)


def _eigen_sum(decomp, weights):
    """``sum_k w_k c^(k)_j`` for j = 0..N, with one weight per pair k.

    The one eigenvector sum behind propagation and local times.  Zero
    weights are skipped.  Float mode is the plain loop.  Exact mode adds
    the consensus pairs k = 0, 1 (the indicators e_0 and e_N) at their one
    entry, and sums the interior pairs in integers: with L the lcm of the
    denominators ``w_k.denominator * den_k``, ``f_k = w_k L / den_k`` and
    G = gcd(f_k), entry j is ``(G/L) sum_k (f_k/G) num_kj``, one division
    per entry.  The chain is symmetric under j -> N - j, so
    ``c^(k)_{N-j} = (-1)^k c^(k)_j``: the even-k and odd-k parts are summed
    over j <= N/2 only, and the upper half is their difference.
    """
    N = decomp.N
    weights = list(weights)
    if decomp.mode != EXACT:
        out = [0.0] * (N + 1)
        for w, pair in zip(weights, decomp.pairs):
            if w != 0:
                out = [o + w * cj for o, cj in zip(out, pair.num)]
        return tuple(out)
    terms = [
        (w, pair) for w, pair in zip(weights[2:], decomp.pairs[2:]) if w != 0
    ]
    out = [Fraction(0)] * (N + 1)
    if terms:
        L = lcm(*(w.denominator * pair.den for w, pair in terms))
        f = [w.numerator * (L // (w.denominator * pair.den)) for w, pair in terms]
        G = gcd(*f)
        h = N // 2 + 1
        parts = ([0] * h, [0] * h)  # even k, odd k; entries j = 0..N//2
        for fk, (_, pair) in zip(f, terms):
            fk //= G
            part = parts[pair.k % 2]
            part[:] = [s + fk * v for s, v in zip(part, pair.num[:h])]
        even, odd = parts
        acc = [e + o for e, o in zip(even, odd)]
        acc += [even[i] - odd[i] for i in range(N - h, -1, -1)]
        scale = Fraction(G, L)
        out = [scale * s for s in acc]
    out[0] += weights[0]
    out[N] += weights[1]
    return tuple(out)


def propagate_spectral(decomp, coords, m):
    """Closed-form m-step distribution ``sum_k d_k lambda_k^m c^(k)``."""
    if m < 0:
        raise ValueError("step count must be >= 0")
    if decomp.mode == EXACT and m > EXACT_STEP_CAP:
        raise ValueError(
            f"exact-mode step count capped at {EXACT_STEP_CAP} "
            "(rational powers grow without bound); use float mode"
        )
    weights = (0 if dk == 0 else dk * pair.lam**m for dk, pair in zip(coords.d, decomp.pairs))
    return MacrostateDistribution(a=_eigen_sum(decomp, weights), step=m)
