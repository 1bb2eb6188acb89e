"""Closed-form spectral decomposition of the voter-model macrostate chain.

On the complete graph with ``N`` nodes, the number of opinion-A holders
performs a lazy birth-death walk with rates ``p_j = j(N-j)/(N(N-1))`` and
absorbing boundaries at 0 and N.  The transition operator diagonalizes in
closed form: eigenvalues ``lambda_k = 1 - k(k-1)/(N(N-1))``, eigenvectors
obtained from a one-term recurrence in the shifted basis ``u = x - y``
followed by a signed binomial (Pascal) transform.

Everything here is computed in exact rational arithmetic; ``float`` mode
rounds the exact coefficients once at the end.  The alternating signs in
the Pascal transform make a direct floating-point evaluation useless for
moderate N, so there is no "native float" pipeline on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from numbers import Integral

import numpy as np

EXACT = "exact"
FLOAT = "float"

#: exact pairs are ~O(N^2) big rationals: every N up to this size stays
#: cached, while above it only the most recently built N is kept
_CACHE_MAX = 64

#: exact eigenpairs by population size, under the _CACHE_MAX policy
_pairs_cache = {}


class InvalidPopulationError(ValueError):
    """Raised when a population size below the minimum N >= 2 is given."""


class NormalizationError(ValueError):
    """Raised when an input vector is not a valid probability distribution."""


class NumericOverflowError(OverflowError, ValueError):
    """Raised when coefficients exceed the float range; use exact mode."""


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its eigenvector in both coefficient bases.

    ``b`` holds the coefficients in the shifted u-basis (zero below index
    k, unity at index k for k >= 2); ``c`` holds the macrostate-space
    eigenvector components.
    """

    k: int
    lam: object
    b: tuple
    c: tuple


@dataclass(frozen=True)
class SpectralDecomposition:
    N: int
    mode: str
    pairs: tuple

    @property
    def eigenvalues(self):
        return tuple(p.lam for p in self.pairs)


@dataclass(frozen=True)
class EigenCoordinates:
    """Coordinates of an initial distribution in the eigenbasis."""

    d: tuple


def _check_population(N):
    if not isinstance(N, Integral):
        raise InvalidPopulationError(f"population size must be an integer, got {N!r}")
    if N < 2:
        raise InvalidPopulationError(f"population size must be >= 2, got {N}")
    return int(N)


def _check_mode(mode):
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}, got {mode!r}")
    return mode


def _to_float(value, what):
    try:
        out = float(value)
    except OverflowError as exc:
        raise NumericOverflowError(
            f"{what} exceeds the double-precision range; use exact mode"
        ) from exc
    if out in (float("inf"), float("-inf")):
        raise NumericOverflowError(
            f"{what} exceeds the double-precision range; use exact mode"
        )
    return out


def eigenvalue(N, k):
    """Exact eigenvalue ``1 - k(k-1)/(N(N-1))`` as a Fraction."""
    return 1 - Fraction(k * (k - 1), N * (N - 1))


def eigenvalues(N, mode=EXACT):
    """All N+1 eigenvalues in index order k = 0..N.

    k = 0, 1 give the doubly degenerate eigenvalue 1 (the two absorbing
    states); k = N gives 0.
    """
    N = _check_population(N)
    _check_mode(mode)
    vals = [eigenvalue(N, k) for k in range(N + 1)]
    if mode == FLOAT:
        return tuple(float(v) for v in vals)
    return tuple(vals)


def b_coefficients(N, k):
    """u-basis eigenvector coefficients for index k, normalized to b_k = 1.

    ``b_j = 0`` for j < k and, for j > k,
    ``b_j = prod_{i=k+1}^{j} (i-1)(N-i+1) / (i(i-1) - k(k-1))``.
    """
    N = _check_population(N)
    if not 2 <= k <= N:
        raise IndexError(f"b-coefficient index k must satisfy 2 <= k <= N, got k={k}")
    ints, den = _b_integers(N, k)
    return tuple(Fraction(v, den) for v in ints)


def _b_integers(N, k):
    """b-coefficients with denominators cleared: returns (D*b_j as ints, D).

    D is the full denominator product, so the transform to c can stay in
    integer arithmetic (big-int products are far cheaper than repeated
    Fraction normalization).
    """
    den = 1
    for i in range(k + 1, N + 1):
        den *= i * (i - 1) - k * (k - 1)
    ints = [0] * (N + 1)
    ints[k] = den
    cur = den
    for j in range(k + 1, N + 1):
        # exact: the step divisor is a factor of the remaining denominator
        cur = cur * (j - 1) * (N - j + 1) // (j * (j - 1) - k * (k - 1))
        ints[j] = cur
    return ints, den


def binomial_transform(b):
    """Signed Pascal transform ``c_j = sum_{i>=j} (-1)^(i-j) b_i C(i,j)``."""
    n = len(b) - 1
    return tuple(
        sum((-1) ** (i - j) * b[i] * comb(i, j) for i in range(j, n + 1))
        for j in range(n + 1)
    )


def inverse_binomial_transform(c):
    """Unsigned Pascal transform ``b_j = sum_{i>=j} c_i C(i,j)``.

    Exact inverse of :func:`binomial_transform` (Pascal-matrix involution).
    """
    n = len(c) - 1
    return tuple(
        sum(c[i] * comb(i, j) for i in range(j, n + 1)) for j in range(n + 1)
    )


def _consensus_pair(N, k):
    """The two lambda = 1 eigenvectors, fixed as the absorbing indicators.

    The b-recurrence is degenerate for k in {0, 1}; the indicator choice
    e_0 / e_N makes the first two eigencoordinates the asymptotic consensus
    probabilities.
    """
    c = [Fraction(0)] * (N + 1)
    c[0 if k == 0 else N] = Fraction(1)
    b = inverse_binomial_transform(c)
    return EigenPair(k=k, lam=Fraction(1), b=tuple(b), c=tuple(c))


def _interior_pair(N, k):
    b_ints, den = _b_integers(N, k)
    c_ints = [
        sum((-1) ** (i - j) * b_ints[i] * comb(i, j) for i in range(max(j, k), N + 1))
        for j in range(N + 1)
    ]
    b = tuple(Fraction(v, den) for v in b_ints)
    c = tuple(Fraction(v, den) for v in c_ints)
    _verify_residual(N, k, c_ints)
    return EigenPair(k=k, lam=eigenvalue(N, k), b=b, c=c)


def _verify_residual(N, k, c_ints):
    """Exact eigen-equation check, denominators cleared.

    Row j of N(N-1) * (P - lambda_k I), applied to the integer-scaled c,
    must vanish identically.
    """
    M = N * (N - 1)
    shift = M - k * (k - 1)  # N(N-1) * lambda_k
    for j in range(N + 1):
        lhs = (M - 2 * j * (N - j)) * c_ints[j]
        if j > 0:
            lhs += (j - 1) * (N - j + 1) * c_ints[j - 1]
        if j < N:
            lhs += (j + 1) * (N - j - 1) * c_ints[j + 1]
        if lhs != shift * c_ints[j]:
            raise AssertionError(
                f"eigen-equation residual nonzero at N={N}, k={k}, j={j}"
            )


def _exact_pairs(N):
    pairs = _pairs_cache.get(N)
    if pairs is None:
        if N > _CACHE_MAX:
            # free the previous large N first, so two never coexist in memory
            for n in [n for n in _pairs_cache if n > _CACHE_MAX]:
                del _pairs_cache[n]
        pairs = [_consensus_pair(N, 0), _consensus_pair(N, 1)]
        pairs.extend(_interior_pair(N, k) for k in range(2, N + 1))
        pairs = _pairs_cache[N] = tuple(pairs)
    return pairs


def build_decomposition(N, mode=EXACT):
    """Full spectral decomposition for population N.

    Pairs k = 0, 1 are the consensus indicators e_0 and e_N with
    eigenvalue 1; pairs k = 2..N come from the b-recurrence and the signed
    Pascal transform.  Every pair is verified against the eigen-equation
    exactly during construction.
    """
    N = _check_population(N)
    _check_mode(mode)
    pairs = _exact_pairs(N)
    if mode == EXACT:
        return SpectralDecomposition(N=N, mode=EXACT, pairs=pairs)
    fpairs = tuple(
        EigenPair(
            k=p.k,
            lam=float(p.lam),
            b=tuple(_to_float(v, f"b-coefficient (N={N}, k={p.k})") for v in p.b),
            c=tuple(_to_float(v, f"eigenvector component (N={N}, k={p.k})") for v in p.c),
        )
        for p in pairs
    )
    return SpectralDecomposition(N=N, mode=FLOAT, pairs=fpairs)


def _validate_distribution(a, N, mode):
    if len(a) != N + 1:
        raise NormalizationError(
            f"distribution must have length N+1 = {N + 1}, got {len(a)}"
        )
    vals = [Fraction(x) if not isinstance(x, Fraction) else x for x in a]
    total = sum(vals)
    if mode == EXACT:
        if total != 1:
            raise NormalizationError(f"distribution sums to {total}, expected exactly 1")
        if any(v < 0 for v in vals):
            raise NormalizationError("distribution has negative entries")
    else:
        if abs(total - 1) > Fraction(1, 10**12):
            raise NormalizationError(
                f"distribution sums to {float(total)!r}, expected 1 within 1e-12"
            )
        if any(v < Fraction(-1, 10**12) for v in vals):
            raise NormalizationError("distribution has entries below -1e-12")
    return vals


def to_coordinates(decomp, a0):
    """Expand an initial distribution in the eigenbasis.

    Works in the u-basis: the unsigned Pascal transform of ``a0`` equals
    the b-coefficient matrix times d, which is solvable by forward
    substitution (row 1 pins d_1, row 0 pins d_0, rows j >= 2 are unit
    triangular in d_j).  The dense eigenvector matrix is never formed.
    """
    N = decomp.N
    a = getattr(a0, "a", a0)
    vals = _validate_distribution(a, N, decomp.mode)
    pairs = _exact_pairs(N)
    atil = inverse_binomial_transform(vals)
    d = [Fraction(0)] * (N + 1)
    d[1] = Fraction(atil[1], N)
    d[0] = atil[0] - d[1]
    for j in range(2, N + 1):
        acc = atil[j] - comb(N, j) * d[1]
        for k in range(2, j):
            acc -= pairs[k].b[j] * d[k]
        d[j] = acc
    if decomp.mode == FLOAT:
        return EigenCoordinates(
            d=tuple(_to_float(v, f"eigencoordinate d_{k}") for k, v in enumerate(d))
        )
    return EigenCoordinates(d=tuple(d))


def reconstruct(decomp, coords):
    """Sum ``d_k c^(k)`` back to macrostate space (inverse of to_coordinates)."""
    N = decomp.N
    if decomp.mode == FLOAT:
        c_matrix = np.array([p.c for p in decomp.pairs], dtype=float)
        return np.asarray(coords.d, dtype=float) @ c_matrix
    out = [Fraction(0)] * (N + 1)
    for dk, pair in zip(coords.d, decomp.pairs):
        if dk == 0:
            continue
        for j in range(N + 1):
            out[j] += dk * pair.c[j]
    return tuple(out)
