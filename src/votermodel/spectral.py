"""Closed-form spectral decomposition of the voter-model macrostate chain.

On the complete graph with ``N`` nodes, the number of opinion-A holders
performs a lazy birth-death walk with rates ``p_j = j(N-j)/(N(N-1))`` and
absorbing boundaries at 0 and N.  The transition operator diagonalizes in
closed form: eigenvalues ``lambda_k = 1 - k(k-1)/(N(N-1))``.  In the
shifted basis ``u = x - y`` the operator is lower bidiagonal, so the
u-basis eigenvectors b (one-term recurrence) and the left eigenvectors
(product form) are explicit.  The macrostate eigenvectors c are the signed
binomial (Pascal) transform of b.  Only c is stored: it is computed from
the eigen-equation itself, read as a three-term recurrence that needs just
the last component of b, and every pair is re-checked against all rows of
that equation.  The coordinates come from the left eigenvectors, and b
itself is kept only as the paper's Pascal route (:func:`b_coefficients`,
:func:`binomial_transform`) for the tests to compare against.

Everything is computed in integer arithmetic with denominators cleared.
Exact mode turns the integers into Fractions; float mode rounds each ratio
once (Python's int true division is correctly rounded), so it gives the
same doubles as rounding the exact Fractions.  The alternating signs of c
make a direct floating-point evaluation useless for moderate N, so there
is no "native float" pipeline on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from numbers import Integral

EXACT = "exact"
FLOAT = "float"

#: pairs are ~O(N^2) numbers (big rationals in exact mode): every N up to
#: this size stays cached, while above it only the most recently built N is
#: kept (in both modes)
_CACHE_MAX = 64

#: eigenpairs keyed by (N, mode), under the _CACHE_MAX policy
_pairs_cache = {}


class InvalidPopulationError(ValueError):
    """Raised when a population size below the minimum N >= 2 is given."""


class NormalizationError(ValueError):
    """Raised when an input vector is not a valid probability distribution."""


class NumericOverflowError(OverflowError, ValueError):
    """Raised when a float-mode coefficient exceeds the double range.

    Which route avoids it depends on the caller: exact mode, the
    tridiagonal oracles, or step-by-step propagation.
    """


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its macrostate-space eigenvector components c."""

    k: int
    lam: object
    c: tuple


@dataclass(frozen=True)
class SpectralDecomposition:
    N: int
    mode: str
    pairs: tuple


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


def _to_float(num, den, what):
    """``num / den`` as the nearest double.

    Python's int true division is correctly rounded, so this equals
    ``float(Fraction(num, den))`` without building the Fraction.
    """
    try:
        return num / den
    except OverflowError as exc:
        raise NumericOverflowError(
            f"{what} exceeds the double-precision range"
        ) from exc


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
    K = k * (k - 1)
    b = [Fraction(0)] * (N + 1)
    b[k] = Fraction(1)
    for j in range(k + 1, N + 1):
        b[j] = b[j - 1] * Fraction((j - 1) * (N - j + 1), j * (j - 1) - K)
    return tuple(b)


def _c_integers(N, k, top):
    """D*c for pair k >= 2 from the eigen-equation, given D*c_N = D*b_N = top.

    Row j of N(N-1) * (P - lambda_k I) c = 0, with K = k(k-1), reads
    ``(j-1)(N-j+1) c_{j-1} = (2j(N-j) - K) c_j - (j+1)(N-j-1) c_{j+1}``;
    rows N, N-1, ..., 2 give c_{N-1}, ..., c_1 and row 0 gives
    ``c_0 = -(N-1) c_1 / K``.  With D the full denominator product of b,
    D*c is the signed Pascal transform of the integers D*b, so every
    division is exact; row 1 is left unused, and _verify_residual re-checks
    all rows.
    """
    K = k * (k - 1)
    c = [0] * (N + 1)
    c[N] = top
    c[N - 1] = -K * top // (N - 1)
    for j in range(N - 1, 1, -1):
        c[j - 1] = (
            (2 * j * (N - j) - K) * c[j] - (j + 1) * (N - j - 1) * c[j + 1]
        ) // ((j - 1) * (N - j + 1))
    c[0] = -(N - 1) * c[1] // K
    return c


def binomial_transform(b):
    """Signed Pascal transform ``c_j = sum_{i>=j} (-1)^(i-j) b_i C(i,j)``.

    This is the paper's route from b to c; the eigenpair build uses the
    eigen-equation instead, and the tests compare the two.
    """
    n = len(b) - 1
    return tuple(
        sum((-1) ** (i - j) * b[i] * comb(i, j) for i in range(j, n + 1))
        for j in range(n + 1)
    )


def inverse_binomial_transform(c):
    """Unsigned Pascal transform ``b_j = sum_{i>=j} c_i C(i,j)``.

    Exact inverse of :func:`binomial_transform` (Pascal-matrix involution).
    The b_j are the coefficients of ``sum_i c_i (1+x)^i``, expanded by
    Horner's rule with additions only.
    """
    b = []
    for ci in reversed(c):
        b = [ci + b[0], *(x + y for x, y in zip(b, b[1:])), b[-1]] if b else [ci]
    return tuple(b)


def _make_pair(N, k, lam, c_ints, den, mode):
    """EigenPair with c = c_ints / den in ``mode``."""
    if mode == EXACT:
        return EigenPair(k=k, lam=lam, c=tuple(Fraction(v, den) for v in c_ints))
    what = f"eigenvector component (N={N}, k={k})"
    return EigenPair(
        k=k, lam=float(lam), c=tuple(_to_float(v, den, what) for v in c_ints)
    )


def _consensus_pair(N, k, mode):
    """The two lambda = 1 eigenvectors, fixed as the absorbing indicators.

    The b-recurrence is degenerate for k in {0, 1}; the indicator choice
    e_0 / e_N makes the first two eigencoordinates the asymptotic consensus
    probabilities.
    """
    c = [0] * (N + 1)
    c[0 if k == 0 else N] = 1
    return _make_pair(N, k, Fraction(1), c, 1, mode)


def _interior_pair(N, k, mode):
    K = k * (k - 1)
    # D = prod (i(i-1) - K) clears the denominators of b, and
    # D*b_N = prod (i-1)(N-i+1) is all the c-recurrence needs of b
    den = top = 1
    for i in range(k + 1, N + 1):
        den *= i * (i - 1) - K
        top *= (i - 1) * (N - i + 1)
    c_ints = _c_integers(N, k, top)
    _verify_residual(N, k, c_ints)
    return _make_pair(N, k, eigenvalue(N, k), c_ints, den, mode)


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


def build_decomposition(N, mode=EXACT):
    """Full spectral decomposition for population N.

    Pairs k = 0, 1 are the consensus indicators e_0 and e_N with
    eigenvalue 1; pairs k = 2..N come from the three-term eigen-equation
    recurrence for c, in cleared-denominator integers.  Every interior pair
    is verified against the eigen-equation exactly during construction, in
    both modes.  Float pairs are rounded from those integers directly (no
    Fractions).  The interior pairs are built from k = N down, because
    ``c^(N)_j = (-1)^(N-j) C(N, j)`` has the largest entries, so an N whose
    coefficients overflow a double (N >= 1030) fails on the first pair
    built.  The cached tuple is in k order, per (N, mode).
    """
    N = _check_population(N)
    _check_mode(mode)
    pairs = _pairs_cache.get((N, mode))
    if pairs is None:
        if N > _CACHE_MAX:
            # free the previous large N first, so two never coexist in memory
            for key in [key for key in _pairs_cache if key[0] > _CACHE_MAX and key[0] != N]:
                del _pairs_cache[key]
        interior = [_interior_pair(N, k, mode) for k in range(N, 1, -1)]
        pairs = _pairs_cache[N, mode] = (
            _consensus_pair(N, 0, mode), _consensus_pair(N, 1, mode), *reversed(interior)
        )
    return SpectralDecomposition(N=N, mode=mode, pairs=pairs)


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

    Works in the u-basis, where the unsigned Pascal transform ``t`` of
    ``a0`` equals ``sum_k d_k b^(k)``.  Row 1 pins ``d_1 = t_1 / N`` and
    row 0 pins ``d_0 = t_0 - d_1``.  For k >= 2, with K = k(k-1), the left
    eigenvector of the bidiagonal u-basis operator,
    ``l_j = prod_{i=j+1}^{k} (i-1)(N-i+1) / ((i-1)(i-2) - K)`` for
    1 <= j <= k and zero elsewhere, annihilates every other b^(k') and has
    ``l . b^(k) = 1``, so ``d_k = sum_{j=1}^{k} l_j t_j``.  That sum is
    evaluated by Horner's rule in integers over the common denominator of
    ``a0``, with one Fraction per k.  No eigenvector and no dense matrix is
    read or formed.
    """
    N = decomp.N
    a = getattr(a0, "a", a0)
    vals = _validate_distribution(a, N, decomp.mode)
    L = lcm(*(v.denominator for v in vals))
    t = inverse_binomial_transform([v.numerator * (L // v.denominator) for v in vals])
    d = [Fraction(N * t[0] - t[1], N * L), Fraction(t[1], N * L)]
    for k in range(2, N + 1):
        K = k * (k - 1)
        num, den = t[1], 1
        for i in range(2, k + 1):
            den *= (i - 1) * (i - 2) - K  # never 0 for i <= k
            num = t[i] * den + (i - 1) * (N - i + 1) * num
        d.append(Fraction(num, den * L))
    if decomp.mode == FLOAT:
        return EigenCoordinates(d=tuple(
            _to_float(v.numerator, v.denominator, f"eigencoordinate d_{k}")
            for k, v in enumerate(d)
        ))
    return EigenCoordinates(d=tuple(d))
