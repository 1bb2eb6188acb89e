"""Network families: complete, complete bipartite, and explicit graphs.

Provides degree moments, spectral-gap estimates, and the continuum
consensus-time scales used both for Monte Carlo censoring caps and for
the scaling validations.  Complete and bipartite graphs are stored
implicitly: the simulator runs the complete graph as an urn and builds a
two-segment neighbor table for a bipartite graph per run.  Explicit graphs
carry a CSR adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

COMPLETE = "complete"
BIPARTITE = "complete-bipartite"
EXPLICIT = "explicit"

ER_RETRY_BUDGET = 1000


class GraphGenerationError(RuntimeError):
    """Raised when the random-graph retry budget is exhausted."""


@dataclass(frozen=True)
class Topology:
    kind: str
    N: int
    degrees: tuple
    #: (N1, N2) for bipartite graphs, else None
    groups: tuple | None = None
    #: CSR adjacency for explicit graphs, else None
    indptr: tuple | None = None
    indices: tuple | None = None


@dataclass(frozen=True)
class DegreeMoments:
    mu1: float
    mu2: float


@dataclass(frozen=True)
class GapEstimate:
    """Spectral-gap value 1 - lambda_2, exact or order-of-magnitude."""

    gap: float
    family: str
    order_estimate: bool


def generate_complete(N):
    if N < 2:
        raise ValueError(f"complete graph needs N >= 2, got {N}")
    return Topology(kind=COMPLETE, N=N, degrees=(N - 1,) * N)


def generate_bipartite(N1, N2):
    if N1 < 1 or N2 < 1:
        raise ValueError(f"bipartite groups must be non-empty, got ({N1}, {N2})")
    return Topology(
        kind=BIPARTITE,
        N=N1 + N2,
        degrees=(N2,) * N1 + (N1,) * N2,
        groups=(N1, N2),
    )


def _csr_from_adjacency(N, adj):
    indptr = [0]
    indices = []
    for i in range(N):
        indices.extend(sorted(adj[i]))
        indptr.append(len(indices))
    return tuple(indptr), tuple(indices)


def _is_connected(N, adj):
    if N == 0:
        return False
    seen = bytearray(N)
    stack = [0]
    seen[0] = 1
    count = 1
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = 1
                count += 1
                stack.append(j)
    return count == N


def generate_er(N, p_link, seed, retries=ER_RETRY_BUDGET):
    """Erdos-Renyi graph G(N, p), resampled until connected.

    Deterministic given (N, p_link, seed): attempt t uses the derived
    stream SeedSequence((seed, t)).  Raises after the retry budget since
    the voter dynamics presuppose a connected graph.
    """
    if not 0 < p_link <= 1:
        raise ValueError(f"link probability must be in (0, 1], got {p_link}")
    if N < 2:
        raise ValueError(f"need N >= 2 nodes, got {N}")
    for attempt in range(retries):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), attempt)))
        adj = [[] for _ in range(N)]
        # row i draws the pairs (i, j > i): one stream in np.triu_indices
        # order, without materializing all N(N-1)/2 pairs at once
        for i in range(N - 1):
            row = (np.flatnonzero(rng.random(N - 1 - i) < p_link) + i + 1).tolist()
            adj[i].extend(row)
            for j in row:
                adj[j].append(i)
        if not _is_connected(N, adj):
            continue
        indptr, indices = _csr_from_adjacency(N, adj)
        degrees = tuple(indptr[i + 1] - indptr[i] for i in range(N))
        return Topology(kind=EXPLICIT, N=N, degrees=degrees, indptr=indptr, indices=indices)
    raise GraphGenerationError(
        f"no connected G({N}, {p_link}) found in {retries} attempts for seed {seed}"
    )


def from_edge_list(lines):
    """Parse the edge-list text format: first line 'N M', then M lines 'i j'."""
    it = iter(lines)
    try:
        header = next(it).split()
        N, M = int(header[0]), int(header[1])
    except (StopIteration, IndexError, ValueError) as exc:
        raise ValueError("edge-list header must be 'N M'") from exc
    adj = [set() for _ in range(N)]
    count = 0
    for line in it:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        i, j = (int(tok) for tok in line.split())
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (0 <= i < N and 0 <= j < N):
            raise ValueError(f"edge ({i}, {j}) outside node range 0..{N - 1}")
        if j in adj[i]:
            raise ValueError(f"duplicate edge ({i}, {j})")
        adj[i].add(j)
        adj[j].add(i)
        count += 1
    if count != M:
        raise ValueError(f"edge-list declares {M} edges but contains {count}")
    if not _is_connected(N, [list(s) for s in adj]):
        raise ValueError("edge-list graph is not connected")
    indptr, indices = _csr_from_adjacency(N, adj)
    degrees = tuple(indptr[i + 1] - indptr[i] for i in range(N))
    return Topology(kind=EXPLICIT, N=N, degrees=degrees, indptr=indptr, indices=indices)


def degree_moments(topo):
    degs = topo.degrees
    mu1 = Fraction(sum(degs), topo.N)
    mu2 = Fraction(sum(d * d for d in degs), topo.N)
    return DegreeMoments(mu1=mu1, mu2=mu2)


def gap_estimate(topo):
    """Spectral gap 1 - lambda_2 per family.

    Exact ``2/(N(N-1))`` on the complete graph; order estimates with unit
    constant elsewhere (``1/(N1 N2)`` bipartite, ``mu2/(N^2 mu1^2)``
    heterogeneous) -- the scaling exponent is the testable claim, not the
    constant.
    """
    if topo.kind == COMPLETE:
        return GapEstimate(
            gap=Fraction(2, topo.N * (topo.N - 1)), family=COMPLETE, order_estimate=False
        )
    if topo.kind == BIPARTITE:
        n1, n2 = topo.groups
        return GapEstimate(gap=Fraction(1, n1 * n2), family=BIPARTITE, order_estimate=True)
    mom = degree_moments(topo)
    return GapEstimate(
        gap=mom.mu2 / (topo.N**2 * mom.mu1**2), family=EXPLICIT, order_estimate=True
    )


def entropy_factor(rho):
    """The consensus-time shape factor (1-rho)ln(1/(1-rho)) + rho ln(1/rho)."""
    if not 0 < rho < 1:
        raise ValueError(f"initial density must lie strictly in (0, 1), got {rho}")
    return (1 - rho) * math.log(1 / (1 - rho)) + rho * math.log(1 / rho)


def consensus_scale(topo, density):
    """Continuum estimate of the expected iterations to consensus.

    ``N^2 H(rho)`` on the complete graph, ``4 N1 N2 H(omega)`` on the
    bipartite graph (omega is the degree-weighted opinion density), and
    the order scale ``N^2 mu1^2/mu2 H(rho)`` for heterogeneous networks.
    """
    h = entropy_factor(density)
    if topo.kind == COMPLETE:
        return topo.N**2 * h
    if topo.kind == BIPARTITE:
        n1, n2 = topo.groups
        return 4 * n1 * n2 * h
    mom = degree_moments(topo)
    return float(topo.N**2 * mom.mu1**2 / mom.mu2) * h
