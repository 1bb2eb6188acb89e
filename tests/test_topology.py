"""Network families, degree moments, and spectral-gap estimates."""

import math

import numpy as np
import pytest
from fractions import Fraction

from votermodel import (
    Topology,
    consensus_scale,
    degree_moments,
    from_edge_list,
    gap_estimate,
    generate_bipartite,
    generate_complete,
    generate_er,
)
from votermodel.topology import (
    BIPARTITE,
    COMPLETE,
    ER_RETRY_BUDGET,
    EXPLICIT,
    GraphGenerationError,
    _csr_from_adjacency,
    _is_connected,
    entropy_factor,
)


class TestGenerators:
    def test_complete(self):
        topo = generate_complete(5)
        assert topo.kind == COMPLETE
        assert topo.degrees == (4, 4, 4, 4, 4)
        assert sum(topo.degrees) // 2 == 10
        # every other node is a neighbor, so no adjacency is stored
        assert topo.groups is None and topo.indptr is None and topo.indices is None

    def test_bipartite(self):
        topo = generate_bipartite(2, 3)
        assert topo.kind == BIPARTITE
        assert topo.N == 5
        assert topo.degrees == (3, 3, 2, 2, 2)
        # the node kernel draws a neighbor of group 1 (nodes 0..n1-1) from
        # n1..N-1 and a neighbor of group 2 from 0..n1-1
        n1, n2 = topo.groups
        assert list(range(n1, n1 + n2)) == [2, 3, 4]
        assert list(range(n1)) == [0, 1]
        assert topo.indptr is None and topo.indices is None
        assert sum(topo.degrees) // 2 == 6

    def test_er_is_deterministic(self):
        a = generate_er(30, 0.2, seed=7)
        b = generate_er(30, 0.2, seed=7)
        assert a == b
        assert a.kind == EXPLICIT
        assert generate_er(30, 0.2, seed=8) != a

    def test_er_is_connected_and_consistent(self):
        topo = generate_er(40, 0.1, seed=3)
        nbrs = [topo.indices[topo.indptr[i] : topo.indptr[i + 1]] for i in range(topo.N)]
        assert [len(row) for row in nbrs] == list(topo.degrees)
        assert all(i in nbrs[j] for i in range(topo.N) for j in nbrs[i])
        # connectivity by breadth-first reachability
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in nbrs[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        assert len(seen) == topo.N

    @pytest.mark.parametrize(
        "N,p_link,seed",
        [(2, 1.0, 0), (5, 0.9, 1), (60, 0.1, 3), (100, 0.05, 7), (1000, 0.01, 11)],
    )
    def test_er_matches_pair_list_draw(self, N, p_link, seed):
        # reference: one rng.random draw over every pair in np.triu_indices
        # order, the pair list built in full
        pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
        for attempt in range(ER_RETRY_BUDGET):
            rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
            mask = rng.random(len(pairs)) < p_link
            adj = [[] for _ in range(N)]
            for (i, j), keep in zip(pairs, mask):
                if keep:
                    adj[i].append(j)
                    adj[j].append(i)
            if _is_connected(N, adj):
                break
        else:
            pytest.fail("reference found no connected graph")
        indptr, indices = _csr_from_adjacency(N, adj)
        topo = generate_er(N, p_link, seed=seed)
        assert topo.indptr == indptr
        assert topo.indices == indices
        assert topo.degrees == tuple(indptr[i + 1] - indptr[i] for i in range(N))

    def test_er_retry_exhaustion(self):
        # at this density a connected 50-node sample is overwhelmingly unlikely
        with pytest.raises(GraphGenerationError):
            generate_er(50, 0.01, seed=0, retries=3)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            generate_complete(1)
        with pytest.raises(ValueError):
            generate_bipartite(0, 4)
        with pytest.raises(ValueError):
            generate_er(10, 0.0, seed=1)


class TestEdgeListFormat:
    def test_round_trip(self):
        topo = generate_er(25, 0.25, seed=11)
        edges = [
            (i, j) for i in range(topo.N)
            for j in topo.indices[topo.indptr[i]:topo.indptr[i + 1]] if i < j
        ]
        again = from_edge_list([f"{topo.N} {len(edges)}", *(f"{i} {j}" for i, j in edges)])
        assert again.indptr == topo.indptr
        assert again.indices == topo.indices

    def test_parses_comments_and_blanks(self):
        text = ["3 3", "# triangle", "0 1", "", "1 2", "0 2"]
        topo = from_edge_list(text)
        assert topo.degrees == (2, 2, 2)

    @pytest.mark.parametrize(
        "lines",
        [
            ["not a header"],
            ["3 2", "0 1", "1 1"],  # self-loop
            ["3 2", "0 1", "1 5"],  # out of range
            ["3 3", "0 1", "1 2"],  # count mismatch
            ["4 3", "0 1", "1 0", "2 3"],  # duplicate edge and disconnected
            ["3 3", "0 1", "0 1", "1 2"],  # duplicate edge, connected
            ["3 3", "0 1", "1 0", "1 2"],  # reversed duplicate, connected
        ],
    )
    def test_rejects_malformed(self, lines):
        with pytest.raises(ValueError):
            from_edge_list(lines)


class TestDegreeMoments:
    def test_complete(self):
        mom = degree_moments(generate_complete(10))
        assert mom.mu1 == 9
        assert mom.mu2 == 81

    def test_bipartite(self):
        mom = degree_moments(generate_bipartite(3, 6))
        assert mom.mu1 == 4
        assert mom.mu2 == Fraction(3 * 36 + 6 * 9, 9)


class TestGapEstimates:
    def test_complete_is_exact(self):
        est = gap_estimate(generate_complete(100))
        assert est.gap == Fraction(2, 9900)
        assert not est.order_estimate

    def test_bipartite(self):
        est = gap_estimate(generate_bipartite(4, 25))
        assert est.gap == Fraction(1, 100)
        assert est.order_estimate

    def test_heterogeneous_reduces_to_complete_scaling(self):
        # on a regular graph mu2/mu1^2 = 1, so the estimate reads 1/N^2
        topo = generate_complete(50)
        est = gap_estimate(Topology(kind=EXPLICIT, N=topo.N, degrees=topo.degrees))
        assert est.gap == Fraction(1, 2500)


class TestConsensusScales:
    def test_entropy_factor(self):
        assert entropy_factor(0.5) == pytest.approx(math.log(2))
        assert entropy_factor(0.2) == pytest.approx(entropy_factor(0.8))
        with pytest.raises(ValueError):
            entropy_factor(1.0)

    def test_complete_scale(self):
        assert consensus_scale(generate_complete(100), 0.5) == pytest.approx(
            10000 * math.log(2)
        )

    def test_bipartite_scale(self):
        assert consensus_scale(generate_bipartite(10, 40), 0.5) == pytest.approx(
            1600 * math.log(2)
        )

    def test_heterogeneous_scale_matches_complete_for_regular(self):
        topo = generate_complete(60)
        regular = Topology(kind=EXPLICIT, N=topo.N, degrees=topo.degrees)
        assert consensus_scale(regular, 0.3) == pytest.approx(
            consensus_scale(topo, 0.3)
        )
