"""Monte Carlo simulation of the voter dynamics.

Each iteration picks one node uniformly, which then copies the state of a
uniformly chosen neighbor; no-change events still consume an iteration.
Bipartite and explicit graphs run exactly that, node by node.  On the
complete graph the nodes are exchangeable, so the A-count j is the whole
state (the paper's urn): from j it moves up or down with probability
p_j = j(N-j)/(N(N-1)) each.  There the simulator draws the embedded +-1
walk and its geometric holding times in numpy chunks (the "n-fold way" of
Bortz, Kalos and Lebowitz, J. Comput. Phys. 17, 10, 1975), which is exact
in distribution and runs no Python loop per iteration.
Replicas are fully reproducible: replica r of a run with master seed s
draws from the splittable stream ``SeedSequence((s, r))``, so results are
independent of execution order and parallelism.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .observables import UndefinedMomentError
from .topology import BIPARTITE, COMPLETE, Topology, consensus_scale

_CHUNK = 8192

#: censoring cap as a multiple of the analytic consensus scale
CAP_FACTOR = 100


class UnsupportedObservableError(ValueError):
    """Raised for observables defined only on specific topologies."""


@dataclass(frozen=True)
class SimulationConfig:
    topology: Topology
    #: ("count", n) | ("density", rho) | ("uniform",) | ("groups", n1, n2)
    init: tuple
    runs: int
    seed: int
    max_steps: int | None = None
    track_local_times: bool = False

    def step_cap(self):
        if self.max_steps is not None:
            return self.max_steps
        rho = _nominal_density(self.topology, self.init)
        return int(CAP_FACTOR * consensus_scale(self.topology, rho)) + CAP_FACTOR


@dataclass(frozen=True)
class RunRecord:
    replica: int
    steps: int
    censored: bool
    fixated: bool  # ended at all-A
    initial_count: int
    #: number of A-nodes when the run stopped (at consensus or the cap)
    final_count: int
    visits: tuple | None = None


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate moment estimates with provenance for replay."""

    seed: int
    runs: int
    censored: int
    normalization: float
    p_values: tuple
    moments: tuple  # T_p = mean over runs of (T/normalization)^p
    std_errors: tuple
    log_moments: tuple  # ln(T_p / p!)
    slope: float
    intercept: float
    r_squared: float


def _nominal_density(topo, init):
    kind = init[0]
    if kind == "density":
        rho = float(init[1])
    elif kind == "count":
        rho = init[1] / topo.N
    elif kind == "groups":
        rho = (init[1] + init[2]) / topo.N
    elif kind == "uniform":
        rho = 0.5
    else:
        raise ValueError(f"unknown init spec {init!r}")
    # the cap only needs the right scale; keep the entropy factor finite
    return min(max(rho, 1.0 / topo.N), 1.0 - 1.0 / topo.N)


def replica_rng(seed, replica):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(replica))))


def _initial_count(N, init, rng):
    """The initial number of A-nodes; ``uniform`` draws it from 0..N."""
    kind = init[0]
    if kind == "count":
        count = int(init[1])
    elif kind == "density":
        count = round(float(init[1]) * N)
    elif kind == "uniform":
        count = int(rng.integers(0, N + 1))
    elif kind == "groups":
        raise ValueError("per-group init requires a bipartite topology")
    else:
        raise ValueError(f"unknown init spec {init!r}")
    if not 0 <= count <= N:
        raise ValueError(f"initial count {count} outside 0..{N}")
    return count


def _initial_states(topo, init, rng):
    """Realize a microstate for the configured macrostate.

    A-nodes are placed uniformly at random (fresh randomness per replica);
    group inits place the given counts inside each bipartite group.
    """
    N = topo.N
    states = [0] * N
    if init[0] == "groups" and topo.groups is not None:
        n1, n2 = int(init[1]), int(init[2])
        g1, g2 = topo.groups
        if not (0 <= n1 <= g1 and 0 <= n2 <= g2):
            raise ValueError(f"group counts ({n1}, {n2}) exceed group sizes {topo.groups}")
        for i in rng.choice(g1, size=n1, replace=False):
            states[i] = 1
        for i in rng.choice(g2, size=n2, replace=False):
            states[g1 + i] = 1
        return states, n1 + n2
    count = _initial_count(N, init, rng)
    for i in rng.choice(N, size=count, replace=False):
        states[i] = 1
    return states, count


def _run_urn(N, n_a, cap, rng, track):
    """The complete graph as an urn: (steps, final count, visit tally).

    The embedded jump chain of the A-count is a symmetric +-1 walk, and a
    visit to j lasts a geometric(2 p_j) number of iterations, the last of
    which makes the jump.  Each hold is tallied at its state, so every
    iteration from m = 0 counts at its pre-move state.  At the cap the last
    hold is cut short, so ``cap`` still means exactly that many iterations.
    """
    visits = np.zeros(N + 1) if track else None
    scale = N * (N - 1)
    steps = 0
    while 0 < n_a < N and steps < cap:
        room = cap - steps
        # every hold lasts at least one iteration: room jumps always suffice
        path = n_a + np.cumsum(2 * rng.integers(0, 2, min(_CHUNK, room)) - 1)
        hit = np.flatnonzero((path == 0) | (path == N))
        if hit.size:
            path = path[: hit[0] + 1]
        where = np.empty_like(path)
        where[0] = n_a
        where[1:] = path[:-1]
        holds = rng.geometric(2 * where * (N - where) / scale)
        done = np.cumsum(holds)
        if done[-1] >= room:
            k = int(np.searchsorted(done, room))
            if done[k] == room:
                n_a = int(path[k])
            else:
                holds[k] -= done[k] - room
                n_a = int(where[k])
            where, holds = where[: k + 1], holds[: k + 1]
            steps = cap
        else:
            n_a = int(path[-1])
            steps += int(done[-1])
        if track:
            visits += np.bincount(where, weights=holds, minlength=N + 1)
    return steps, n_a, visits


def _run_nodes(topo, states, n_a, cap, rng):
    """Bipartite and explicit graphs, node by node: (steps, final count).

    Node i copies ``indices[indptr[i] + int(u * degrees[i])]`` for a
    uniform u.  Explicit graphs use their CSR adjacency.  A bipartite graph
    gets a two-segment table: ``indptr = [0]*N1 + [N2]*N2`` points each
    group at the other group's segment of ``indices = [N1..N-1, 0..N1-1]``,
    so the table has O(N) entries, not N1*N2.
    """
    N = topo.N
    if topo.kind == BIPARTITE:
        n1, n2 = topo.groups
        indptr = [0] * n1 + [n2] * n2
        indices = [*range(n1, N), *range(n1)]
    else:
        indptr = list(topo.indptr)
        indices = list(topo.indices)
    degrees = list(topo.degrees)
    steps = 0
    while 0 < n_a < N and steps < cap:
        take = min(_CHUNK, cap - steps)
        nodes = rng.integers(0, N, take).tolist()
        uniforms = rng.random(take).tolist()
        for t in range(take):
            i = nodes[t]
            j = indices[indptr[i] + int(uniforms[t] * degrees[i])]
            sj = states[j]
            steps += 1
            if states[i] != sj:
                states[i] = sj
                n_a += 1 if sj else -1
                if n_a == 0 or n_a == N:
                    break
    return steps, n_a


def run_to_consensus(config, replica):
    """Simulate one replica to unanimity (or the censoring cap).

    For complete graphs with ``track_local_times`` the macrostate visit
    tally is incremented at every iteration from m = 0, matching the
    local-time counting convention.
    """
    topo = config.topology
    N = topo.N
    rng = replica_rng(config.seed, replica)
    cap = config.step_cap()
    track = config.track_local_times
    if track and topo.kind != COMPLETE:
        raise UnsupportedObservableError(
            "macrostate local times are defined only on the complete graph"
        )
    if topo.kind == COMPLETE:
        initial = _initial_count(N, config.init, rng)
        steps, n_a, visits = _run_urn(N, initial, cap, rng, track)
    else:
        states, initial = _initial_states(topo, config.init, rng)
        steps, n_a = _run_nodes(topo, states, initial, cap, rng)
    return RunRecord(
        replica=replica,
        steps=steps,
        censored=0 < n_a < N,
        fixated=n_a == N,
        initial_count=initial,
        final_count=n_a,
        visits=tuple(visits.astype(np.int64).tolist()) if track else None,
    )


def simulate(config):
    """All replicas of a configuration, in replica order."""
    if config.runs < 1:
        raise ValueError("need at least one run")
    records = [run_to_consensus(config, r) for r in range(config.runs)]
    n_censored = sum(rec.censored for rec in records)
    if n_censored:
        warnings.warn(
            f"{n_censored} of {config.runs} runs hit the step cap and are "
            "excluded from moment estimates",
            stacklevel=2,
        )
    return records


def estimate_moments(records, seed, p_max, normalization=1.0):
    """Moment estimates T_p = mean((T/normalization)^p) with diagnostics.

    Emits the ln(T_p/p!) sequence and its least-squares line in p, the
    linearity diagnostic predicted by the spectral gap analysis.
    """
    times = [rec.steps for rec in records if not rec.censored]
    censored = len(records) - len(times)
    if len(times) < 2:
        raise ValueError("need at least two uncensored runs to estimate moments")
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if not any(times):
        # a consensus start: every moment is 0 and ln(T_p) is undefined
        raise UndefinedMomentError()
    t = np.asarray(times, dtype=float) / float(normalization)
    p_values = tuple(range(1, p_max + 1))
    moments, errors, logm = [], [], []
    for p in p_values:
        tp = t**p
        moments.append(tp.mean())
        errors.append(tp.std(ddof=1) / math.sqrt(len(tp)))
        logm.append(math.log(tp.mean()) - math.lgamma(p + 1))
    if p_max >= 2:
        slope, intercept, r2 = linear_fit(np.asarray(p_values, dtype=float), np.asarray(logm))
    else:
        slope = intercept = r2 = float("nan")
    return SimulationReport(
        seed=seed,
        runs=len(records),
        censored=censored,
        normalization=float(normalization),
        p_values=p_values,
        moments=tuple(moments),
        std_errors=tuple(errors),
        log_moments=tuple(logm),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
    )


def local_time_histogram(records, N):
    """Mean visit count per macrostate across runs, with standard errors."""
    tallies = [rec.visits for rec in records if not rec.censored]
    if not tallies or tallies[0] is None:
        raise UnsupportedObservableError(
            "runs were not tracked for local times (complete graph only)"
        )
    arr = np.asarray(tallies, dtype=float)
    mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    return mean, se


def linear_fit(x, y):
    """Least-squares line with the coefficient of determination."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return float(slope), float(intercept), r2
