"""Seeded request lists for the three benchmark workloads.

A workload is a sequence of rounds.  A round is a list of ``votermodel``
CLI requests with fixed counts per (command, N) cell; the seed only picks
inits, moment orders, step counts, order and Monte Carlo seeds.  A quarter
of each cell's inits are ``uniform``, and delta positions and step counts
are drawn one per equal-width stratum, so the cost of a round hardly
depends on the seed.

Each request is a dict with ``argv`` (without ``--out``), ``cmd``, ``N``,
``cell`` and, for ``simulate``, ``runs``.
"""

from __future__ import annotations

import random
from typing import NamedTuple

COLD = "analytic-cold"
SWEEP = "analytic-sweep"
MC = "mc-mixed"
WORKLOADS = (COLD, SWEEP, MC)


class Profile(NamedTuple):
    """Per-workload run shape.

    ``fresh_process`` runs every round in a new interpreter, so that no
    request finds its N already decomposed.  ``tail_pct`` is fixed per
    workload so the reported tail does not move with the number of rounds;
    at least ten samples lie beyond it after ``min_rounds`` rounds.  Rounds run in whole cycles of ``cycle`` rounds,
    so that every cell keeps its share of requests.  ``trace_rounds`` is the
    fixed round count of each phase of a traced run, which makes its
    per-layer counts exact for a given seed.
    """

    fresh_process: bool
    tail_pct: float
    min_rounds: int
    cycle: int
    trace_rounds: int


PROFILES = {
    COLD: Profile(fresh_process=True, tail_pct=77, min_rounds=3, cycle=3, trace_rounds=1),
    SWEEP: Profile(fresh_process=False, tail_pct=90, min_rounds=3, cycle=1, trace_rounds=2),
    MC: Profile(fresh_process=False, tail_pct=80, min_rounds=2, cycle=1, trace_rounds=1),
}


def more_rounds(done, timed_s, min_rounds, max_rounds, budget_s, cycle):
    """Whether to run another round: whole cycles until ``min_rounds`` and
    ``budget_s`` seconds of request time are both reached, at most ``max_rounds``."""
    return done < max_rounds and (done < min_rounds or timed_s < budget_s or done % cycle)


def _rng(workload, seed, rnd):
    return random.Random(f"{workload}:{seed}:{rnd}")


def _strata(rng, lo, hi, count):
    """One uniform integer draw from each of ``count`` equal strata of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [
        rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1)
        for i in range(count)
    ]


def _inits(rng, N, count):
    """A quarter ``uniform``, the rest ``delta:j`` with j stratified over 1..N-1."""
    n_uniform = count // 4
    inits = ["uniform"] * n_uniform
    inits += [f"delta:{j}" for j in _strata(rng, 1, N - 1, count - n_uniform)]
    rng.shuffle(inits)
    return inits


def _req(cmd, N, cell, argv, **extra):
    return dict(cmd=cmd, N=N, cell=cell, argv=[cmd] + argv, **extra)


def cold_grid(toy=False):
    """N = 40..152 step 8 (exact mode up to 64, float beyond)."""
    return list(range(4, 13, 4)) if toy else list(range(40, 153, 8))


#: largest step count the CLI still runs in exact mode
EXACT_MAX_STEPS = 256


def _cold_round(seed, rnd, toy):
    """Round ``rnd`` gives grid point i the command ``perm[(i + rnd) % 3]``.

    Over a cycle of three rounds every N gets every command once, so the
    latency of a cycle does not depend on which command the seed puts where.
    """
    grid = cold_grid(toy)
    perm = ["moments", "local-times", "propagate"]
    _rng(COLD, seed, "commands").shuffle(perm)
    commands = [perm[(i + rnd) % 3] for i in range(len(grid))]
    rng = _rng(COLD, seed, rnd)
    uniform = [i < len(grid) // 4 for i in range(len(grid))]
    rng.shuffle(uniform)
    reqs = []
    for N, cmd, flat in zip(grid, commands, uniform):
        init = "uniform" if flat else f"delta:{rng.randint(1, N - 1)}"
        argv = ["--n", str(N), "--init", init]
        if cmd == "moments":
            argv += ["--p", "4"]
        elif cmd == "propagate":
            hi = EXACT_MAX_STEPS if N <= 64 else 20_000
            argv += ["--steps", str(rng.randint(1, hi))]
        reqs.append(_req(cmd, N, f"{cmd}@cold", argv))
    rng.shuffle(reqs)
    return reqs


def _sweep_group(rng, N, counts, max_steps):
    reqs = []
    n_moments = counts["moments"]
    for i, init in enumerate(_inits(rng, N, n_moments)):
        reqs.append(_req("moments", N, f"moments@{N}",
                         ["--n", str(N), "--init", init, "--p", str(1 + i % 6)]))
    for method in ("exact", "oracle", "greens"):
        for init in _inits(rng, N, counts[f"local-times-{method}"]):
            argv = ["--n", str(N), "--init", init]
            if method != "exact":
                argv += ["--method", method]
            reqs.append(_req("local-times", N, f"local-times-{method}@{N}", argv))
    n_prop = counts["propagate"]
    for init, steps in zip(_inits(rng, N, n_prop), _strata(rng, 1, max_steps, n_prop)):
        reqs.append(_req("propagate", N, f"propagate@{N}",
                         ["--n", str(N), "--init", init, "--steps", str(steps)]))
    for _ in range(counts.get("spectrum", 0)):
        reqs.append(_req("spectrum", N, f"spectrum@{N}", ["--n", str(N)]))
    rng.shuffle(reqs)
    return reqs


def sweep_sizes(toy=False):
    """(N, cell counts, largest step count) per group, exact group first."""
    exact_n, float_n = (8, 66) if toy else (64, 120)
    exact_counts = {"moments": 24, "local-times-exact": 16, "local-times-oracle": 2,
                    "local-times-greens": 2, "propagate": 6, "spectrum": 2}
    float_counts = {"moments": 10, "local-times-exact": 8, "local-times-oracle": 1,
                    "local-times-greens": 1, "propagate": 8}
    if toy:
        exact_counts = {k: 1 for k in exact_counts}
        float_counts = {k: 1 for k in float_counts}
    return [(exact_n, exact_counts, EXACT_MAX_STEPS), (float_n, float_counts, 20_000)]


def _sweep_round(rng, toy):
    reqs = []
    for N, counts, max_steps in sweep_sizes(toy):
        reqs.extend(_sweep_group(rng, N, counts, max_steps))
    return reqs




def mc_cells(toy=False):
    """(cell, N, topology, extra argv, replicas per request, requests per round)."""
    if toy:
        return [
            ("complete-tracked", 20, "complete:20", ["--init", "delta:10"], 30, 1),
            ("complete", 20, "complete:20", ["--init", "delta:10", "--pmax", "10"], 30, 1),
            ("bipartite", 16, "bipartite:12,4", ["--init", "delta:8", "--pmax", "10"], 8, 1),
            ("er", 60, "er:60,0.1",
             ["--init", "density:0.5", "--pmax", "5", "--normalize"], 2, 1),
        ]
    return [
        ("complete-tracked", 100, "complete:100", ["--init", "delta:50"], 100, 12),
        ("complete", 100, "complete:100", ["--init", "delta:50", "--pmax", "10"], 100, 12),
        ("bipartite", 100, "bipartite:80,20", ["--init", "delta:50", "--pmax", "10"], 100, 12),
        ("er", 1000, "er:1000,0.01",
         ["--init", "density:0.5", "--pmax", "5", "--normalize"], 2, 1),
    ]


def _mc_round(rng, seed, rnd, toy):
    """Every request gets its own simulation seed, derived from the workload seed."""
    reqs = []
    for cell, N, topology, extra, runs, count in mc_cells(toy):
        for _ in range(count):
            sim_seed = seed * 1_000_000 + rnd * 1_000 + len(reqs)
            argv = ["--topology", topology, *extra, "--runs", str(runs),
                    "--seed", str(sim_seed)]
            reqs.append(_req("simulate", N, cell, argv, runs=runs))
    rng.shuffle(reqs)
    return reqs


def round_requests(workload, seed, rnd, toy=False):
    """The requests of round ``rnd``; every analytic-sweep round repeats round 0."""
    if workload == COLD:
        return _cold_round(seed, rnd, toy)
    if workload == SWEEP:
        return _sweep_round(_rng(workload, seed, 0), toy)
    return _mc_round(_rng(workload, seed, rnd), seed, rnd, toy)


def warmup_requests(workload, toy=False):
    """analytic-sweep: one untimed request per N, so timed requests find it decomposed."""
    if workload != SWEEP:
        return []
    return [
        _req("moments", N, f"warmup@{N}", ["--n", str(N), "--init", "uniform", "--p", "1"])
        for N, _, _ in sweep_sizes(toy)
    ]
