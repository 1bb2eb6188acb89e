"""End-to-end and per-layer metrics from worker results.

A worker result holds per-request ``records`` and, for a traced worker,
its ``spans`` (see ``tracer.py``).  Figures derived from request times use
each request's time at reference host speed (``hostspeed.py``); the raw
figures go to the results file.  Span times are raw.

Latency quantiles are Harrell-Davis estimates: a Beta-weighted mean of the
order statistics around the quantile.  In analytic-cold the median falls
on the three requests at one N, so a single order statistic carried the
noise of one request; the weighted mean halved its run-to-run spread.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from scipy.special import betainc

from hostspeed import at_reference
from tracer import LAYERS, REQUEST, layer_of, self_times

COMPLETE_CELLS = ("complete", "complete-tracked")
NETWORK_CELLS = ("bipartite", "er")

#: functions whose inclusive time is reported as ``<name>.busy_s``
BUSY = (
    "spectral.to_coordinates",
    "propagator.dense_oracle",
    "observables.moment_exact",
    "observables.local_times_exact",
    "observables.moments_oracle",
    "observables.local_times_oracle",
    "observables.greens_local_time",
    "topology.generate_er",
    "topology.degree_moments",
    "montecarlo.run_to_consensus",
    "montecarlo.estimate_moments",
    "montecarlo.local_time_histogram",
)

#: topology kind (and local-time tracking) -> iteration-rate label
MC_KINDS = {
    ("complete", False): "complete",
    ("complete", True): "complete-tracked",
    ("complete-bipartite", False): "bipartite",
    ("explicit", False): "explicit",
}


def quantile(values, pct):
    """Harrell-Davis estimate of the ``pct`` percentile."""
    ordered = sorted(values)
    n = len(ordered)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered)))


def records_of(results):
    return [r for res in results for r in res["records"]]


def ref_time(record):
    """A request's wall time at reference host speed."""
    return at_reference(record["wall_s"], record["probe_s"])


def _iter_rate(records, cells, time_of):
    chosen = [r for r in records if r["cell"] in cells and "iterations" in r]
    wall = sum(map(time_of, chosen))
    return sum(r["iterations"] for r in chosen) / wall if wall else 0.0


def _request_figures(records, tail_pct, time_of):
    walls = [time_of(r) for r in records]
    return {
        "req_per_s": len(walls) / sum(walls),
        "lat_p50_ms": quantile(walls, 50) * 1e3,
        "lat_tail_ms": quantile(walls, tail_pct) * 1e3,
        "mc_complete_iter_per_s": _iter_rate(records, COMPLETE_CELLS, time_of),
        "mc_network_iter_per_s": _iter_rate(records, NETWORK_CELLS, time_of),
    }


def summary(results, tail_pct):
    """Request-level figures of untraced workers, at reference host speed."""
    records = records_of(results)
    failed = sum(r["error"] is not None for r in records)
    return {
        **_request_figures(records, tail_pct, ref_time),
        "raw": _request_figures(records, tail_pct, lambda r: r["wall_s"]),
        "requests": len(records),
        "failed": failed,
        "fail_share": failed / len(records),
        "timed_s": sum(r["wall_s"] for r in records),
        "timed_ref_s": sum(map(ref_time, records)),
        "host_probe_ms": statistics.median(r["probe_s"] for r in records) * 1e3,
        "lat_tail_pct": tail_pct,
        "lat_tail_samples_beyond": len(records) - math.ceil(tail_pct / 100 * len(records)),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        "output_bytes": sum(r["bytes"] for r in records),
        "cells": _cells(records),
    }


def _cells(records):
    """Request count, median and slowest latency (ms, reference speed) per cell."""
    walls = defaultdict(list)
    for r in records:
        walls[r["cell"]].append(ref_time(r) * 1e3)
    return {cell: {"n": len(w), "p50_ms": quantile(w, 50), "max_ms": max(w)}
            for cell, w in sorted(walls.items())}


def _worker_layers(res, m, breakdown, first_builds):
    spans = res["spans"]
    own = self_times(spans)
    per_request = defaultdict(lambda: defaultdict(float))
    seen_n = set()
    for sid, parent, rid, name, t0, t1, attrs in spans:
        first_n = False
        if name == "spectral.build_decomposition" and attrs:
            first_n = attrs["N"] not in seen_n
            seen_n.add(attrs["N"])
        if rid < 0:  # warm-up request: only marks its N as decomposed
            continue
        dur = t1 - t0
        layer = layer_of(name)
        m[f"{layer}.self_s"] += own[sid]
        per_request[rid][layer] += own[sid]
        if name == REQUEST:
            m["cli.requests"] += 1
            per_request[rid]["wall_s"] = dur
        elif name == "spectral.build_decomposition":
            m[name + ".calls"] += 1
            m[name + (".first_n" if first_n else ".repeat_n") + ".busy_s"] += dur
            if first_n:
                first_builds[attrs["N"]].append(dur)
            m["_repeat_calls"] += not first_n
        elif name == "propagator.propagate_spectral" and attrs:
            m[f"{name}.{attrs['mode']}.busy_s"] += dur
        if name in BUSY:
            m[name + ".busy_s"] += dur
        if name == "spectral.to_coordinates":
            m[name + ".calls"] += 1
        elif name == "topology.generate_er" and attrs:
            m[name + ".pairs"] += attrs["N"] * (attrs["N"] - 1) // 2
        elif name == "montecarlo.run_to_consensus" and attrs:
            kind = MC_KINDS[attrs["kind"], attrs["tracked"]]
            m[name + ".calls"] += 1
            m["montecarlo.iterations"] += attrs["steps"]
            m["_censored"] += attrs["censored"]
            m[f"_steps.{kind}"] += attrs["steps"]
            m[f"_busy.{kind}"] += dur
    for rid, row in per_request.items():
        layers = {k: v for k, v in row.items() if k != "wall_s"}
        residual = row["wall_s"] - sum(layers.values())
        breakdown.append(dict(rid=rid, wall_s=row["wall_s"], self_s=layers,
                              residual_s=residual))


def per_layer(traced, untraced):
    """Per-layer metrics of a traced run; ``untraced`` ran the same requests.

    Tracing overhead compares request times at reference host speed.
    """
    m = defaultdict(float)
    breakdown = []
    first_builds = defaultdict(list)
    for res in traced:
        _worker_layers(res, m, breakdown, first_builds)
    base = summary(untraced, 50)
    traced_s = sum(map(ref_time, records_of(traced)))
    calls = m["spectral.build_decomposition.calls"]
    replicas = m["montecarlo.run_to_consensus.calls"]
    out = {
        "cli.requests": m["cli.requests"],
        "cli.self_s": m["cli.self_s"],
        "cli.output_bytes": sum(r["bytes"] for r in records_of(traced)),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = m[f"{layer}.self_s"]
    for key in ("spectral.build_decomposition.calls",
                "spectral.build_decomposition.first_n.busy_s",
                "spectral.build_decomposition.repeat_n.busy_s"):
        out[key] = m[key]
    out["spectral.build_decomposition.repeat_n_share"] = m["_repeat_calls"] / calls if calls else 0.0
    out["spectral.to_coordinates.calls"] = m["spectral.to_coordinates.calls"]
    for mode in ("exact", "float"):
        key = f"propagator.propagate_spectral.{mode}.busy_s"
        out[key] = m[key]
    for name in BUSY:
        out[name + ".busy_s"] = m[name + ".busy_s"]
    out["topology.generate_er.pairs"] = m["topology.generate_er.pairs"]
    out["montecarlo.run_to_consensus.calls"] = replicas
    out["montecarlo.iterations"] = m["montecarlo.iterations"]
    for kind in MC_KINDS.values():
        busy = m[f"_busy.{kind}"]
        out[f"montecarlo.iter_per_s.{kind}"] = m[f"_steps.{kind}"] / busy if busy else 0.0
    out["montecarlo.censored_share"] = m["_censored"] / replicas if replicas else 0.0
    out["mc_complete_iter_per_s"] = base["mc_complete_iter_per_s"]
    out["mc_network_iter_per_s"] = base["mc_network_iter_per_s"]
    out["trace.untraced_s"] = base["timed_ref_s"]
    out["trace.overhead_s"] = traced_s - base["timed_ref_s"]
    out["trace.overhead_share"] = out["trace.overhead_s"] / base["timed_ref_s"]
    out["host.probe_ms"] = statistics.median(r["probe_s"] for r in records_of(traced)) * 1e3
    return out, breakdown, dict(sorted(first_builds.items()))
