"""Correctness checks of one CLI request's output, run outside the timed region.

Every check recomputes the answer through an independent route of the
package (the fundamental-matrix and step-by-step oracles) and compares it
with the CSV the request wrote: exact mode must match identically, float
mode within the 1e-8 relative tolerance of acceptance criterion 4.
``check`` returns ``None`` when the output is correct, else a reason.
"""

from __future__ import annotations

import math
from fractions import Fraction

FLOAT_REL_TOL = 1e-8
#: Monte Carlo mean consensus time must lie within this many standard errors
MC_SIGMAS = 5.0


class CheckFailed(Exception):
    pass


def parse_csv(text):
    """(provenance params, header, rows) of a votermodel CSV."""
    params, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if sep:
                params[key] = value
        elif line:
            body.append(line.split(","))
    if not body:
        raise CheckFailed("no header line")
    header, rows = body[0], body[1:]
    if any(len(row) != len(header) for row in rows):
        raise CheckFailed("ragged CSV rows")
    return params, header, rows


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _distribution(pg, init, N, mode):
    if init == "uniform":
        return pg.uniform_distribution(N, mode)
    return pg.delta_distribution(N, int(init.split(":", 1)[1]), mode)


def _number(text, mode):
    return Fraction(text) if mode == "exact" else float(text)


def _same(got, want, mode):
    if mode == "exact":
        return got == want
    return abs(got - want) <= FLOAT_REL_TOL * abs(want)


def _same_vector(got, want, mode):
    if len(got) != len(want):
        return False
    if mode == "exact":
        return list(got) == list(want)
    scale = max(abs(w) for w in want)
    return max(abs(g - w) for g, w in zip(got, want)) <= FLOAT_REL_TOL * scale


class Checker:
    """Holds the package modules and oracle values reused across requests."""

    def __init__(self, package):
        self.pg = package.propagator
        self.ob = package.observables
        self._mean_time = {}

    def check(self, req, rc, texts):
        if rc != 0:
            return f"exit code {rc}"
        try:
            getattr(self, "_" + req["cmd"].replace("-", "_"))(req, texts)
        except (CheckFailed, ValueError, IndexError, KeyError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def _operator(self, req, params):
        mode = params["mode"]
        N = req["N"]
        a0 = _distribution(self.pg, _arg(req["argv"], "--init"), N, mode)
        return mode, self.pg.transition_operator(N, mode), a0

    def _moments(self, req, texts):
        params, _, rows = parse_csv(texts[0])
        mode, op, a0 = self._operator(req, params)
        if len(rows) != int(_arg(req["argv"], "--p")):
            raise CheckFailed("wrong number of moment rows")
        for p, _, value in rows:
            want = self.ob.moments_oracle(op, a0, int(p)).value
            if not _same(_number(value, mode), want, mode):
                raise CheckFailed(f"p={p}: {value} != oracle {want}")

    def _local_times(self, req, texts):
        params, _, rows = parse_csv(texts[0])
        N = req["N"]
        if len(rows) != N - 1:
            raise CheckFailed("wrong number of local-time rows")
        if params["method"] == "greens":
            self._greens(req, rows)
            return
        mode, op, a0 = self._operator(req, params)
        want = self.ob.local_times_oracle(op, a0, limit=max(N, self.pg.ORACLE_LIMIT)).M
        if not _same_vector([_number(m, mode) for _, m in rows], want, mode):
            raise CheckFailed("local times differ from the fundamental-matrix oracle")

    def _greens(self, req, rows):
        """The continuum kernel has no exact oracle; re-evaluate it directly."""
        N = req["N"]
        init = _arg(req["argv"], "--init")
        f = "uniform" if init == "uniform" else ("point", int(init.split(":", 1)[1]) / N)
        for j, (rho, value) in enumerate(rows, start=1):
            want = self.ob.greens_local_time(f, j / N, N)
            if float(rho) != j / N or float(value) != want or not math.isfinite(want):
                raise CheckFailed(f"Green's local time differs at j={j}")

    def _propagate(self, req, texts):
        params, _, rows = parse_csv(texts[0])
        mode, op, a0 = self._operator(req, params)
        N = req["N"]
        steps = int(_arg(req["argv"], "--steps"))
        want = self.pg.dense_oracle(op, a0, steps, limit=max(N, self.pg.ORACLE_LIMIT)).a
        if not _same_vector([_number(a, mode) for _, a in rows], want, mode):
            raise CheckFailed("distribution differs from step-by-step propagation")

    def _spectrum(self, req, texts):
        """Every eigenpair must satisfy the eigen-equation of the single-step operator."""
        params, _, rows = parse_csv(texts[0])
        N, mode = req["N"], params["mode"]
        op = self.pg.transition_operator(N, mode)
        if len(rows) != N + 1:
            raise CheckFailed("wrong number of eigenpairs")
        for row in rows:
            lam = _number(row[1], mode)
            c = tuple(_number(v, mode) for v in row[2:])
            image = self.pg.single_step(op, self.pg.MacrostateDistribution(a=c)).a
            if not _same_vector(image, [lam * v for v in c], mode):
                raise CheckFailed(f"eigen-equation fails for k={row[0]}")

    def _simulate(self, req, texts):
        _, _, rows = parse_csv(texts[0])
        _, _, runs = parse_csv(texts[1])
        if len(runs) != req["runs"]:
            raise CheckFailed("wrong number of replica rows")
        if not rows or not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
            raise CheckFailed("missing or non-finite estimate")
        steps = [int(r[1]) for r in runs if r[2] == "0"]
        if req["cell"].startswith("complete"):
            self._consensus_time(req, steps)

    def _consensus_time(self, req, steps):
        N = req["N"]
        j = int(_arg(req["argv"], "--init").split(":", 1)[1])
        if (N, j) not in self._mean_time:
            op = self.pg.transition_operator(N, "exact")
            a0 = self.pg.delta_distribution(N, j, "exact")
            self._mean_time[N, j] = float(self.ob.moments_oracle(op, a0, 1).value)
        want = self._mean_time[N, j]
        n = len(steps)
        if n < 2:
            raise CheckFailed("fewer than two uncensored replicas")
        mean = sum(steps) / n
        se = math.sqrt(sum((s - mean) ** 2 for s in steps) / (n - 1) / n)
        if abs(mean - want) > MC_SIGMAS * se:
            raise CheckFailed(f"mean steps {mean:.1f} vs E[T] {want:.1f} (se {se:.1f})")


def iterations(req, texts):
    """Total Monte Carlo iterations of a simulate request, from its replica CSV."""
    _, _, runs = parse_csv(texts[1])
    return sum(int(r[1]) for r in runs)
