"""Command-line interface: every computation behind one reproducible binary.

Outputs are CSV with '#'-prefixed provenance lines carrying the full
parameter set (and seeds), so re-running an identical command reproduces
byte-identical files.  Exit codes: 0 success, 1 validation failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from . import montecarlo as mc
from . import observables as ob
from . import propagator as pg
from . import spectral as sp
from . import topology as tp
from . import validate as vl

#: auto numeric mode: exact rationals up to these sizes, floats beyond
AUTO_EXACT_N = 64
AUTO_EXACT_STEPS = 256


class UsageError(ValueError):
    pass


def _fmt(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _auto_mode(N, steps=0):
    return sp.EXACT if N <= AUTO_EXACT_N and steps <= AUTO_EXACT_STEPS else sp.FLOAT


def _parse_density(spec):
    """The rho of a ``density:<rho>`` init spec, checked to lie in [0, 1]."""
    text = spec.split(":", 1)[1]
    try:
        rho = float(text)
    except ValueError as exc:
        raise UsageError(f"density {text!r} is not a number") from exc
    if not 0 <= rho <= 1:  # also rejects nan
        raise UsageError(f"density must lie in [0, 1], got {rho}")
    return rho


def _parse_init_distribution(spec, N, mode):
    """InitSpec -> macrostate distribution for the analytic commands."""
    if spec == "uniform":
        return pg.uniform_distribution(N, mode)
    if spec.startswith("delta:"):
        return pg.delta_distribution(N, int(spec.split(":", 1)[1]), mode)
    if spec.startswith("density:"):
        return pg.delta_distribution(N, round(_parse_density(spec) * N), mode)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            tokens = fh.read().split()
        try:
            values = [Fraction(tok) for tok in tokens]
        except ZeroDivisionError as exc:
            raise UsageError(f"init file {path!r} has a zero denominator") from exc
        return pg.make_distribution(values, mode=mode)
    raise UsageError(
        f"unrecognized init spec {spec!r}; expected delta:<j>, uniform, "
        "density:<rho>, or file:<path>"
    )


def _parse_init_simulation(spec, topo):
    """InitSpec -> simulator init tuple; bipartite counts split per group."""
    if spec == "uniform":
        return ("uniform",)
    if spec.startswith("delta:"):
        count = int(spec.split(":", 1)[1])
        if topo.kind == tp.BIPARTITE:
            n1, n2 = topo.groups
            c1 = round(count * n1 / topo.N)
            return ("groups", c1, count - c1)
        return ("count", count)
    if spec.startswith("density:"):
        rho = _parse_density(spec)
        if topo.kind == tp.BIPARTITE:
            n1, n2 = topo.groups
            return ("groups", round(rho * n1), round(rho * n2))
        return ("density", rho)
    raise UsageError(
        f"unrecognized simulation init {spec!r}; expected delta:<j>, uniform, "
        "or density:<rho>"
    )


def _parse_topology(spec, seed):
    try:
        if spec.startswith("complete:"):
            return tp.generate_complete(int(spec.split(":", 1)[1]))
        if spec.startswith("bipartite:"):
            n1, n2 = (int(x) for x in spec.split(":", 1)[1].split(","))
            return tp.generate_bipartite(n1, n2)
        if spec.startswith("er:"):
            n_str, p_str = spec.split(":", 1)[1].split(",")
            return tp.generate_er(int(n_str), float(p_str), seed=seed)
        if spec.startswith("file:"):
            with open(spec.split(":", 1)[1]) as fh:
                return tp.from_edge_list(fh)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad topology spec {spec!r}: {exc}") from exc
    raise UsageError(
        f"unrecognized topology {spec!r}; expected complete:N, bipartite:N1,N2, "
        "er:N,p, or file:path"
    )


def _emit(out_path, command, params, header, rows):
    lines = [f"# votermodel {command} v{__version__}"]
    lines.extend(f"# {key}={value}" for key, value in params)
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args):
    mode = args.mode
    dec = sp.build_decomposition(args.n, mode)
    header = ["k", "lambda"] + [f"c_{j}" for j in range(args.n + 1)]
    rows = [
        [str(pair.k), _fmt(pair.lam)] + [_fmt(c) for c in pair.c] for pair in dec.pairs
    ]
    _emit(args.out, "spectrum", [("n", args.n), ("mode", mode)], header, rows)
    return 0


def cmd_propagate(args):
    N = args.n
    mode = _auto_mode(N, args.steps)
    a0 = _parse_init_distribution(args.init, N, mode)
    if args.method == "spectral":
        dec = sp.build_decomposition(N, mode)
        coords = sp.to_coordinates(dec, a0)
        dist = pg.propagate_spectral(dec, coords, args.steps)
    else:
        op = pg.transition_operator(N, mode)
        dist = pg.dense_oracle(op, a0, args.steps, limit=max(N, pg.ORACLE_LIMIT))
    params = [
        ("n", N), ("init", args.init), ("steps", args.steps),
        ("method", args.method), ("mode", mode),
    ]
    if N <= AUTO_EXACT_N:
        # cross-check the two routes (always affordable in float arithmetic)
        fdec = sp.build_decomposition(N, sp.FLOAT)
        fa0 = _parse_init_distribution(args.init, N, sp.FLOAT)
        fspec = pg.propagate_spectral(fdec, sp.to_coordinates(fdec, fa0), args.steps)
        fdir = pg.dense_oracle(
            pg.transition_operator(N, sp.FLOAT), fa0, args.steps, limit=max(N, pg.ORACLE_LIMIT)
        )
        diff = max(abs(x - y) for x, y in zip(fspec.a, fdir.a))
        params.append(("crosscheck_max_abs_diff", format(diff, ".17g")))
    rows = [[str(j), _fmt(aj)] for j, aj in enumerate(dist.a)]
    _emit(args.out, "propagate", params, ["j", "a_j"], rows)
    return 0


def cmd_moments(args):
    N = args.n
    if args.p < 1:
        raise UsageError(f"highest moment order --p must be >= 1, got {args.p}")
    mode = _auto_mode(N)
    a0 = _parse_init_distribution(args.init, N, mode)
    rows = []
    if args.method == "oracle":
        op = pg.transition_operator(N, mode)
        for p in range(1, args.p + 1):
            value = ob.moments_oracle(op, a0, p, limit=max(N, pg.ORACLE_LIMIT)).value
            rows.append([str(p), args.method, _fmt(value)])
    else:
        dec = sp.build_decomposition(N, mode)
        coords = sp.to_coordinates(dec, a0)
        fn = {
            "exact": ob.moment_exact,
            "asymptotic": ob.moment_asymptotic,
        }[args.method]
        for p in range(1, args.p + 1):
            rows.append([str(p), args.method, _fmt(fn(dec, coords, p).value)])
    _emit(
        args.out, "moments",
        [("n", N), ("init", args.init), ("p_max", args.p),
         ("method", args.method), ("mode", mode)],
        ["p", "method", "value"], rows,
    )
    return 0


def cmd_local_times(args):
    N = args.n
    mode = _auto_mode(N)
    params = [("n", N), ("init", args.init), ("method", args.method), ("mode", mode)]
    if args.method == "greens":
        sp._check_population(N)
        if args.init == "uniform":
            f = "uniform"
        elif args.init.startswith("density:"):
            f = ("point", _parse_density(args.init))
        elif args.init.startswith("delta:"):
            f = ("point", int(args.init.split(":", 1)[1]) / N)
        else:
            raise UsageError(f"greens method does not accept init {args.init!r}")
        rows = [
            [format(j / N, ".17g"), format(ob.greens_local_time(f, j / N, N), ".17g")]
            for j in range(1, N)
        ]
        _emit(args.out, "local-times", params, ["rho", "M"], rows)
        return 0
    a0 = _parse_init_distribution(args.init, N, mode)
    if args.method == "oracle":
        lt = ob.local_times_oracle(pg.transition_operator(N, mode), a0,
                                   limit=max(N, pg.ORACLE_LIMIT))
    else:
        dec = sp.build_decomposition(N, mode)
        lt = ob.local_times_exact(dec, sp.to_coordinates(dec, a0))
    rows = [[str(j + 1), _fmt(m)] for j, m in enumerate(lt.M)]
    _emit(args.out, "local-times", params, ["j", "M_j"], rows)
    return 0


def cmd_simulate(args):
    topo = _parse_topology(args.topology, args.seed)
    init = _parse_init_simulation(args.init, topo)
    want_local_times = args.pmax is None and topo.kind == tp.COMPLETE
    cfg = mc.SimulationConfig(
        topology=topo, init=init, runs=args.runs, seed=args.seed,
        track_local_times=want_local_times,
    )
    records = mc.simulate(cfg)
    censored = sum(r.censored for r in records)
    normalization = 1.0
    if args.normalize:
        mom = tp.degree_moments(topo)
        normalization = float(mom.mu1**2 / mom.mu2)
    params = [
        ("topology", args.topology), ("init", args.init), ("runs", args.runs),
        ("seed", args.seed), ("normalize", normalization),
        ("censored", censored),
    ]
    if args.out:
        run_rows = [
            [str(r.replica), str(r.steps), str(int(r.censored)),
             str(int(r.fixated)), str(r.initial_count)]
            for r in records
        ]
        _emit(_runs_path(args.out), "simulate-runs", params,
              ["replica", "steps", "censored", "fixated", "initial_count"], run_rows)
    if want_local_times:
        mean, se = mc.local_time_histogram(records, topo.N)
        rows = [
            [str(j), format(mean[j], ".17g"), format(se[j], ".17g")]
            for j in range(1, topo.N)
        ]
        _emit(args.out, "simulate", params, ["j", "mean_visits", "stderr"], rows)
        return 0
    p_max = args.pmax if args.pmax is not None else 1
    report = mc.estimate_moments(records, args.seed, p_max, normalization)
    params += [
        ("slope", format(report.slope, ".17g")),
        ("intercept", format(report.intercept, ".17g")),
        ("r_squared", format(report.r_squared, ".17g")),
    ]
    rows = [
        [str(p), format(tp_, ".17g"), format(se, ".17g"), format(lm, ".17g")]
        for p, tp_, se, lm in zip(
            report.p_values, report.moments, report.std_errors, report.log_moments
        )
    ]
    _emit(args.out, "simulate", params, ["p", "T_p", "stderr", "ln_Tp_over_pfact"], rows)
    return 0


def _runs_path(out):
    if out.endswith(".csv"):
        return out[:-4] + ".runs.csv"
    return out + ".runs"


def cmd_validate(args):
    results = vl.run_suite(args.suite)
    rows = [
        [r.name, "pass" if r.passed else "FAIL", r.measured.replace(",", ";"),
         r.expected.replace(",", ";"), r.tolerance.replace(",", ";")]
        for r in results
    ]
    _emit(args.out, "validate", [("suite", args.suite)],
          ["check", "status", "measured", "expected", "tolerance"], rows)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="votermodel",
        description="Exact spectral solutions and Monte Carlo simulation of the "
        "two-state voter model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenvectors (CSV)")
    p.add_argument("--n", type=int, required=True, help="population size (>= 2)")
    p.add_argument("--mode", choices=[sp.EXACT, sp.FLOAT], default=sp.EXACT)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum, overflow_advice="--mode exact")

    p = sub.add_parser("propagate", help="m-step macrostate distribution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--method", choices=["spectral", "direct"], default="spectral")
    p.add_argument("--out")
    p.set_defaults(func=cmd_propagate, overflow_advice="--method direct")

    p = sub.add_parser("moments", help="moments of the consensus time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--p", type=int, required=True, help="highest moment order")
    p.add_argument(
        "--method", choices=["exact", "asymptotic", "oracle"],
        default="exact",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_moments, overflow_advice="--method oracle")

    p = sub.add_parser("local-times", help="expected visits per interior macrostate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--method", choices=["exact", "oracle", "greens"], default="exact")
    p.add_argument("--out")
    p.set_defaults(func=cmd_local_times, overflow_advice="--method oracle")

    p = sub.add_parser("simulate", help="Monte Carlo voter dynamics")
    p.add_argument("--topology", required=True,
                   help="complete:N | bipartite:N1,N2 | er:N,p | file:path")
    p.add_argument("--init", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pmax", type=int, default=None,
                   help="moment table up to this order (default: local times on "
                   "complete graphs, p=1 elsewhere)")
    p.add_argument("--normalize", action="store_true",
                   help="divide times by mu1^2/mu2 before computing moments")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the self-validation suites")
    p.add_argument("--suite", choices=["core", "figures", "all"], default="core")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except sp.NumericOverflowError as exc:
        # float coefficients left the double range: name the flag of this
        # command that avoids them
        print(f"votermodel: error: {exc}; rerun with {args.overflow_advice}",
              file=sys.stderr)
        return 2
    except tp.GraphGenerationError as exc:
        print(f"votermodel: error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, OSError) as exc:
        # all input-contract violations (population size, normalization,
        # overflow, oracle limits, ...) derive from ValueError
        print(f"votermodel: error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
