"""Benchmark of the votermodel CLI: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload analytic-sweep --seed 1 --seconds 20 --trace 0

Workloads are ``analytic-cold``, ``analytic-sweep`` and ``mc-mixed`` (see
``bench/README.md``).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  A full results file (provenance, host
probe, output digest, per-request layer breakdown) and, for traced runs,
the raw spans are written under ``bench/results/``.  ``--toy`` shrinks
every size, for the smoke test.

The package is imported from ``src/`` of the checkout; nothing is
installed and no bytecode is written.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")

#: every run must end well inside the 180 s a run is allowed
DEADLINE_S = 170
SETUP_REPEATS = 5
PROBE_REPEATS = 9


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup(repeats):
    """Median time of a fresh interpreter importing ``votermodel.cli``.

    Returns the median at reference host speed and the raw times.
    """
    times, at_ref = [], []
    for _ in range(repeats):
        probe_before = hostspeed.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import votermodel.cli"],
                                env=_child_env(), cwd=ROOT)
        # a blocking wait: waiting with a timeout polls, in steps of up to 50 ms
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        returncode = proc.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        if returncode != 0:
            raise BenchError(f"import votermodel.cli exited with {returncode}")
        probe_s = (probe_before + hostspeed.probe()) / 2
        at_ref.append(hostspeed.at_reference(times[-1], probe_s))
    return statistics.median(at_ref), times


def _probe_ms():
    return statistics.median(hostspeed.probe() for _ in range(PROBE_REPEATS)) * 1e3


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "votermodel")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args):
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


class Runner:
    """Starts workload processes for one run and collects their results."""

    def __init__(self, args, scratch, deadline):
        self.args = args
        self.scratch = scratch
        self.deadline = deadline
        self.profile = workloads.PROFILES[args.workload]
        self.known = {}
        self.round0_digest = None
        self.workers = 0

    def _worker(self, traced, first_round, min_rounds, max_rounds, cycle, budget_s):
        self.workers += 1
        spec_path = os.path.join(self.scratch, f"spec-{self.workers}.json")
        result_path = os.path.join(self.scratch, f"result-{self.workers}.json")
        spec = dict(root=ROOT, outdir=self.scratch, result=result_path,
                    workload=self.args.workload, seed=self.args.seed, toy=self.args.toy,
                    traced=traced, first_round=first_round, min_rounds=min_rounds,
                    max_rounds=max_rounds, cycle=cycle, budget_s=budget_s,
                    known=self.known)
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed before all rounds ran")
        try:
            subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
                           check=True, env=_child_env(), cwd=ROOT, timeout=timeout)
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"workload process exited with {exc.returncode}") from exc
        except subprocess.TimeoutExpired as exc:
            raise BenchError("workload process overran the run deadline") from exc
        with open(result_path) as fh:
            result = json.load(fh)
        self.known = result["known"]
        if result["round0_digest"] is not None and self.round0_digest is None:
            self.round0_digest = result["round0_digest"]
        return result

    def phase(self, traced, min_rounds, max_rounds, budget_s):
        """Run whole cycles of rounds until ``budget_s`` of request time and
        ``min_rounds`` are done, or ``max_rounds`` are."""
        cycle = self.profile.cycle
        if not self.profile.fresh_process:
            return [self._worker(traced, 0, min_rounds, max_rounds, cycle, budget_s)]
        results, timed = [], 0.0
        while workloads.more_rounds(len(results), timed, min_rounds, max_rounds, budget_s, cycle):
            results.append(self._worker(traced, len(results), 1, 1, 1, 0.0))
            timed += sum(r["wall_s"] for r in results[-1]["records"])
        return results


def _metric_block(values, units):
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "votermodel", "cli.py")):
        raise BenchError(f"no votermodel sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    profile = workloads.PROFILES[args.workload]
    scratch = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        probe_before = _probe_ms()
        runner = Runner(args, scratch, deadline)
        report = {"provenance": provenance(args)}
        if args.trace:
            rounds = profile.trace_rounds
            untraced = runner.phase(False, rounds, rounds, 0.0)
            traced = runner.phase(True, rounds, rounds, 0.0)
            measured = untraced + traced
        else:
            setup_s, setup_all = measure_setup(1 if args.toy else SETUP_REPEATS)
            report["setup_s_repeats"] = setup_all
            measured = runner.phase(False, profile.min_rounds, 10**6, args.seconds)
        probe_after = _probe_ms()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    all_records = metrics.records_of(measured)
    failed = sum(r["error"] is not None for r in all_records)
    report.update(
        host_probe_ms={"before": probe_before, "after": probe_after},
        output_digest=runner.round0_digest,
        failures=[r for r in all_records if r["error"] is not None][:20],
    )
    if args.trace:
        values, breakdown, first_builds = metrics.per_layer(traced, untraced)
        report["first_build_s_by_n"] = first_builds
        values["fail_share"] = failed / len(all_records)
        worst = max(abs(row["residual_s"]) for row in breakdown)
        if worst > 1e-6:
            raise BenchError(f"layer self times miss a request's wall time by {worst} s")
        report["self_time_residual_max_s"] = worst
        report["request_breakdown"] = breakdown
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = metrics.summary(measured, profile.tail_pct)
        values["setup_s"] = setup_s
        report["summary"] = dict(values)
        report["requests"] = [[r["cell"], r["round"], r["wall_s"], r["probe_s"]]
                              for r in all_records]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": _metric_block(values, units),
    }
    report["result"] = result
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}")
    with open(base + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with open(base + ".spans.json", "w") as fh:
            json.dump([res["spans"] for res in traced], fh)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="request time to measure (whole rounds, at least the minimum)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes (smoke test)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
