"""Workload process: one client sending requests in a closed loop.

Usage: ``python bench/worker.py SPEC.json`` (started by ``run.py``).

Each request calls ``votermodel.cli.main(argv)`` in this process with an
``--out`` file in the run's scratch directory; the next request starts when
the previous one returns.  Only the ``cli.main`` call is timed; the host
probe runs right before and right after it.  The output is then checked
(tracing off), hashed, and deleted.  A request whose argv was already
checked, in this process or an earlier one of the same run, passes only if
its output bytes are identical.

The spec gives the workload, seed, rounds to run and time budget; the
result (per-request records, spans, peak RSS) is written as JSON to the
path the spec names.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

import checks
import hostspeed
import workloads
from tracer import Tracer


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import votermodel
    import votermodel.cli

    if not os.path.abspath(votermodel.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"votermodel imported from {votermodel.__file__}, not {src}")
    return votermodel


def _read_outputs(path):
    """Bytes of the CSV a request wrote (and of its ``.runs.csv``); deletes them."""
    blobs = []
    for name in (path, path[:-4] + ".runs.csv"):
        if os.path.exists(name):
            with open(name, "rb") as fh:
                blobs.append(fh.read())
            os.remove(name)
    return blobs


class Client:
    def __init__(self, spec, package):
        self.spec = spec
        self.cli = package.cli
        self.checker = checks.Checker(package)
        self.tracer = None
        if spec["traced"]:
            self.tracer = Tracer()
            self.tracer.install(package)
        self.known = dict(spec["known"])
        self.records = []
        self.digest = hashlib.sha256()
        self.out = os.path.join(spec["outdir"], f"out-{os.getpid()}.csv")

    def _call(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2

    def send(self, req, rid, rnd, warmup=False):
        argv = req["argv"] + ["--out", self.out]
        error = None
        probe_before = hostspeed.probe()
        try:
            if self.tracer:
                rc, t0, t1 = self.tracer.request(rid, lambda: self._call(argv))
            else:
                t0 = perf_counter()
                rc = self._call(argv)
                t1 = perf_counter()
        except Exception as exc:  # a traceback is a failed request, not a crash
            rc, t0, t1, error = None, 0.0, 0.0, f"{type(exc).__name__}: {exc}"
        probe_s = (probe_before + hostspeed.probe()) / 2
        blobs = _read_outputs(self.out)
        if warmup:
            return
        key = " ".join(req["argv"])
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        if error is None:
            if key in self.known:
                if self.known[key] != digest:
                    error = "output differs from an earlier identical request"
            else:
                error = self.checker.check(req, rc, [b.decode() for b in blobs])
                if error is None:
                    self.known[key] = digest
        if rnd == 0:
            for blob in blobs:
                self.digest.update(blob)
        record = dict(rid=rid, round=rnd, cell=req["cell"], cmd=req["cmd"], N=req["N"],
                      wall_s=t1 - t0, probe_s=probe_s, rc=rc, error=error,
                      bytes=sum(map(len, blobs)))
        if req["cmd"] == "simulate" and error is None:
            record["iterations"] = checks.iterations(req, [b.decode() for b in blobs])
        self.records.append(record)

    def run(self):
        spec = self.spec
        for k, req in enumerate(workloads.warmup_requests(spec["workload"], spec["toy"])):
            self.send(req, -1 - k, None, warmup=True)
        timed = 0.0
        done = 0
        rnd = spec["first_round"]
        while workloads.more_rounds(done, timed, spec["min_rounds"], spec["max_rounds"],
                                    spec["budget_s"], spec["cycle"]):
            for req in workloads.round_requests(spec["workload"], spec["seed"], rnd, spec["toy"]):
                self.send(req, len(self.records), rnd)
                timed += self.records[-1]["wall_s"]
            done += 1
            rnd += 1
        return dict(
            records=self.records,
            rounds=done,
            known=self.known,
            round0_digest=self.digest.hexdigest() if spec["first_round"] == 0 else None,
            spans=self.tracer.spans if self.tracer else [],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    package = _import_package(spec["root"])
    result = Client(spec, package).run()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
