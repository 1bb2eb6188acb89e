"""In-memory span tracer that wraps layer functions from outside the package.

``install`` replaces the public functions of the layer modules with
wrappers at module attribute level.  Calls that go through a module
attribute (``sp.build_decomposition`` from the CLI, or a module-global call
inside the same module) are then recorded; the package source is untouched.

A span is ``(sid, parent, request, name, t0, t1, attrs)``.  The root span
of every request is named ``cli.request``; a layer's self time is its span
time minus the time its child spans cover, so the self times of a request's
spans add up to its wall time.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

#: layer modules, in the order they are reported
LAYERS = ("spectral", "propagator", "observables", "topology", "montecarlo")

#: per-element helpers called inside loops of other layer functions; their
#: time stays in the caller's self time instead of costing a span each
UNWRAPPED = {
    "spectral.eigenvalue",
    "propagator.single_step",
    "observables.power_sum",
    "observables.greens_kernel",
    "montecarlo.replica_rng",
}

REQUEST = "cli.request"


def _annotate_build(args, kwargs, out):
    return {"N": out.N, "mode": out.mode}


def _annotate_propagate(args, kwargs, out):
    return {"mode": args[0].mode}


def _annotate_er(args, kwargs, out):
    return {"N": out.N}


def _annotate_replica(args, kwargs, out):
    config = args[0]
    return {
        "kind": config.topology.kind,
        "tracked": bool(config.track_local_times),
        "steps": out.steps,
        "censored": bool(out.censored),
    }


ANNOTATE = {
    "spectral.build_decomposition": _annotate_build,
    "propagator.propagate_spectral": _annotate_propagate,
    "topology.generate_er": _annotate_er,
    "montecarlo.run_to_consensus": _annotate_replica,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.recording = False
        self._stack = []
        self._request = None

    def install(self, package):
        """Wrap every public function defined in each layer module of ``package``."""
        wrapped = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                setattr(module, attr, self._wrap(name, fn, ANNOTATE.get(name)))
                wrapped.append(name)
        missing = set(ANNOTATE) - set(wrapped)
        if missing:
            raise RuntimeError(f"layer functions not found: {sorted(missing)}")
        return wrapped

    def _wrap(self, name, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._open()
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                attrs = annotate(args, kwargs, out) if annotate and out is not None else None
                tracer._close(sid, name, t0, t1, attrs)

        return traced

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, t0, t1, attrs):
        # the parent is whatever is open below this span on the stack
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (sid, parent, self._request, name, t0, t1, attrs)

    def request(self, rid, call):
        """Run ``call()`` as request ``rid`` under a root span, recording the
        layer calls it makes; returns (result, t0, t1)."""
        self._request = rid
        self.recording = True
        sid = self._open()
        t0 = perf_counter()
        try:
            out = call()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._close(sid, REQUEST, t0, t1, None)
            self.recording = False
            self._request = None
        return out, t0, t1


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def layer_of(name):
    return "cli" if name == REQUEST else name.split(".", 1)[0]
