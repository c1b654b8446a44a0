"""Span and counter tracing for the benchmark's traced run.

`instrument(tracer)` replaces public functions of the ptlame modules with
recording wrappers and puts every original back when it exits, so untraced
runs execute the unmodified library.  Two kinds of record are kept:

* spans, with their parent, at the op, `cli`, `floquet` and `spectra`
  boundaries (a few hundred per op);
* aggregated call counts and inclusive timers for the per-point calls: the
  potential closures returned by `potentials.compiled_value_fn`, the
  `elliptic.line_jacobi` closures they call, and `elliptic.jacobi_complex`,
  `theta_jets` and `inverse_sn`.  An a=3 edges op makes ~1e5 of these, too
  many to keep one span each.

The integrator's own RHS count is read where floquet hands the ODE to
scipy (`floquet.solve_ivp`), so the potential call count can be checked
against it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter

# (module name, attribute) pairs replaced while tracing; the self-test checks
# that each one is the original object again afterwards
SPANNED = (
    ("cli", "main"),
    ("cli", "build_spec"),
    ("floquet", "find_band_edges"),
    ("floquet", "discriminant_scan"),
    ("floquet", "monodromy"),
    ("spectra", "pt_band_edges"),
    ("spectra", "dispersion_analytic"),
    ("spectra", "bloch_solution_jet"),
)
COUNTED = (
    ("elliptic", "jacobi_complex"),
    ("elliptic", "theta_jets"),
    ("elliptic", "inverse_sn"),
)
FACTORIES = (
    ("potentials", "compiled_value_fn"),
    ("elliptic", "line_jacobi"),
)
HOOKS = (("floquet", "solve_ivp"),)
PATCHED = SPANNED + COUNTED + FACTORIES + HOOKS


class Tracer:
    """Spans, counts and timers of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, t0, t1, op index]
        self._stack = []
        self.op = -1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.totals = defaultdict(float)
        self.maxima = defaultdict(float)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), None, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        self_s = [t1 - t0 for _, _, t0, t1, _ in self.spans]
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= t1 - t0
        return self_s

    def span_summary(self):
        """{name: (calls, inclusive seconds, self seconds)} from the span tree."""
        out = {}
        for (name, _, t0, t1, _), own in zip(self.spans, self._self_times()):
            calls, busy, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + (t1 - t0), self_s + own)
        return out

    def self_time_by_op(self):
        """{op index: {span name: self seconds}}."""
        out = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, op), own in zip(self.spans, self._self_times()):
            out[op][name] += own
        return out

    def snapshot(self):
        """Copy of the counters, for per-op differences."""
        return dict(self.calls), dict(self.busy), dict(self.totals)


def spanned(tracer: Tracer, name: str, fn, on_result=None, on_error=None):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            tracer.end(idx)
        if on_result is not None:
            on_result(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def counted(tracer: Tracer, name: str, fn):
    calls = tracer.calls
    busy = tracer.busy

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            busy[name] += perf_counter() - t0
            calls[name] += 1

    wrapper.__wrapped__ = fn
    return wrapper


def _make_wrappers(tracer: Tracer, flq):
    totals, maxima = tracer.totals, tracer.maxima

    def on_monodromy(res):
        totals["floquet.monodromy.nfev"] += res.stats.nfev
        maxima["floquet.det_defect_max"] = max(maxima["floquet.det_defect_max"], float(res.stats.det_defect))

    def on_scan(res):
        totals["floquet.discriminant_scan.energies"] += len(res.energies)
        if len(res.det_defects):
            maxima["floquet.det_defect_max"] = max(maxima["floquet.det_defect_max"], float(res.det_defects.max()))

    def on_edges(res):
        totals["floquet.find_band_edges.edges"] += len(res)

    def on_integration_error(exc):
        if isinstance(exc, flq.FloquetIntegrationError):
            totals["floquet.integration_errors"] += 1

    special = {
        "floquet.monodromy": dict(on_result=on_monodromy, on_error=on_integration_error),
        "floquet.discriminant_scan": dict(on_result=on_scan, on_error=on_integration_error),
        "floquet.find_band_edges": dict(on_result=on_edges),
    }
    factory_names = {
        "potentials.compiled_value_fn": "potentials.V",
        "elliptic.line_jacobi": "elliptic.line_eval",
    }

    def make(mod_name, attr, orig):
        name = f"{mod_name}.{attr}"
        if (mod_name, attr) in SPANNED:
            return spanned(tracer, name, orig, **special.get(name, {}))
        if (mod_name, attr) in COUNTED:
            return counted(tracer, name, orig)
        if (mod_name, attr) in FACTORIES:
            counter = factory_names[name]

            def factory(*args, **kwargs):
                return counted(tracer, counter, orig(*args, **kwargs))

            factory.__wrapped__ = orig
            return factory

        def solve_ivp(*args, **kwargs):
            sol = orig(*args, **kwargs)
            totals["floquet.rhs_calls"] += sol.nfev
            return sol

        solve_ivp.__wrapped__ = orig
        return solve_ivp

    return make


@contextmanager
def instrument(tracer: Tracer, modules):
    """Install the tracing wrappers on `modules` ({name: module}) and restore
    every replaced attribute on exit, also when the body raises."""
    make = _make_wrappers(tracer, modules["floquet"])
    saved = []
    try:
        for mod_name, attr in PATCHED:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, make(mod_name, attr, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
