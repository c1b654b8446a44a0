"""Per-layer metrics of a traced run.

The metric names and units here are the `per_layer` list of BENCHMARK.json;
the self-test checks that the two agree.
"""

from __future__ import annotations

# span name -> the span figures reported for it
SPAN_FIGURES = {
    "floquet.monodromy": ("calls", "busy_s", "self_s"),
    "floquet.discriminant_scan": ("calls", "busy_s"),
    "floquet.find_band_edges": ("calls", "busy_s", "self_s"),
    "spectra.pt_band_edges": ("calls", "busy_s"),
    "spectra.dispersion_analytic": ("calls", "busy_s"),
    "spectra.bloch_solution_jet": ("calls", "busy_s"),
    "cli.main": ("self_s",),
    "cli.build_spec": ("busy_s",),
}
COUNTERS = ("potentials.V", "elliptic.line_eval", "elliptic.jacobi_complex", "elliptic.theta_jets",
            "elliptic.inverse_sn")
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}
DERIVED = (
    ("floquet.monodromy.nfev", "count"),
    ("floquet.monodromy.ms_per_call", "ms"),
    ("floquet.monodromy_per_edge", "ratio"),
    ("floquet.discriminant_scan.energies", "count"),
    ("floquet.discriminant_scan.ms_per_energy", "ms"),
    ("floquet.rhs_calls", "count"),
    ("floquet.integration_errors", "count"),
    ("floquet.det_defect_max", "ratio"),
    ("potentials.V.us_per_call", "us"),
    ("cli.edges.max_abs_diff", "ratio"),
    ("trace.op_mean_s", "s"),
    ("trace.untraced_op_mean_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span, figures in SPAN_FIGURES.items():
        out += [(f"{span}.{f}", UNITS[f]) for f in figures]
    for name in COUNTERS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    return out + list(DERIVED)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, ops, untraced, traced, latency) -> dict:
    """Per-layer metrics; ``latency(outcomes)`` is the run's gated op latency,
    whose traced-minus-untraced difference is the tracing overhead."""
    spans = tracer.span_summary()
    values = {}
    for span, figures in SPAN_FIGURES.items():
        calls, busy, self_s = spans.get(span, (0, 0.0, 0.0))
        for f in figures:
            values[f"{span}.{f}"] = {"calls": calls, "busy_s": busy, "self_s": self_s}[f]
    for name in COUNTERS:
        values[f"{name}.calls"] = tracer.calls.get(name, 0)
        values[f"{name}.busy_s"] = tracer.busy.get(name, 0.0)

    totals = tracer.totals
    mono_calls, mono_busy, _ = spans.get("floquet.monodromy", (0, 0.0, 0.0))
    scan_busy = spans.get("floquet.discriminant_scan", (0, 0.0, 0.0))[1]
    energies = totals.get("floquet.discriminant_scan.energies", 0)
    edge_diffs = [o.max_abs_diff for op, o in zip(ops, traced) if op.workload == "edges" and o.passed]
    lat_traced, lat_untraced = latency(traced), latency(untraced)
    values.update({
        "floquet.monodromy.nfev": int(totals.get("floquet.monodromy.nfev", 0)),
        "floquet.monodromy.ms_per_call": _ratio(mono_busy, mono_calls, 1e3),
        "floquet.monodromy_per_edge": _ratio(mono_calls, totals.get("floquet.find_band_edges.edges", 0)),
        "floquet.discriminant_scan.energies": int(energies),
        "floquet.discriminant_scan.ms_per_energy": _ratio(scan_busy, energies, 1e3),
        "floquet.rhs_calls": int(totals.get("floquet.rhs_calls", 0)),
        "floquet.integration_errors": int(totals.get("floquet.integration_errors", 0)),
        "floquet.det_defect_max": tracer.maxima.get("floquet.det_defect_max", 0.0),
        "potentials.V.us_per_call": _ratio(tracer.busy.get("potentials.V", 0.0),
                                           tracer.calls.get("potentials.V", 0), 1e6),
        "cli.edges.max_abs_diff": max(edge_diffs, default=0.0),
        "trace.op_mean_s": lat_traced,
        "trace.untraced_op_mean_s": lat_untraced,
        "trace.overhead_s": lat_traced - lat_untraced,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}


def largest_self_times(tracer, ops) -> dict:
    """Op index -> (span name, its self time, the op's total self time) of
    the span with the largest self time inside each op."""
    by_op = tracer.self_time_by_op()
    out = {}
    for op in ops:
        selfs = by_op.get(op.index, {})
        if selfs:
            name = max(selfs, key=selfs.get)
            out[op.index] = (name, selfs[name], sum(selfs.values()))
    return out
