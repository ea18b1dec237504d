"""Unified telemetry: counters, gauges, histograms/timers, nestable
spans, event-level tracing, and structured exporters — the observability
layer for the checker, the runtime machine, the verifier, and the RPC
server.

Quick use::

    from repro import telemetry

    reg = telemetry.enable()          # fresh process-global registry
    ...check / run / verify...
    print(telemetry.render_table(reg))
    Path("out.json").write_text(telemetry.export_json(reg))
    telemetry.disable()

Event-level tracing rides alongside the registry (see
``telemetry/tracer.py``)::

    tr = telemetry.enable_tracing()   # bounded ring buffer of events
    ...spans recorded by the registry bridge and explicit tr.span()...
    Path("trace.json").write_text(json.dumps(telemetry.to_chrome(tr)))

Instrumented modules consult :func:`registry` / :func:`tracer` and skip
all work when the active instance is disabled (the default), so the off
path costs one attribute check.  See ``docs/OBSERVABILITY.md`` for every
metric name and the trace-context wire format.
"""

from .export import (
    SCHEMA,
    doc_to_registry,
    export_json,
    load_json,
    merge_doc,
    registry_to_doc,
    render_prometheus,
    render_table,
)
from .registry import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    SpanStats,
    disable,
    enable,
    registry,
    set_registry,
    use,
)
from .schema import SchemaError, validate
from .tracer import (
    TRACE_SCHEMA,
    TraceContext,
    Tracer,
    activate,
    current_context,
    current_wire,
    disable_tracing,
    enable_tracing,
    set_tracer,
    to_chrome,
    tracer,
    use_tracer,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "SCHEMA",
    "SchemaError",
    "SpanStats",
    "TRACE_SCHEMA",
    "TraceContext",
    "Tracer",
    "activate",
    "current_context",
    "current_wire",
    "disable",
    "disable_tracing",
    "doc_to_registry",
    "enable",
    "enable_tracing",
    "export_json",
    "load_json",
    "merge_doc",
    "registry",
    "registry_to_doc",
    "render_prometheus",
    "render_table",
    "set_registry",
    "set_tracer",
    "to_chrome",
    "tracer",
    "use",
    "use_tracer",
    "validate",
]
