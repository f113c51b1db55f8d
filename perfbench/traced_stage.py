"""Run one bondtca CLI stage with a span around every call into a layer.

    python3 traced_stage.py SPANS_JSON STAGE [STAGE_ARGS...]

The stage runs through ``bondtca.cli.main`` as in an untraced run. Before
that, each layer's public functions are replaced by timing wrappers where
the CLI looks them up: ``bondtca.cli`` binds most of them by name, so the
wrapper goes into that namespace, not the defining module. Spans and
counts stay in memory and are written to SPANS_JSON when the stage ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

# name bound in bondtca.cli -> span name
CLI_SPANS = {
    "generate_trace_fixture": "synthgen.generate",
    "parse_trace_csv": "ingest.parse",
    "ingest_reports": "ingest.reconcile_filter",
    "cap_volumes": "ingest.cap",
    "group_by_cusip": "ingest.group",
    "classify_trades": "classify.classify",
    "estimate_spreads": "microstructure.spreads",
    "aggregate_weekly": "microstructure.weekly",
    "one_sided_spreads_by_day": "microstructure.one_sided",
    "build_feature_matrix": "features.build",
    "design_matrix": "features.design",
    "k_fold_cv": "regress.cv",
    "estimate_tim1": "impact.tim1",
    "solve_tim2": "impact.tim2",
    "empirical_signature": "impact.signature",
    "estimate_pair_moments": "impact.signature",
    "model_signature_tim1": "impact.signature",
    "model_signature_tim2": "impact.signature",
}


# every span name, so that a layer never called in a stage still reports 0 s
SPAN_NAMES = (
    *dict.fromkeys(CLI_SPANS.values()),
    "artifacts.read_signed",
    "artifacts.read_other",
    "artifacts.write",
    "impact.series",
)


def _grid_fits(args, kwargs, result, fn):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"regress.grid_fits": len(list(bound.arguments["grid"])) * bound.arguments["k"]}


# name -> counts taken from (args, kwargs, result, original function)
COUNTS = {
    "parse_trace_csv": lambda a, k, r, f: {"ingest.reports_in": len(r)},
    "ingest_reports": lambda a, k, r, f: {"ingest.trades_out": len(r[0])},
    "classify_trades": lambda a, k, r, f: {
        "classify.rpt_legs": sum(1 for t in r if t.is_rpt),
        "classify.signed_events": sum(1 for t in r if t.epsilon != 0),
    },
    "estimate_spreads": lambda a, k, r, f: {
        "microstructure.spread_obs": len(r),
        "microstructure.pairs": max(len(a[0]) - 1, 0),
    },
    "one_sided_spreads_by_day": lambda a, k, r, f: {"microstructure.bond_days": len(r)},
    "build_feature_matrix": lambda a, k, r, f: {"features.rows": len(r)},
    "k_fold_cv": _grid_fits,
}
COUNT_NAMES = (
    "artifacts.read_signed_calls",
    "artifacts.rows_read",
    "artifacts.rows_written",
    "ingest.reports_in",
    "ingest.trades_out",
    "classify.rpt_legs",
    "classify.signed_events",
    "microstructure.spread_obs",
    "microstructure.bond_days",
    "features.rows",
    "regress.grid_fits",
)


class Tracer:
    """Spans and counters of one process, shared by all its threads."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, str | None]] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, span, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            if stack and stack[-1] == span:
                # a call inside the same layer is covered by its caller's span
                return fn(*args, **kwargs)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(
                        (span, threading.get_ident(), start, end, stack[-1] if stack else None)
                    )
            if count is not None:
                counts = count(args, kwargs, result, fn)
                with self._lock:
                    for name, n in counts.items():
                        self.counts[name] = self.counts.get(name, 0) + n
            return result

        return traced

    def to_json_obj(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _artifact_counts(name: str):
    rows_arg = {"write_csv": 2, "write_json": None}.get(name, 1)

    def count(args, kwargs, result, fn):
        if name.startswith("read_"):
            counts = {"artifacts.rows_read": len(result) if name != "read_json" else 0}
            if name == "read_signed_trades":
                counts["artifacts.read_signed_calls"] = 1
            return counts
        rows = args[rows_arg] if rows_arg is not None and len(args) > rows_arg else None
        return {"artifacts.rows_written": len(rows) if hasattr(rows, "__len__") else 0}

    return count


def install(tracer: Tracer) -> None:
    """Replace layer functions by traced wrappers where callers look them up."""
    from bondtca import artifacts, classify, cli, impact

    for name, span in CLI_SPANS.items():
        setattr(cli, name, tracer.wrap(getattr(cli, name), span, COUNTS.get(name)))
    # classify_trades groups through its own module namespace
    classify.group_by_cusip = tracer.wrap(classify.group_by_cusip, "ingest.group")
    # cli calls artifacts.<name> on the module, and the writers call each other there
    for name, fn in list(vars(artifacts).items()):
        if inspect.isfunction(fn) and name.startswith(("read_", "write_")):
            if name == "read_signed_trades":
                span = "artifacts.read_signed"
            elif name.startswith("read_"):
                span = "artifacts.read_other"
            else:
                span = "artifacts.write"
            setattr(artifacts, name, tracer.wrap(fn, span, _artifact_counts(name)))
    series = impact.SignSeries.__dict__["from_signed_trades"].__func__
    impact.SignSeries.from_signed_trades = classmethod(tracer.wrap(series, "impact.series"))


def main(argv: list[str]) -> int:
    spans_path, stage_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    from bondtca import cli

    install(tracer)
    try:
        return cli.main(stage_argv)
    finally:
        spans_path.write_text(json.dumps(tracer.to_json_obj()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
