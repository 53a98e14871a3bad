"""Spans around rforge's public functions, recorded from outside the package.

``install`` replaces each traced function in every ``rforge`` module
namespace that holds it, so callers that imported it by name (for
example ``rforge.cli.solve_cost_hvc``) and callers inside its own module
(for example ``rforge.solve.min_cover``) both reach the wrapper.  The
forked child of an operation binds the tracer to a file and streams one
JSON line when a span opens and one when it closes; a span that never
closes was open when the operation was killed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from rforge.core import BudgetExhaustedError


def _states(args, res):
    return {"states": res.states_explored}


def _elements(args, res):
    return {"elements": res.system.n_elements}


def _vertices(args, res):
    return {"vertices": res.hypergraph.n_vertices}


def _edges(args, res):
    return {"edges": len(res.edges)}


def _saved_bytes(args, res):
    return {"bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, res):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name, counter).  Span names are the metric
# prefixes; serialize.load_verifier is a load and shares load's name.
TARGETS = (
    ("rforge.solve", "solve_maxpar", "solve.maxpar", _states),
    ("rforge.solve", "solve_minlab", "solve.minlab", _states),
    ("rforge.solve", "solve_cost_setcover", "solve.sc_cost", _states),
    ("rforge.solve", "solve_cost_hvc", "solve.hvc_cost", _states),
    ("rforge.solve", "min_cover", "solve.min_cover", None),
    ("rforge.solve", "min_vertex_cover", "solve.min_vertex_cover", None),
    ("rforge.solve", "oracle_value", "solve.oracle_value", None),
    ("rforge.reductions", "p2csp_to_labelcover", "reductions.p2csp_to_labelcover", None),
    ("rforge.reductions", "labelcover_to_setcover", "reductions.labelcover_to_setcover", _elements),
    ("rforge.reductions", "labelcover_to_hvc", "reductions.labelcover_to_hvc", _vertices),
    ("rforge.serialize", "save", "serialize.save", _saved_bytes),
    ("rforge.serialize", "load", "serialize.load", _loaded_bytes),
    ("rforge.serialize", "load_verifier", "serialize.load", _loaded_bytes),
    ("rforge.amplify", "build_expander", "amplify.build_expander", None),
    ("rforge.amplify", "amplify", "amplify.amplify", None),
    ("rforge.amplify", "walk_hit_prob", "amplify.walk_hit_prob", None),
    ("rforge.amplify", "degree_report", "amplify.degree_report", None),
    ("rforge.verifier", "accept_prob", "verifier.accept_prob", None),
    ("rforge.fglss", "build_fglss", "fglss.build_fglss", _edges),
    ("rforge.fglss", "enumerate_satisfying_partials", "fglss.enumerate_satisfying_partials", None),
    ("rforge.approx", "two_factor_cover", "approx.two_factor_cover", None),
    ("rforge.core", "normalize_self_loops", "core.normalize_self_loops", None),
    ("rforge.core", "validate_sequence", "core.validate_sequence", None),
    ("rforge.cli", "_cmd_pipeline", "cli.pipeline", None),
    ("rforge.cli", "_cmd_solve", "cli.solve", None),
    ("rforge.cli", "_cmd_check", "cli.check", None),
)
SOLVERS = ("solve.maxpar", "solve.minlab", "solve.sc_cost", "solve.hvc_cost")


class Tracer:
    """Streams span open/close events of the current operation to a file."""

    def __init__(self):
        self.fd: int | None = None
        self.op: str | None = None
        self.stack: list[int] = []
        self.next_id = 0

    def bind(self, path: Path, op: str) -> None:
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
        self.op = op

    def _emit(self, record: dict) -> None:
        os.write(self.fd, (json.dumps(record, separators=(",", ":")) + "\n").encode())

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.fd is None:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            self._emit({"ev": "open", "id": sid, "parent": parent, "op": self.op, "name": name,
                        "t": time.perf_counter()})
            close = {"ev": "close", "id": sid}
            try:
                res = fn(*args, **kwargs)
                if counter is not None:
                    close["counts"] = counter(args, res)
                return res
            except BudgetExhaustedError:
                close["exhausted"] = True
                raise
            except BaseException as exc:
                close["error"] = type(exc).__name__
                raise
            finally:
                self.stack.pop()
                close["t"] = time.perf_counter()
                self._emit(close)

        return traced


def install(tracer: Tracer) -> None:
    """Route every rforge lookup of a traced function through ``tracer``."""
    import rforge.checks
    import rforge.cli  # noqa: F401  (loads every module that looks the targets up)

    modules = [m for n, m in sys.modules.items() if n == "rforge" or n.startswith("rforge.")]

    def replace(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for module, func, name, counter in TARGETS:
        original = getattr(sys.modules[module], func)
        replace(original, tracer.wrap(name, original, counter))
    generate = sys.modules["rforge.generate"]
    for func in [name for name in vars(generate) if name.startswith("generate_")]:
        original = getattr(generate, func)
        replace(original, tracer.wrap("generate", original, None))
    suites = rforge.checks.SUITES
    for suite, fn in suites.items():
        suites[suite] = tracer.wrap(f"checks.{fn.__name__}", fn, None)


def read_spans(path: Path, killed_at: float | None) -> list[dict]:
    """Spans of one operation; open spans are closed at ``killed_at`` and flagged."""
    spans: dict[int, dict] = {}
    lines = path.read_text().splitlines() if path.exists() else []
    if killed_at is not None and lines:
        try:
            json.loads(lines[-1])
        except ValueError:  # the kill cut the last line short
            lines.pop()
    for line in lines:
        ev = json.loads(line)
        if ev["ev"] == "open":
            spans[ev["id"]] = {**ev, "start": ev["t"], "end": None}
        else:
            span = spans[ev["id"]]
            span["end"] = ev["t"]
            span.update({k: v for k, v in ev.items() if k not in ("ev", "id", "t")})
    for span in spans.values():
        if span["end"] is None:
            span["end"] = killed_at if killed_at is not None else span["start"]
            span["killed"] = True
    return list(spans.values())


def open_at_kill(spans: list[dict]) -> str | None:
    """The spans open when the operation was killed, outermost first."""
    killed = sorted((s for s in spans if s.get("killed")), key=lambda s: s["start"])
    return " > ".join(s["name"] for s in killed) or None


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Self time, call count and counters per span name, summed."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        out[f"{name}.s"] += s["end"] - s["start"] - child_time[s["id"]]
        out[f"{name}.calls"] += 1
        for key, value in s.get("counts", {}).items():
            out[f"{name}.{key}"] += value
        if s.get("exhausted"):
            out[f"{name}.exhausted"] += 1
        if name in SOLVERS:
            out["solve.started"] += 1
            out["solve.returned"] += "counts" in s
    return out
