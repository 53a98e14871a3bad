"""Canonical JSON serialization for every instance and result type.

All writers emit sorted-key, tight-separator JSON with a trailing
newline, so serializing equal objects always produces identical bytes and
round trips are byte-stable.  Files are dispatched on their "type" field.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .core import (
    BOTTOM,
    BUNDLES,
    ConstraintGraph,
    Hypergraph,
    HvcInstance,
    KIND_MULTI,
    KIND_PARTIAL,
    KIND_PROOF,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
)
from .amplify import ExpanderGraph
from .solve import SolveResult
from .verifier import TableVerifier


def canonical_dumps(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# Object <-> plain payload
# ---------------------------------------------------------------------------


def graph_payload(g: ConstraintGraph) -> dict:
    return {
        "type": "constraint_graph",
        "vertices": list(g.vertices),
        "arity": g.arity,
        "alphabet": list(g.alphabet),
        "edges": [list(e) for e in g.edges],
        "tables": [list(t) for t in g.tables],
        "admissible": None
        if g.admissible is None
        else [sorted(a) for a in g.admissible],
    }


def graph_from_payload(obj: dict) -> ConstraintGraph:
    return ConstraintGraph(
        vertices=tuple(obj["vertices"]),
        arity=obj["arity"],
        alphabet=tuple(obj["alphabet"]),
        edges=tuple(tuple(e) for e in obj["edges"]),
        tables=tuple(bytes(t) for t in obj["tables"]),
        admissible=None
        if obj.get("admissible") is None
        else tuple(frozenset(a) for a in obj["admissible"]),
    )


def set_system_payload(s: SetSystem) -> dict:
    return {
        "type": "set_system",
        "elements": list(s.elements),
        "sets": [sorted(members) for members in s.sets],
        "set_labels": list(s.set_labels),
    }


def set_system_from_payload(obj: dict) -> SetSystem:
    return SetSystem(
        elements=tuple(obj["elements"]),
        sets=tuple(frozenset(m) for m in obj["sets"]),
        set_labels=tuple(obj["set_labels"]),
    )


def hypergraph_payload(h: Hypergraph) -> dict:
    return {
        "type": "hypergraph",
        "vertices": list(h.vertices),
        "hyperedges": [sorted(e) for e in h.hyperedges],
        "uniformity": h.uniformity,
    }


def hypergraph_from_payload(obj: dict) -> Hypergraph:
    return Hypergraph(
        vertices=tuple(obj["vertices"]),
        hyperedges=tuple(frozenset(e) for e in obj["hyperedges"]),
        uniformity=obj.get("uniformity"),
    )


def verifier_payload(v: TableVerifier, pi_start: str | None = None, pi_goal: str | None = None) -> dict:
    return {
        "type": "verifier",
        "r": v.r,
        "q": v.q,
        "ell": v.ell,
        "entries": [
            {"R": rnd, "queries": list(v.queries[rnd]), "table": list(v.tables[rnd])}
            for rnd in range(v.n_entries)
        ],
        "pi_start": pi_start,
        "pi_goal": pi_goal,
    }


def verifier_from_payload(obj: dict) -> tuple[TableVerifier, str | None, str | None]:
    entries = sorted(obj["entries"], key=lambda e: e["R"])
    v = TableVerifier(
        r=obj["r"],
        q=obj["q"],
        ell=obj["ell"],
        queries=tuple(tuple(e["queries"]) for e in entries),
        tables=tuple(bytes(e["table"]) for e in entries),
    )
    return v, obj.get("pi_start"), obj.get("pi_goal")


def expander_payload(x: ExpanderGraph) -> dict:
    return {
        "type": "expander",
        "n": x.n,
        "d": x.d,
        "rotation": [list(p) for p in x.rotation],
        "lambda": x.lam,
        "ratio": x.ratio,
    }


def expander_from_payload(obj: dict) -> ExpanderGraph:
    return ExpanderGraph(
        n=obj["n"],
        d=obj["d"],
        rotation=tuple(tuple(p) for p in obj["rotation"]),
        lam=obj["lambda"],
    )


def _state_payload(kind: str, state):
    if kind == KIND_PROOF:
        return state
    if kind == KIND_PARTIAL:
        return [None if a == BOTTOM else a for a in state]
    if kind == KIND_MULTI:
        return [sorted(vals) for vals in state]
    return sorted(state)


def _state_from_payload(kind: str, obj):
    if kind == KIND_PROOF:
        return obj
    if kind == KIND_PARTIAL:
        return tuple(BOTTOM if a is None else a for a in obj)
    if kind == KIND_MULTI:
        return tuple(frozenset(vals) for vals in obj)
    return frozenset(obj)


def sequence_payload(seq: ReconfigSequence) -> dict:
    return {
        "type": "sequence",
        "kind": seq.kind,
        "states": [_state_payload(seq.kind, s) for s in seq.states],
    }


def sequence_from_payload(obj: dict) -> ReconfigSequence:
    kind = obj["kind"]
    return ReconfigSequence(
        kind=kind, states=tuple(_state_from_payload(kind, s) for s in obj["states"])
    )


def solve_result_payload(res: SolveResult) -> dict:
    return {
        "type": "solve_result",
        "value": f"{res.value.numerator}/{res.value.denominator}",
        "witness": sequence_payload(res.witness),
        "states_explored": res.states_explored,
    }


def solve_result_from_payload(obj: dict) -> SolveResult:
    num, den = obj["value"].split("/")
    return SolveResult(
        value=Fraction(int(num), int(den)),
        witness=sequence_from_payload(obj["witness"]),
        states_explored=obj["states_explored"],
    )


# Instance bundles (instance plus endpoint states): bundle type -> (type
# tag, payload codec of the instance); core.BUNDLES names its field and kind.
_BUNDLES = {
    P2cspInstance: ("p2csp_instance", (graph_payload, graph_from_payload)),
    LabelCoverInstance: ("labelcover_instance", (graph_payload, graph_from_payload)),
    SetCoverInstance: ("setcover_instance", (set_system_payload, set_system_from_payload)),
    HvcInstance: ("hvc_instance", (hypergraph_payload, hypergraph_from_payload)),
}
_BUNDLE_TAGS = {tag: (cls, codec) for cls, (tag, codec) in _BUNDLES.items()}


def instance_payload(inst) -> dict:
    tag, (to_payload, _) = _BUNDLES[type(inst)]
    part, kind = BUNDLES[type(inst)]
    return {
        "type": tag,
        part: to_payload(getattr(inst, part)),
        "start": _state_payload(kind, inst.start),
        "goal": _state_payload(kind, inst.goal),
    }


def _instance_from_payload(obj: dict):
    bundle_type, (_, from_payload) = _BUNDLE_TAGS[obj["type"]]
    part, kind = BUNDLES[bundle_type]
    return bundle_type(
        from_payload(obj[part]),
        _state_from_payload(kind, obj["start"]),
        _state_from_payload(kind, obj["goal"]),
    )


# ---------------------------------------------------------------------------
# Top-level dump/load
# ---------------------------------------------------------------------------

_PAYLOAD_BUILDERS = {
    ConstraintGraph: graph_payload,
    SetSystem: set_system_payload,
    Hypergraph: hypergraph_payload,
    ExpanderGraph: expander_payload,
    ReconfigSequence: sequence_payload,
    SolveResult: solve_result_payload,
    **dict.fromkeys(_BUNDLES, instance_payload),
}

_PARSERS = {
    "constraint_graph": graph_from_payload,
    "set_system": set_system_from_payload,
    "hypergraph": hypergraph_from_payload,
    "verifier": lambda obj: verifier_from_payload(obj)[0],
    "expander": expander_from_payload,
    "sequence": sequence_from_payload,
    "solve_result": solve_result_from_payload,
    **dict.fromkeys(_BUNDLE_TAGS, _instance_from_payload),
}


def dump_bytes(obj, **kwargs) -> bytes:
    """Canonical bytes of any serializable object.

    TableVerifier accepts optional ``pi_start``/``pi_goal`` keyword proofs
    to bundle endpoint proofs with the verifier file.
    """
    if isinstance(obj, TableVerifier):
        return canonical_dumps(verifier_payload(obj, **kwargs))
    builder = _PAYLOAD_BUILDERS.get(type(obj))
    if builder is None:
        raise StructuralError(f"cannot serialize {type(obj).__name__}")
    return canonical_dumps(builder(obj))


# What reading a file that is missing, unreadable or not valid JSON of the
# expected shape raises.
_MALFORMED = (OSError, LookupError, TypeError, AttributeError, ValueError, ArithmeticError, RecursionError)


@contextmanager
def _malformed_is_structural():
    try:
        yield
    except _MALFORMED as exc:
        raise StructuralError(f"malformed input: {type(exc).__name__}: {exc}") from exc


def parse_bytes(data: bytes):
    """Object of a canonical file; malformed bytes raise ``StructuralError``."""
    with _malformed_is_structural():
        obj = json.loads(data.decode())
        kind = obj.get("type")
        parser = _PARSERS.get(kind)
        if parser is None:
            raise StructuralError(f"unknown file type {kind!r}")
        return parser(obj)


def save(obj, path, **kwargs) -> None:
    Path(path).write_bytes(dump_bytes(obj, **kwargs))


def load(path):
    """Object of a file; an unreadable file raises ``StructuralError``."""
    with _malformed_is_structural():
        return parse_bytes(Path(path).read_bytes())


def load_verifier(path) -> tuple[TableVerifier, str | None, str | None]:
    """Load a verifier file keeping its bundled endpoint proofs."""
    with _malformed_is_structural():
        obj = json.loads(Path(path).read_bytes().decode())
        if obj.get("type") != "verifier":
            raise StructuralError(f"expected a verifier file, got {obj.get('type')!r}")
        return verifier_from_payload(obj)
