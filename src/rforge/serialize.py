"""Canonical JSON serialization for every instance and result type.

One codec serves every file type.  A payload is the class's ``"type"``
tag from ``TAGS`` plus one key per dataclass field, written and read by a
codec worked out at import, once per type annotation: tuples become lists,
frozensets sorted lists, bytes 0/1 lists, fractions ``"p/q"`` in lowest
terms and nested dataclasses their payloads; the readers of the list forms
accept only a JSON list, an integer is read only from a JSON integer, a
string only from a JSON string, a fraction only as written, and a float
from a JSON number that is not a boolean.  States follow their kind, with
``BOTTOM`` as ``null``.  A set (a frozenset field, a cover, each vertex's
labels in a multi assignment) may list its members in any order, as a
verifier may list its entries, but a member listed twice is refused,
naming the field.
A verifier file is flat: ``{R, queries, table}`` entries, R running over
0 to 2^r - 1, beside the proofs ``pi_start`` and ``pi_goal``, each a 0/1
string of the proof length or null; an expander file adds ``ratio``,
which must equal ``lambda / d``.

One writer, ``_pieces``, emits every file, ``report --format json`` and
each check counterexample: sorted-key, tight-separator JSON with a trailing
newline, so serializing equal objects always produces identical bytes and
round trips are byte-stable.  It writes in pieces of bounded size, which
``save`` streams to the file and ``dump_bytes`` joins: a dict key by key, a
long list in slices of about ``PIECE_VALUES`` values per encoder call, and
each 0/1 table straight from its bytes, never as a list of ints.  So no
encoder call holds the text of a whole file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .core import (
    BOTTOM,
    BUNDLES,
    KINDS,
    KIND_MULTI,
    KIND_PARTIAL,
    KIND_PROOF,
    ConstraintGraph,
    Hypergraph,
    HvcInstance,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    TableVerifier,
    VerifierInstance,
)
from .amplify import ExpanderGraph
from .solve import SolveResult


# About how many values one encoder call writes when a long list is written
# in slices.
PIECE_VALUES = 4096

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# The bytes of a 0/1 table as the digits of its JSON list.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _table(table: bytes) -> str:
    return f"[{','.join(table.translate(_DIGITS).decode())}]"


@cache
def _key(key: str) -> str:
    return f"{_encode(key)}:"


def _whole(node) -> str:
    """Canonical JSON text of ``node`` in one piece: a dict key by key, a
    0/1 table from its bytes, and anything else in one encoder call."""
    if type(node) is dict:
        return "{" + ",".join([_key(key) + _whole(node[key]) for key in sorted(node)]) + "}"
    if type(node) is bytes:
        return _table(node)
    if type(node) is int:  # as the encoder writes it, without its set-up
        return int.__repr__(node)
    return _encode(node)


def _pieces(node):
    """Canonical JSON text of ``node`` in pieces of bounded size.

    A dict is written key by key in sorted order.  A list of dicts or of
    0/1 tables (``bytes``), or any list longer than one piece, is written
    in slices of about ``PIECE_VALUES`` values, sized from its first item;
    a slice's dicts and tables are written by `_whole`.  Anything else is
    one encoder call.
    """
    if type(node) is dict and node:
        sep = "{"
        for key in sorted(node):
            yield sep + _key(key)
            yield from _pieces(node[key])
            sep = ","
        yield "}"
    elif not isinstance(node, (list, tuple)) or not node:
        yield _whole(node)
    else:
        first = node[0]
        width = len(first) if isinstance(first, (dict, bytes, list, tuple)) else 1
        step = PIECE_VALUES // max(width, 1) or 1
        if type(first) in (dict, bytes):
            write = lambda items: ",".join(map(_whole, items))
        elif len(node) <= step:
            yield _encode(node)
            return
        else:
            write = lambda values: _encode(values)[1:-1]
        sep = "["
        for at in range(0, len(node), step):
            yield sep + write(node[at : at + step])
            sep = ","
        yield "]"


def canonical_dumps(tree) -> bytes:
    """Canonical bytes of a plain JSON payload, or of an object's tree."""
    return ("".join(_pieces(tree)) + "\n").encode()


# Type tag of each file type.
TAGS = {
    ConstraintGraph: "constraint_graph",
    SetSystem: "set_system",
    Hypergraph: "hypergraph",
    VerifierInstance: "verifier",
    ExpanderGraph: "expander",
    ReconfigSequence: "sequence",
    SolveResult: "solve_result",
    P2cspInstance: "p2csp_instance",
    LabelCoverInstance: "labelcover_instance",
    SetCoverInstance: "setcover_instance",
    HvcInstance: "hvc_instance",
}
_CLASSES = {tag: cls for cls, tag in TAGS.items()}

# Payload keys that differ from their field names.
_KEYS = {
    (ExpanderGraph, "lam"): "lambda",
    (VerifierInstance, "start"): "pi_start",
    (VerifierInstance, "goal"): "pi_goal",
}


def _same(value):
    return value


def _list_in(obj) -> list:
    """``obj`` if it is a JSON list: a string or a number is malformed."""
    if not isinstance(obj, list):
        raise StructuralError(f"expected a list, got {type(obj).__name__}")
    return obj


def _only(kind: type, name: str, items):
    """``items`` if each is exactly a ``kind`` (named ``name``): a boolean,
    say, is never an integer index, nor a null a label."""
    if not set(map(type, items)) <= {kind}:
        bad = next(type(x) for x in items if type(x) is not kind)
        raise StructuralError(f"expected {name}, got {'a boolean' if bad is bool else bad.__name__}")
    return items


_ints = partial(_only, int, "an integer")
_strs = partial(_only, str, "a string")


def _int_in(obj) -> int:
    return _ints((obj,))[0]


# Codecs of an int and a str: written as is, read only from a JSON integer
# or a JSON string.
_INT = (_same, _int_in)
_STR = (_same, lambda o: _strs((o,))[0])


def _float_in(obj) -> float:
    # ``type`` and not ``isinstance``: a JSON boolean reads as a bool, an int.
    if type(obj) not in (int, float):
        raise StructuralError(f"expected a number, got {type(obj).__name__}")
    return obj


# Codec of a float: written as is, read as a JSON number that is not a boolean.
_FLOAT = (_same, _float_in)


def _fraction_in(text: str) -> Fraction:
    # Any other spelling, such as "2/4" or "+1/2", would save back as other bytes.
    value = Fraction(text)
    if f"{value.numerator}/{value.denominator}" != text:
        raise StructuralError(f"fraction {text!r} is not written p/q in lowest terms")
    return value


def _members(items: list, field: str) -> frozenset:
    """The set of ``items``, in any order; a member listed twice is refused."""
    members = frozenset(items)
    if len(members) != len(items):
        seen = set()
        twice = next(x for x in items if x in seen or seen.add(x))
        raise StructuralError(f"{field!r} lists member {twice!r} twice")
    return members


@cache
def _codec(ann, field: str) -> tuple:
    """(writer, reader) of a value annotated ``ann`` in the field named
    ``field``, worked out once per annotation and field."""
    if ann is str:
        return _STR
    if ann is float:
        return _FLOAT
    if ann is int:
        return _INT
    if ann is bytes:
        return _same, lambda o: bytes(_ints(_list_in(o)))
    if ann is Fraction:
        return (lambda v: f"{v.numerator}/{v.denominator}"), _fraction_in
    if is_dataclass(ann):
        return (_tree if ann in TAGS else _keys), partial(_read, ann)
    origin, args = get_origin(ann), get_args(ann)
    if origin in (Union, UnionType):
        ((write, read),) = (_codec(a, field) for a in args if a is not NoneType)
        return (lambda v: None if v is None else write(v)), (lambda o: None if o is None else read(o))
    if origin in (tuple, frozenset):
        items = [_codec(a, field) for a in args if a is not Ellipsis]
        # A list of scalars is read in one call, scanned for items of another type.
        if set(items) in ({_INT}, {_STR}):
            make = tuple if origin is tuple else partial(_members, field=field)
            check = _ints if items[0] == _INT else _strs
            return (_same if origin is tuple else sorted), lambda o: make(check(_list_in(o)))
        if args[1:] == (Ellipsis,):
            ((write, read),) = items
            each = _same if write is _same else lambda v: [write(x) for x in v]
            return each, lambda o: tuple(read(x) for x in _list_in(o))
    raise TypeError(f"no codec for the annotation {ann!r}")


def _state_out(state):
    """Payload of a state of any kind: sets sorted, ``BOTTOM`` as null."""
    if isinstance(state, frozenset):
        return sorted(state)
    if isinstance(state, tuple):
        return [None if a == BOTTOM else _state_out(a) for a in state]
    return state


def _state_in(obj, kind: str, field: str):
    """State of ``kind`` from its payload in the field named ``field``, in
    the kind's one shape: a proof is a string, a cover a list of ints, a
    partial assignment a list of ints and nulls (``BOTTOM``), and a multi
    assignment a list of int lists; a set lists each member once."""
    proof = kind == KIND_PROOF
    if not isinstance(obj, str if proof else list):
        expected = "a string" if proof else "a list"
        raise StructuralError(f"a {kind} state must be {expected}, got {type(obj).__name__}")
    if kind == KIND_PARTIAL:
        obj = _ints([BOTTOM if a is None else a for a in obj])
    elif kind == KIND_MULTI:
        obj = [_members(_ints(_list_in(a)), field) for a in obj]
    elif not proof:
        obj = _members(_ints(obj), field)
    return KINDS[kind].canonical(obj)


def _fields(cls) -> tuple:
    """(field name, payload key, writer, reader, may be absent) of each field
    of ``cls``; a reader takes the value and the kind of the payload's states."""
    hints = get_type_hints(cls)
    specs = []
    for f in fields(cls):
        # Only bundles have start/goal states and only sequences have states;
        # a verifier's proofs, each optional, are read as strings or nulls.
        if f.name in ("start", "goal") and f.default is MISSING:
            write, read = _state_out, partial(_state_in, field=f.name)
        elif f.name == "states":
            write, read = _state_out, lambda o, kind: tuple(_state_in(s, kind, "states") for s in o)
        else:
            write, read_value = _codec(hints[f.name], f.name)
            read = lambda o, kind, r=read_value: r(o)
        specs.append((f.name, _KEYS.get((cls, f.name), f.name), write, read, f.default is not MISSING))
    return tuple(specs)


# ---------------------------------------------------------------------------
# Object <-> payload
# ---------------------------------------------------------------------------


def _tree(obj) -> dict:
    """What the writer writes for any serializable object: its payload, but
    with tuples kept as they are and each 0/1 table kept as its bytes."""
    cls = type(obj)
    if cls not in TAGS:
        raise StructuralError(f"cannot serialize {cls.__name__}")
    return {"type": TAGS[cls], **_keys(obj)}


def payload(obj) -> dict:
    """Plain JSON payload of any serializable object, as its file reads."""
    return json.loads(dump_bytes(obj))


def _keys(obj) -> dict:
    """Tree of ``obj`` without its type tag."""
    cls = type(obj)
    out = {key: write(getattr(obj, name)) for name, key, write, _, _ in _FIELDS[cls]}
    if cls is VerifierInstance:  # flat: the verifier's keys, rows as entries, beside the proofs
        out.update(out.pop("verifier"))
        rows = zip(out.pop("queries"), out.pop("tables"), strict=True)
        out["entries"] = [{"R": rnd, "queries": q, "table": t} for rnd, (q, t) in enumerate(rows)]
    elif cls is ExpanderGraph:
        out["ratio"] = obj.ratio
    return out


def _read(cls, obj: dict):
    """Object of type ``cls`` from its payload; the payload's tag is not read."""
    if cls is VerifierInstance:
        entries = sorted(_list_in(obj["entries"]), key=lambda e: _int_in(e["R"]))
        if [e["R"] for e in entries] != list(range(len(entries))):
            raise StructuralError(f"verifier entry indices R must be 0 to {len(entries) - 1}, each once")
        rows = {"queries": [e["queries"] for e in entries], "tables": [e["table"] for e in entries]}
        obj = {**obj, "verifier": {**obj, **rows}}
    kind = BUNDLES[cls][1] if cls in BUNDLES else obj.get("kind")
    out = cls(
        **{name: read(obj[key], kind) for name, key, _, read, optional in _FIELDS[cls] if key in obj or not optional}
    )
    # The writer stores lambda / d itself: any other ratio, even an equal
    # integer, would not save back to the same bytes.
    if cls is ExpanderGraph and (type(obj["ratio"]) is not float or obj["ratio"] != out.ratio):
        raise StructuralError(f"expander ratio {obj['ratio']!r} is not lambda / d = {out.ratio!r}")
    return out


def from_payload(obj: dict):
    """Object of a payload, dispatched on its ``"type"`` tag."""
    tag = obj.get("type")
    cls = _CLASSES.get(tag)
    if cls is None:
        raise StructuralError(f"unknown file type {tag!r}")
    return _read(cls, obj)


# Each file type's fields and a verifier's, worked out at import: no load or save reads a type hint.
_FIELDS = {cls: _fields(cls) for cls in (TableVerifier, *TAGS)}


# ---------------------------------------------------------------------------
# Top-level dump/load
# ---------------------------------------------------------------------------


def dump_bytes(obj) -> bytes:
    """Canonical bytes of any serializable object."""
    return canonical_dumps(_tree(obj))


# What reading a file that is missing, unreadable or not valid JSON of the
# expected shape raises.
_MALFORMED = (OSError, LookupError, TypeError, AttributeError, ValueError, ArithmeticError, RecursionError)


@contextmanager
def _malformed_is_structural():
    try:
        yield
    except _MALFORMED as exc:
        raise StructuralError(f"malformed input: {type(exc).__name__}: {exc}") from exc


@contextmanager
def writing(path):
    """Context in which failing to write ``path`` raises ``StructuralError``."""
    try:
        yield
    except OSError as exc:
        raise StructuralError(f"cannot write {path}: {exc.strerror or exc}") from exc


def parse_bytes(data: bytes):
    """Object of a canonical file; malformed bytes raise ``StructuralError``."""
    with _malformed_is_structural():
        return from_payload(json.loads(data.decode()))


def save(obj, path) -> None:
    """Write the canonical bytes of ``obj`` piece by piece; an unwritable
    path raises ``StructuralError``."""
    tree = _tree(obj)
    with writing(path), open(path, "wb") as out:
        out.writelines(map(str.encode, _pieces(tree)))
        out.write(b"\n")


def load(path):
    """Object of a file; an unreadable file raises ``StructuralError``."""
    with _malformed_is_structural():
        return parse_bytes(Path(path).read_bytes())


def load_verifier(path) -> VerifierInstance:
    """Object of a verifier file, any other type refused; parsed here, not
    through ``load``, so that a traced ``load`` counts each file once."""
    with _malformed_is_structural():
        obj = json.loads(Path(path).read_bytes().decode())
        if obj.get("type") != TAGS[VerifierInstance]:
            raise StructuralError(f"expected a verifier file, got {obj.get('type')!r}")
        return _read(VerifierInstance, obj)
