"""Round-trip and byte-stability of every on-disk schema."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rforge import serialize
from rforge.cli import main
from rforge.amplify import ExpanderGraph, build_expander
from rforge.core import (
    BOTTOM,
    ConstraintGraph,
    Hypergraph,
    HvcInstance,
    KIND_COVER,
    KIND_MULTI,
    KIND_PARTIAL,
    KIND_PROOF,
    KIND_VERTEX_COVER,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    TableVerifier,
    VerifierInstance,
)
from rforge.generate import generate_csp, generate_verifier
from rforge.solve import SolveResult, solve_maxpar

EQ = bytes([1, 0, 0, 1])


def roundtrip(obj):
    data = serialize.dump_bytes(obj)
    again = serialize.parse_bytes(data)
    assert serialize.dump_bytes(again) == serialize.dump_bytes(again)  # stability
    return again, data


def test_constraint_graph_roundtrip():
    g = ConstraintGraph(
        ("v", "w"),
        2,
        ("a", "b"),
        ((0, 1), (0, 0)),
        (EQ, EQ),
        admissible=(frozenset({0}), frozenset({0, 1})),
    )
    again, data = roundtrip(g)
    assert again == g
    assert serialize.dump_bytes(again) == data


def test_set_system_and_hypergraph_roundtrip():
    ss = SetSystem(("1", "2"), (frozenset({0, 1}), frozenset({1})), ("A", "B"))
    again, data = roundtrip(ss)
    assert again == ss
    h = Hypergraph(("x", "y"), (frozenset({0, 1}),), uniformity=2)
    again, data = roundtrip(h)
    assert again == h


def test_verifier_roundtrip_with_proofs(tmp_path):
    inst = generate_verifier(3)
    path = tmp_path / "v.json"
    serialize.save(inst, path)
    assert serialize.load_verifier(path) == inst
    assert serialize.load(path) == inst
    # saving again is byte-identical
    data = path.read_bytes()
    serialize.save(serialize.load(path), path)
    assert path.read_bytes() == data


# Every file the README's commands write from the seed-7 verifier: each
# gen kind, each stage of a plain and of an amplified pipeline, solve
# and approx results, and the verifier without its proofs.
PLAIN_STAGES = ("00_verifier", "02_fglss", "03_normalized", "04_labelcover", "05_setcover", "06_hvc")
README_FILES = (
    [f"gen-{kind}" for kind in ("csp", "labelcover", "setcover", "hypergraph", "verifier")]
    + [f"plain/{name}" for name in PLAIN_STAGES]
    + ["amplified/01_expander", "amplified/01_amplified_verifier"]
    + [f"result-{problem}" for problem in ("maxpar", "minlab", "sc-cost", "hvc-cost")]
    + ["approx-seq", "no-proofs"]
)


@pytest.fixture(scope="module")
def readme_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("readme")
    at = lambda name: str(out / f"{name}.json")
    for kind in ("csp", "labelcover", "setcover", "hypergraph", "verifier"):
        assert main(["gen", "--kind", kind, "--seed", "7", "--out", at(f"gen-{kind}")]) == 0
    assert main(["pipeline", "--in", at("gen-verifier"), "--out-dir", str(out / "plain"), "--no-amplify"]) == 0
    amplified = ["--out-dir", str(out / "amplified"), "--rho", "2", "--cap", "1000"]
    assert main(["pipeline", "--in", at("gen-verifier"), *amplified]) == 0
    stages = {"maxpar": "02_fglss", "minlab": "04_labelcover", "sc-cost": "05_setcover", "hvc-cost": "06_hvc"}
    for problem, stage in stages.items():
        assert main(["solve", problem, "--in", at(f"plain/{stage}"), "--out", at(f"result-{problem}")]) == 0
    assert main(["approx", "--in", at("plain/05_setcover"), "--out", at("approx-seq")]) == 0
    serialize.save(VerifierInstance(serialize.load(at("gen-verifier")).verifier), at("no-proofs"))
    return out


@pytest.mark.parametrize("name", README_FILES)
def test_save_of_load_reproduces_each_readme_file(readme_files, name, tmp_path):
    path = readme_files / f"{name}.json"
    serialize.save(serialize.load(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_expander_roundtrip():
    x = build_expander(8, 4, 0.95, seed=1)
    again, data = roundtrip(x)
    assert again == x


# An expander's lambda read from a file: a JSON number in [0, d] (d = 4).
BAD_LAMBDAS = {
    "boolean": (True, "expected a number, got bool"),
    "string": ("x", "expected a number, got str"),
    "null": (None, "expected a number, got NoneType"),
    "negative": (-3.0, "lambda must be a finite number in \\[0, d\\], got -3.0"),
    "above-d": (99.0, "lambda must be a finite number in \\[0, d\\], got 99.0"),
    "nan": (float("nan"), "lambda must be a finite number in \\[0, d\\], got nan"),
    "infinity": (float("inf"), "lambda must be a finite number in \\[0, d\\], got inf"),
}


@pytest.mark.parametrize("value, message", BAD_LAMBDAS.values(), ids=BAD_LAMBDAS.keys())
def test_expander_lambda_is_a_number_in_range(value, message):
    data = serialize.payload(build_expander(8, 4, 0.95, seed=1))
    with pytest.raises(StructuralError, match=message):
        serialize.parse_bytes(json.dumps({**data, "lambda": value}).encode())
    for edge in (0, 4, 0.0, 4.0):  # both ends of the range read, with the ratio they give
        assert serialize.parse_bytes(json.dumps({**data, "lambda": edge, "ratio": edge / 4}).encode()).lam == edge


# An expander's stored ratio other than the lambda / d its writer computes.
BAD_RATIOS = {"zero": 0.0, "rounded": 0.75, "integer": 1, "boolean": True, "string": "0.75", "null": None}


@pytest.mark.parametrize("ratio", BAD_RATIOS.values(), ids=BAD_RATIOS.keys())
def test_expander_ratio_is_lambda_over_d(ratio):
    x = build_expander(8, 4, 0.95, seed=1)
    data = serialize.payload(x)
    # Beside lambda = d, an integer 1 (or true) equals the ratio 1.0 but is no float.
    with pytest.raises(StructuralError, match="expander ratio .* is not lambda / d"):
        serialize.parse_bytes(json.dumps({**data, "ratio": ratio, "lambda": 4.0 if ratio == 1 else x.lam}).encode())


def test_expander_ratio_is_required():
    data = serialize.payload(build_expander(8, 4, 0.95, seed=1))
    del data["ratio"]
    with pytest.raises(StructuralError, match="KeyError: 'ratio'"):
        serialize.parse_bytes(json.dumps(data).encode())


@pytest.mark.parametrize(
    "seq",
    [
        ReconfigSequence(KIND_PROOF, ("010", "011")),
        ReconfigSequence(KIND_PARTIAL, ((0, -1), (0, 0))),
        ReconfigSequence(KIND_MULTI, ((frozenset({0}), frozenset()),)),
        ReconfigSequence(KIND_COVER, (frozenset({0, 2}),)),
    ],
)
def test_sequence_roundtrip(seq):
    again, _ = roundtrip(seq)
    assert again == seq


def test_solve_result_roundtrip():
    g = ConstraintGraph(("v", "w"), 2, ("a", "b"), ((0, 1),), (EQ,))
    res = solve_maxpar(P2cspInstance(g, (0, 0), (1, 1)))
    again, _ = roundtrip(res)
    assert again.value == Fraction(1, 2)
    assert again.witness == res.witness
    assert again.states_explored == res.states_explored


def test_instance_bundles_roundtrip(tmp_path):
    csp = generate_csp(4)
    again, data = roundtrip(csp)
    assert again == csp
    lc = LabelCoverInstance(
        csp.graph,
        tuple(frozenset({a}) for a in csp.start),
        tuple(frozenset({a}) for a in csp.goal),
    )
    assert roundtrip(lc)[0] == lc
    ss = SetSystem(("1",), (frozenset({0}),), ("A",))
    sc = SetCoverInstance(ss, frozenset({0}), frozenset({0}))
    assert roundtrip(sc)[0] == sc
    h = Hypergraph(("x",), (frozenset({0}),))
    hv = HvcInstance(h, frozenset({0}), frozenset({0}))
    assert roundtrip(hv)[0] == hv


PINNED_GRAPH = ConstraintGraph(
    ("x", "y"),
    2,
    ("a", "b"),
    ((0, 1),),
    (bytes([1, 0, 1, 1]),),
    admissible=(frozenset({0, 1}), frozenset({1})),
)
GRAPH_BYTES = (
    b'{"admissible":[[0,1],[1]],"alphabet":["a","b"],"arity":2,"edges":[[0,1]],'
    b'"tables":[[1,0,1,1]],"type":"constraint_graph","vertices":["x","y"]}'
)

PINNED_VERIFIER = TableVerifier(
    r=1, q=2, ell=3, queries=((0, 2), (1,)), tables=(bytes([1, 0, 0, 1]), bytes([0, 1]))
)
VERIFIER_BYTES = (
    b'{"ell":3,"entries":[{"R":0,"queries":[0,2],"table":[1,0,0,1]},'
    b'{"R":1,"queries":[1],"table":[0,1]}],"pi_goal":%s,"pi_start":%s,"q":2,"r":1,"type":"verifier"}\n'
)


# Objects and their canonical files.
PINNED_FILES = [
    (
        P2cspInstance(PINNED_GRAPH, (1, 1), (BOTTOM, 1)),
        b'{"goal":[null,1],"graph":' + GRAPH_BYTES + b',"start":[1,1],"type":"p2csp_instance"}\n',
    ),
    (
        LabelCoverInstance(
            PINNED_GRAPH,
            (frozenset({1}), frozenset({1})),
            (frozenset({0, 1}), frozenset({1})),
        ),
        b'{"goal":[[0,1],[1]],"graph":' + GRAPH_BYTES
        + b',"start":[[1],[1]],"type":"labelcover_instance"}\n',
    ),
    (
        SetCoverInstance(
            SetSystem(("u", "w"), (frozenset({0, 1}), frozenset({1})), ("A", "B")),
            frozenset({0}),
            frozenset({0, 1}),
        ),
        b'{"goal":[0,1],"start":[0],"system":{"elements":["u","w"],"set_labels":["A","B"],'
        b'"sets":[[0,1],[1]],"type":"set_system"},"type":"setcover_instance"}\n',
    ),
    (
        HvcInstance(
            Hypergraph(("p", "q", "r"), (frozenset({0, 2}), frozenset({1, 2})), 2),
            frozenset({2}),
            frozenset({0, 1}),
        ),
        b'{"goal":[0,1],"hypergraph":{"hyperedges":[[0,2],[1,2]],"type":"hypergraph",'
        b'"uniformity":2,"vertices":["p","q","r"]},"start":[2],"type":"hvc_instance"}\n',
    ),
    (VerifierInstance(PINNED_VERIFIER, "010", "011"), VERIFIER_BYTES % (b'"011"', b'"010"')),
    (VerifierInstance(PINNED_VERIFIER), VERIFIER_BYTES % (b"null", b"null")),
    (
        ExpanderGraph(2, 2, ((1, 0), (1, 1), (0, 0), (0, 1)), 0.5),
        b'{"d":2,"lambda":0.5,"n":2,"ratio":0.25,"rotation":[[1,0],[1,1],[0,0],[0,1]],'
        b'"type":"expander"}\n',
    ),
    (
        ReconfigSequence(KIND_PROOF, ("010", "011")),
        b'{"kind":"proof","states":["010","011"],"type":"sequence"}\n',
    ),
    (
        ReconfigSequence(KIND_PARTIAL, ((0, BOTTOM), (0, 1))),
        b'{"kind":"partial-assignment","states":[[0,null],[0,1]],"type":"sequence"}\n',
    ),
    (
        ReconfigSequence(KIND_MULTI, ((frozenset({1, 0}), frozenset()),)),
        b'{"kind":"multi-assignment","states":[[[0,1],[]]],"type":"sequence"}\n',
    ),
    (
        ReconfigSequence(KIND_COVER, (frozenset({2, 0}), frozenset({2}))),
        b'{"kind":"cover","states":[[0,2],[2]],"type":"sequence"}\n',
    ),
    (
        ReconfigSequence(KIND_VERTEX_COVER, (frozenset({1}),)),
        b'{"kind":"vertex-cover","states":[[1]],"type":"sequence"}\n',
    ),
    (
        SolveResult(
            Fraction(3, 4), ReconfigSequence(KIND_COVER, (frozenset({0}), frozenset({0, 1}))), 7
        ),
        b'{"states_explored":7,"type":"solve_result","value":"3/4","witness":{"kind":"cover",'
        b'"states":[[0],[0,1]],"type":"sequence"}}\n',
    ),
]


@pytest.mark.parametrize("inst, expected", PINNED_FILES)
def test_instance_bundle_bytes_are_pinned(inst, expected, tmp_path):
    assert serialize.dump_bytes(inst) == expected
    assert serialize.parse_bytes(expected) == inst
    if isinstance(inst, VerifierInstance):
        path = tmp_path / "v.json"
        path.write_bytes(expected)
        assert serialize.load_verifier(path) == inst


# Files whose start the edge's table rejects (it rejects symbol pair (0, 1)):
# they were pinned as round trips before bundles checked their endpoints.
INFEASIBLE_START_FILES = {
    "p2csp": b'{"goal":[null,1],"graph":' + GRAPH_BYTES + b',"start":[0,1],"type":"p2csp_instance"}\n',
    "labelcover": b'{"goal":[[0,1],[1]],"graph":' + GRAPH_BYTES + b',"start":[[0],[1]],"type":"labelcover_instance"}\n',
}


@pytest.mark.parametrize("data", INFEASIBLE_START_FILES.values(), ids=INFEASIBLE_START_FILES.keys())
def test_a_file_with_an_infeasible_start_is_refused(data):
    with pytest.raises(StructuralError, match="start is not a feasible .* of its graph"):
        serialize.parse_bytes(data)


# Saves and loads one file of each type given on stdin, one per line, in a
# process whose type-hint reader fails once ``rforge.serialize`` is imported.
_NO_HINTS_SCRIPT = """
import sys
from pathlib import Path
from rforge import serialize

def refuse(*args, **kwargs):
    raise AssertionError("a type hint was read after import")

serialize.get_type_hints = refuse
path = Path(sys.argv[1])
for line in sys.stdin.buffer.read().splitlines(keepends=True):
    obj = serialize.parse_bytes(line)
    serialize.save(obj, path)
    assert path.read_bytes() == line, line
    assert serialize.load(path) == obj
"""


def test_save_and_load_read_no_type_hint_after_import(tmp_path):
    objects = [inst for inst, _ in PINNED_FILES]
    objects += [
        part for inst in objects for f in fields(inst) if type(part := getattr(inst, f.name)) in serialize.TAGS
    ]
    assert {type(obj) for obj in objects} == set(serialize.TAGS)
    src = str(Path(serialize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_HINTS_SCRIPT, str(tmp_path / "f.json")],
        input=b"".join(map(serialize.dump_bytes, objects)), capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("value", ["2/4", " 1/2", "-1/-2", "1_0/20", "+1/1", "01/1"])
def test_only_a_canonical_fraction_is_read(value, tmp_path):
    """Each spelling names a fraction that would save back as other text."""
    result = SolveResult(Fraction(1, 2), ReconfigSequence(KIND_COVER, (frozenset({0}),)), 1)
    data = json.loads(serialize.dump_bytes(result))
    path = tmp_path / "result.json"
    path.write_text(json.dumps({**data, "value": value}))
    with pytest.raises(StructuralError) as exc:
        serialize.load(path)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize(
    "data, expected",
    [
        (
            b'{"alphabet":["a"],"arity":2,"edges":[],"tables":[],"type":"constraint_graph",'
            b'"vertices":["x"]}',
            ConstraintGraph(("x",), 2, ("a",), (), ()),
        ),
        (
            b'{"hyperedges":[[0]],"type":"hypergraph","vertices":["x"]}',
            Hypergraph(("x",), (frozenset({0}),)),
        ),
        (
            b'{"ell":3,"entries":[{"R":0,"queries":[0,2],"table":[1,0,0,1]},'
            b'{"R":1,"queries":[1],"table":[0,1]}],"q":2,"r":1,"type":"verifier"}',
            VerifierInstance(PINNED_VERIFIER),
        ),
    ],
)
def test_absent_optional_keys_take_defaults(data, expected, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(data)
    loaded = serialize.load_verifier(path) if isinstance(expected, VerifierInstance) else serialize.load(path)
    assert loaded == expected


@pytest.mark.parametrize(
    "data",
    [
        # An integer table is not n zero bytes, in a graph or a verifier.
        b'{"alphabet":["a"],"arity":2,"edges":[[0,1]],"tables":[1],"type":"constraint_graph",'
        b'"vertices":["x","y"]}',
        b'{"ell":1,"entries":[{"R":0,"queries":[0],"table":2}],"q":1,"r":0,"type":"verifier"}',
        # A string is not a list of its characters.
        b'{"alphabet":"ab","arity":2,"edges":[],"tables":[],"type":"constraint_graph","vertices":["x"]}',
        b'{"alphabet":["a"],"arity":2,"edges":[],"tables":"","type":"constraint_graph","vertices":["x"]}',
        b'{"elements":[],"set_labels":["s"],"sets":[""],"type":"set_system"}',
    ],
    ids=["graph-int-table", "verifier-int-table", "str-alphabet", "str-tables", "str-set"],
)
def test_list_fields_reject_other_json(data):
    with pytest.raises(StructuralError, match="expected a list"):
        serialize.parse_bytes(data)


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"kind":"cover","states":["01"],"type":"sequence"}', "a cover state must be a list, got str"),
        (b'{"kind":"partial-assignment","states":["0"],"type":"sequence"}', "must be a list, got str"),
        (b'{"kind":"proof","states":[["0","1"]],"type":"sequence"}', "a proof state must be a string, got list"),
        (
            b'{"goal":[0],"start":"0","system":{"elements":["u"],"set_labels":["s"],"sets":[[0]],'
            b'"type":"set_system"},"type":"setcover_instance"}',
            "a cover state must be a list, got str",
        ),
    ],
    ids=["cover-sequence", "partial-sequence", "proof-list", "setcover-start"],
)
def test_only_a_proof_state_is_a_string(data, message):
    with pytest.raises(StructuralError, match=message):
        serialize.parse_bytes(data)


# A JSON boolean where an integer index belongs, in each place one is read.
BOOLEAN_INDICES = {
    "cover-state": b'{"goal":[0],"start":[true,0],"hypergraph":{"hyperedges":[[0,1]],"type":"hypergraph",'
    b'"vertices":["a","b"]},"type":"hvc_instance"}',
    "setcover-set": b'{"goal":[0],"start":[1],"system":{"elements":["u","v"],"set_labels":["s","t"],'
    b'"sets":[[0,true],[0,1]],"type":"set_system"},"type":"setcover_instance"}',
    "graph-edge": b'{"alphabet":["a"],"arity":2,"edges":[[true,0]],"tables":[[1]],"type":"constraint_graph",'
    b'"vertices":["x","y"]}',
    "graph-table": b'{"alphabet":["a"],"arity":2,"edges":[[1,0]],"tables":[[true]],"type":"constraint_graph",'
    b'"vertices":["x","y"]}',
    "graph-arity": b'{"alphabet":["a"],"arity":true,"edges":[],"tables":[],"type":"constraint_graph",'
    b'"vertices":["x"]}',
    "multi-label": b'{"kind":"multi-assignment","states":[[[true],[]]],"type":"sequence"}',
    "partial-symbol": b'{"kind":"partial-assignment","states":[[false,null]],"type":"sequence"}',
}


@pytest.mark.parametrize("data", BOOLEAN_INDICES.values(), ids=BOOLEAN_INDICES.keys())
def test_a_boolean_is_not_an_index(data):
    with pytest.raises(StructuralError, match="expected an integer, got a boolean"):
        serialize.parse_bytes(data)
    # The same file with an integer in place of the boolean reads: 1 or 0,
    # or 2 for the arity of a (binary) constraint graph.
    fixed = data.replace(b'"arity":true', b'"arity":2')
    serialize.parse_bytes(fixed.replace(b"true", b"1").replace(b"false", b"0"))


# A float, string, null or list where an integer belongs, in each place one is read.
NON_INTEGER_INDICES = {
    "float-cover-state": b'{"goal":[0],"start":[1.5,0],"hypergraph":{"hyperedges":[[0,1]],"type":"hypergraph",'
    b'"vertices":["a","b"]},"type":"hvc_instance"}',
    "float-setcover-set": b'{"goal":[0],"start":[1],"system":{"elements":["u","v"],"set_labels":["s","t"],'
    b'"sets":[[0,1.5],[0,1]],"type":"set_system"},"type":"setcover_instance"}',
    "string-graph-edge": b'{"alphabet":["a"],"arity":2,"edges":[["1",0]],"tables":[[1]],"type":"constraint_graph",'
    b'"vertices":["x","y"]}',
    "float-graph-arity": b'{"alphabet":["a"],"arity":2.0,"edges":[],"tables":[],"type":"constraint_graph",'
    b'"vertices":["x"]}',
    "null-multi-label": b'{"kind":"multi-assignment","states":[[[null],[]]],"type":"sequence"}',
    "list-partial-symbol": b'{"kind":"partial-assignment","states":[[[0],null]],"type":"sequence"}',
    "string-partial-symbol": b'{"kind":"partial-assignment","states":[["x",null]],"type":"sequence"}',
    "list-cover-state": b'{"kind":"cover","states":[[[0]]],"type":"sequence"}',
    "float-verifier-query": b'{"ell":1,"entries":[{"R":0,"queries":[0.0],"table":[0,1]}],"q":1,"r":0,'
    b'"type":"verifier"}',
    "string-verifier-index": b'{"ell":1,"entries":[{"R":"0","queries":[0],"table":[0,1]}],"q":1,"r":0,'
    b'"type":"verifier"}',
}


@pytest.mark.parametrize("data", NON_INTEGER_INDICES.values(), ids=NON_INTEGER_INDICES.keys())
def test_only_a_json_integer_is_an_index(data):
    with pytest.raises(StructuralError, match="expected an integer, got (float|str|NoneType|list)$"):
        serialize.parse_bytes(data)


# A null, number, boolean or list where a label belongs, in each label field.
NON_STRING_LABELS = {
    "graph-vertex": b'{"alphabet":["a"],"arity":2,"edges":[],"tables":[],"type":"constraint_graph",'
    b'"vertices":[null,"y"]}',
    "graph-alphabet": b'{"alphabet":["a",5],"arity":2,"edges":[],"tables":[],"type":"constraint_graph",'
    b'"vertices":["x"]}',
    "setsystem-element": b'{"elements":["u",true],"set_labels":["s"],"sets":[[0]],"type":"set_system"}',
    "setsystem-label": b'{"elements":["u"],"set_labels":[["s"]],"sets":[[0]],"type":"set_system"}',
    "hypergraph-vertex": b'{"hyperedges":[[0]],"type":"hypergraph","vertices":[1.5]}',
}


@pytest.mark.parametrize("data", NON_STRING_LABELS.values(), ids=NON_STRING_LABELS.keys())
def test_only_a_json_string_is_a_label(data):
    with pytest.raises(StructuralError, match="expected a string, got (NoneType|int|a boolean|list|float)$"):
        serialize.parse_bytes(data)


@pytest.mark.parametrize("indices", [[0, 0], [0, 2], [1, 2], [99, 1]], ids=["twice", "gap", "shifted", "99"])
def test_verifier_entry_indices_run_over_the_randomness(indices):
    entries = [{"R": rnd, "queries": [0], "table": [0, 1]} for rnd in indices]
    data = json.dumps({"type": "verifier", "r": 1, "q": 1, "ell": 1, "entries": entries}).encode()
    with pytest.raises(StructuralError, match="verifier entry indices R must be 0 to"):
        serialize.parse_bytes(data)


@pytest.mark.parametrize(
    "pi_start, message", [("0101", "proof length 4 != 3"), ("01", "proof length 2 != 3"), ("222", "0/1 string")]
)
def test_load_verifier_checks_its_proofs(tmp_path, pi_start, message):
    path = tmp_path / "v.json"
    path.write_bytes(VERIFIER_BYTES % (b'"011"', f'"{pi_start}"'.encode()))
    with pytest.raises(StructuralError, match=message):
        serialize.load_verifier(path)


_FIELDS = (
    "type", "graph", "system", "hypergraph", "start", "goal", "vertices", "arity", "alphabet",
    "edges", "tables", "admissible", "elements", "sets", "set_labels", "hyperedges",
    "uniformity", "r", "q", "ell", "entries", "pi_start", "pi_goal", "n", "d", "rotation", "lambda", "kind",
    "states", "value", "witness", "states_explored",
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.sampled_from(["1/0", "x", "cover"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=6),
    max_leaves=16,
)
_FILE_TYPES = st.sampled_from(sorted(serialize.TAGS.values()))


@given(
    st.binary(max_size=64)
    | _JSON_VALUES.map(lambda v: json.dumps(v).encode())
    | st.tuples(_FILE_TYPES, st.dictionaries(st.sampled_from(_FIELDS), _JSON_VALUES)).map(
        lambda tv: json.dumps({**tv[1], "type": tv[0]}).encode()
    )
)
@settings(max_examples=100, deadline=None)
def test_parse_bytes_fails_only_structurally(data):
    try:
        serialize.parse_bytes(data)
    except StructuralError:
        pass


def test_unknown_type_rejected():
    with pytest.raises(StructuralError):
        serialize.parse_bytes(b'{"type":"mystery"}')
    with pytest.raises(StructuralError):
        serialize.dump_bytes(42)


# A set that lists a member twice, in each place a set is read, with the
# message naming its field.
DUPLICATE_MEMBERS = {
    "setcover-start": (
        b'{"goal":[0],"start":[0,1,0],"system":{"elements":["u"],"set_labels":["s","t"],"sets":[[0],[0]],'
        b'"type":"set_system"},"type":"setcover_instance"}',
        "'start' lists member 0 twice",
    ),
    "set-system-set": (
        b'{"elements":["u","v"],"set_labels":["s"],"sets":[[1,0,1]],"type":"set_system"}',
        "'sets' lists member 1 twice",
    ),
    "hyperedge": (b'{"hyperedges":[[0,1,0]],"type":"hypergraph","vertices":["a","b"]}', "'hyperedges' lists member 0 twice"),
    "admissible": (
        b'{"admissible":[[1,0,1]],"alphabet":["a","b"],"arity":2,"edges":[],"tables":[],"type":"constraint_graph",'
        b'"vertices":["x"]}',
        "'admissible' lists member 1 twice",
    ),
    "multi-state": (b'{"kind":"multi-assignment","states":[[[1],[0,1,1]]],"type":"sequence"}', "'states' lists member 1 twice"),
    "cover-state": (b'{"kind":"cover","states":[[2,2]],"type":"sequence"}', "'states' lists member 2 twice"),
}


@pytest.mark.parametrize("data, message", DUPLICATE_MEMBERS.values(), ids=DUPLICATE_MEMBERS.keys())
def test_a_set_lists_each_member_once(data, message):
    with pytest.raises(StructuralError, match=message):
        serialize.parse_bytes(data)


def test_set_members_read_in_any_order(tmp_path, capsys):
    # A generated setcover instance reads back whatever the order of its
    # set members, saving them sorted; "start": [0] edited to [0, 0] exits 2.
    path = tmp_path / "sc.json"
    assert main(["gen", "--kind", "setcover", "--seed", "2", "--out", str(path)]) == 0
    canonical = path.read_bytes()
    payload = json.loads(canonical)
    assert payload["start"] == [0]
    shuffled = dict(payload, system=dict(payload["system"], sets=[members[::-1] for members in payload["system"]["sets"]]))
    assert shuffled != payload
    assert serialize.dump_bytes(serialize.from_payload(shuffled)) == canonical
    path.write_text(json.dumps(dict(payload, start=[0, 0])))
    assert main(["solve", "sc-cost", "--in", str(path)]) == 2
    assert "error: 'start' lists member 0 twice" in capsys.readouterr().err


def test_verifier_payload_orders_entries():
    v = TableVerifier(
        r=1, q=1, ell=2, queries=((0,), (1,)), tables=(bytes([1, 0]), bytes([0, 1]))
    )
    payload = serialize.payload(VerifierInstance(v))
    shuffled = dict(payload, entries=list(reversed(payload["entries"])))
    assert serialize.from_payload(shuffled) == VerifierInstance(v)
