"""Core types, satisfaction semantics, normalization, sequence validation."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from rforge import serialize
from rforge.core import (
    BOTTOM,
    ConstraintGraph,
    HvcInstance,
    Hypergraph,
    KIND_COVER,
    KIND_MULTI,
    KIND_PARTIAL,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    is_cover,
    is_vertex_cover,
    multi_size,
    normalize_self_loops,
    partial_size,
    satisfies_assignment,
    satisfies_multi,
    satisfies_partial,
    validate_sequence,
)

EQ = bytes([1, 0, 0, 1])  # equality table over a 2-symbol alphabet


def graph(edges, tables, n=2, s=2, admissible=None):
    return ConstraintGraph(
        vertices=tuple(f"v{i}" for i in range(n)),
        arity=2,
        alphabet=tuple(str(i) for i in range(s)),
        tables=tuple(tables),
        edges=tuple(edges),
        admissible=admissible,
    )


class TestConstruction:
    def test_table_size_enforced(self):
        with pytest.raises(StructuralError):
            graph([(0, 1)], [bytes([1, 0, 0])])

    @pytest.mark.parametrize("entry", [2, 255], ids=["two", "255"])
    def test_non_boolean_table_entry_rejected(self, entry):
        # The first table is 0/1; the second has one other byte at its end.
        with pytest.raises(StructuralError, match="table 1 contains a non-boolean entry"):
            graph([(0, 1), (1, 0)], [EQ, bytes([1, 0, 0, entry])])

    def test_edge_arity_enforced(self):
        with pytest.raises(StructuralError, match="edge 0 has 1 entries, expected 2"):
            graph([(0,)], [EQ])

    def test_empty_admissible_rejected(self):
        with pytest.raises(StructuralError):
            graph([(0, 1)], [EQ], admissible=(frozenset(), frozenset({0})))

    def test_unique_labels(self):
        with pytest.raises(StructuralError):
            ConstraintGraph(("v", "v"), 2, ("a",), (), ())


class TestSatisfiesPartial:
    def test_single_vertex_unassigned(self):
        g = graph([], [], n=1)
        assert satisfies_partial(g, (BOTTOM,))

    def test_equality_edge(self):
        g = graph([(0, 1)], [EQ])
        assert satisfies_partial(g, (0, 0))
        assert not satisfies_partial(g, (0, 1))

    def test_all_bottom_is_vacuous(self):
        g = graph([(0, 1)], [bytes(4)])  # all-zero table, still fine unassigned
        assert satisfies_partial(g, (BOTTOM, BOTTOM))

    def test_one_endpoint_bottom_vacuous(self):
        g = graph([(0, 1)], [bytes(4)])
        assert satisfies_partial(g, (0, BOTTOM))

    def test_admissible_filter(self):
        g = graph([(0, 1)], [bytes([1] * 4)], admissible=(frozenset({0}), frozenset({0, 1})))
        assert satisfies_partial(g, (0, 1))
        assert not satisfies_partial(g, (1, 1))
        assert satisfies_partial(g, (BOTTOM, 1))

    def test_symbol_out_of_range(self):
        g = graph([(0, 1)], [EQ])
        with pytest.raises(StructuralError):
            satisfies_partial(g, (2, 0))

    def test_arity_mismatch(self):
        with pytest.raises(StructuralError, match="only binary constraint graphs"):
            ConstraintGraph(("a", "b", "c"), 3, ("0",), ((0, 1, 2),), (bytes([1]),))


class TestSatisfiesMulti:
    def test_pair_exists(self):
        g = graph([(0, 1)], [EQ])
        assert satisfies_multi(g, (frozenset({0, 1}), frozenset({0})))

    def test_empty_endpoint_fails_edge(self):
        g = graph([(0, 1)], [EQ])
        assert not satisfies_multi(g, (frozenset(), frozenset({0})))

    def test_isolated_empty_vertex_vacuous(self):
        g = graph([], [], n=1)
        assert satisfies_multi(g, (frozenset(),))

    def test_self_loops_rejected(self):
        g = graph([(0, 0)], [EQ])
        with pytest.raises(StructuralError):
            satisfies_multi(g, (frozenset({0}), frozenset({0})))

    def test_admissible_subset_required(self):
        g = graph([(0, 1)], [bytes([1] * 4)], admissible=(frozenset({0}), frozenset({0, 1})))
        assert satisfies_multi(g, (frozenset({0}), frozenset({1})))
        assert not satisfies_multi(g, (frozenset({0, 1}), frozenset({1})))


class TestNormalizeSelfLoops:
    def test_no_loops_identity_with_full_sets(self):
        g = graph([(0, 1)], [EQ])
        norm = normalize_self_loops(g)
        assert norm.edges == g.edges and norm.tables == g.tables
        assert norm.admissible == (frozenset({0, 1}), frozenset({0, 1}))

    def test_loop_diagonal_becomes_admissible(self):
        # loop at v0 accepts only the (1,1) diagonal entry
        loop = bytes([0, 0, 0, 1])
        g = graph([(0, 0), (0, 1)], [loop, EQ])
        norm = normalize_self_loops(g)
        assert norm.edges == ((0, 1),)
        assert norm.admissible[0] == frozenset({1})
        assert norm.admissible[1] == frozenset({0, 1})

    def test_all_zero_diagonal_is_error(self):
        loop = bytes([0, 1, 1, 0])  # accepts only off-diagonal pairs
        g = graph([(0, 0)], [loop])
        with pytest.raises(StructuralError, match="unsatisfiable"):
            normalize_self_loops(g)

    def test_existing_admissible_intersected(self):
        loop = bytes([1, 0, 0, 1])
        g = graph([(0, 0)], [loop], admissible=(frozenset({0}), frozenset({0, 1})))
        norm = normalize_self_loops(g)
        assert norm.admissible[0] == frozenset({0})

    def test_partial_satisfaction_preserved(self):
        # Loops only ever test table diagonals, so satisfaction is preserved
        # state-by-state for partial assignments.
        loop = bytes([1, 0, 0, 0])
        g = graph([(0, 0), (0, 1)], [loop, EQ])
        norm = normalize_self_loops(g)
        for f in itertools.product((BOTTOM, 0, 1), repeat=2):
            assert satisfies_partial(g, f) == satisfies_partial(norm, f)


class TestFullAssignmentAgreement:
    @given(st.integers(0, 2**16 - 1), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_partial_agrees_with_qary_tables_on_full(self, table_bits, n, s):
        edges = [(i, j) for i in range(n) for j in range(i, n)]
        tables = []
        for k in range(len(edges)):
            tab = bytearray(s * s)
            for idx in range(s * s):
                tab[idx] = (table_bits >> ((k * 7 + idx) % 16)) & 1
            tables.append(bytes(tab))
        g = graph(edges, tables, n=n, s=s)
        for f in itertools.product(range(s), repeat=n):
            assert satisfies_partial(g, f) == satisfies_assignment(g, f)

    @given(st.integers(0, 2**16 - 1), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_singleton_multi_agrees_with_partial_on_full(self, table_bits, n, s):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        tables = []
        for k in range(len(edges)):
            tab = bytearray(s * s)
            for idx in range(s * s):
                tab[idx] = (table_bits >> ((k * 5 + idx) % 16)) & 1
            tables.append(bytes(tab))
        g = graph(edges, tables, n=n, s=s)
        for f in itertools.product(range(s), repeat=n):
            singletons = tuple(frozenset({a}) for a in f)
            assert satisfies_multi(g, singletons) == satisfies_partial(g, f)


class TestCovers:
    def test_is_cover(self):
        ss = SetSystem(("1", "2"), (frozenset({0, 1}), frozenset({0})), ("A", "B"))
        assert is_cover(ss, {0})
        assert not is_cover(ss, {1})

    def test_is_vertex_cover(self):
        h = Hypergraph(("a", "b", "c"), (frozenset({0, 1}), frozenset({1, 2})))
        assert is_vertex_cover(h, {1})
        assert not is_vertex_cover(h, {0})

    def test_uniformity_enforced(self):
        with pytest.raises(StructuralError):
            Hypergraph(("a", "b"), (frozenset({0}),), uniformity=2)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_set_members_must_be_elements(self, bad):
        sets = (frozenset({0, 1}), frozenset(), frozenset({1, bad}), frozenset({bad}))
        with pytest.raises(StructuralError, match=r"^set 2 references a missing element$"):
            SetSystem(("1", "2"), sets, ("A", "B", "C", "D"))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_hyperedge_members_must_be_vertices(self, bad):
        edges = (frozenset({0, 2}), frozenset(), frozenset({bad, 1}), frozenset({bad}))
        with pytest.raises(StructuralError, match=r"^hyperedge 2 references a missing vertex$"):
            Hypergraph(("a", "b", "c"), edges)


class TestValidateSequence:
    def test_singleton_cover_sequence(self):
        ss = SetSystem(("1",), (frozenset({0}),), ("A",))
        seq = ReconfigSequence(KIND_COVER, (frozenset({0}),))
        assert validate_sequence(ss, seq).ok

    def test_double_removal_flagged(self):
        ss = SetSystem(
            ("1", "2"),
            (frozenset({0, 1}), frozenset({0}), frozenset({1})),
            ("A", "B", "C"),
        )
        seq = ReconfigSequence(
            KIND_COVER, (frozenset({0, 1, 2}), frozenset({0})), )
        report = validate_sequence(ss, seq)
        assert not report.ok and report.index == 1

    def test_unsatisfying_state_flagged(self):
        g = graph([(0, 1)], [EQ])
        seq = ReconfigSequence(KIND_PARTIAL, ((0, 0), (0, 1), (1, 1)))
        report = validate_sequence(g, seq)
        assert not report.ok and report.index == 1 and report.reason == "infeasible state"

    def test_endpoint_mismatch(self):
        g = graph([], [], n=1)
        seq = ReconfigSequence(KIND_PARTIAL, ((0,),))
        assert not validate_sequence(g, seq, start=(1,)).ok

    def test_multi_step_metric(self):
        g = graph([], [])
        ok = ReconfigSequence(
            KIND_MULTI,
            ((frozenset({0}), frozenset()), (frozenset({0, 1}), frozenset())),
        )
        assert validate_sequence(g, ok).ok
        bad = ReconfigSequence(
            KIND_MULTI,
            ((frozenset({0}), frozenset()), (frozenset({1}), frozenset())),
        )
        assert not validate_sequence(g, bad).ok

    def test_kind_instance_mismatch(self):
        g = graph([], [])
        seq = ReconfigSequence(KIND_COVER, (frozenset(),))
        with pytest.raises(StructuralError):
            validate_sequence(g, seq)

    def test_empty_sequence_rejected(self):
        with pytest.raises(StructuralError):
            ReconfigSequence(KIND_PARTIAL, ())


def test_size_measures():
    assert partial_size((0, BOTTOM, 2)) == 2
    assert multi_size((frozenset({0, 1}), frozenset())) == 2


# Per state bundle: an instance, a feasible state of it, an infeasible or
# malformed one with its payload, and what the refusal says after naming
# the endpoint.
BUNDLE_ENDPOINTS = {
    "p2csp": (
        P2cspInstance, graph([(0, 1)], [EQ]), (0, 0), (0, 1), [0, 1],
        " is not a feasible partial-assignment of its graph",
    ),
    "labelcover": (
        LabelCoverInstance, graph([(0, 1)], [EQ]), (frozenset({0}),) * 2, (frozenset({0}), frozenset({1})),
        [[0], [1]], " is not a feasible multi-assignment of its graph",
    ),
    "setcover": (
        SetCoverInstance, SetSystem(("u", "w"), (frozenset({0}), frozenset({1})), ("A", "B")),
        frozenset({0, 1}), frozenset({0}), [0], " is not a feasible cover of its system",
    ),
    "hvc": (
        HvcInstance, Hypergraph(("p", "q"), (frozenset({0}), frozenset({1}))),
        frozenset({0, 1}), frozenset({1}), [1], " is not a feasible vertex-cover of its hypergraph",
    ),
}
# Malformed endpoints, refused by the feasibility test itself.
MALFORMED_ENDPOINTS = {
    "p2csp-symbol": (
        P2cspInstance, graph([(0, 1)], [EQ]), (0, 0), (0, 5), [0, 5], ": symbol 5 at vertex 1 is out of alphabet range",
    ),
    "labelcover-short": (
        LabelCoverInstance, graph([(0, 1)], [EQ]), (frozenset({0}),) * 2, (frozenset({0}),),
        [[0]], ": assignment domain must equal the vertex set",
    ),
}
REFUSED_ENDPOINTS = {**BUNDLE_ENDPOINTS, **MALFORMED_ENDPOINTS}


class TestBundleEndpoints:
    @pytest.mark.parametrize("end", ["start", "goal"])
    @pytest.mark.parametrize(
        "bundle, instance, good, bad, bad_payload, what", REFUSED_ENDPOINTS.values(), ids=REFUSED_ENDPOINTS.keys()
    )
    def test_an_infeasible_endpoint_is_refused(self, bundle, instance, good, bad, bad_payload, what, end):
        ends = {"start": good, "goal": good, end: bad}
        message = f"^{end}{what}$"
        with pytest.raises(StructuralError, match=message):
            bundle(instance, ends["start"], ends["goal"])
        data = json.dumps({**serialize.payload(bundle(instance, good, good)), end: bad_payload}).encode()
        with pytest.raises(StructuralError, match=message):
            serialize.parse_bytes(data)

    @pytest.mark.parametrize(
        "bundle, instance, good", [case[:3] for case in BUNDLE_ENDPOINTS.values()], ids=BUNDLE_ENDPOINTS.keys()
    )
    def test_endpoints_are_stored_in_canonical_form(self, bundle, instance, good):
        listed = [sorted(x) if isinstance(x, frozenset) else x for x in good]
        inst = bundle(instance, listed, listed)
        assert inst.start == inst.goal == good
        assert type(inst.start) is type(good) and [type(x) for x in inst.start] == [type(x) for x in good]
