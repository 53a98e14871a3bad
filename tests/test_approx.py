"""Insert-then-discard approximation: validity, peak identity, ratio."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rforge.approx import two_factor_cover
from rforge.core import SetCoverInstance, SetSystem, StructuralError, validate_sequence
from rforge.generate import generate_hypergraph, generate_setcover
from rforge.solve import min_cover, min_vertex_cover, solve_cost_hvc, solve_cost_setcover


def test_identical_covers_give_singleton():
    ss = SetSystem(("1",), (frozenset({0}),), ("A",))
    seq = two_factor_cover(SetCoverInstance(ss, frozenset({0}), frozenset({0})))
    assert seq.states == (frozenset({0}),)


def test_worked_example_matches_exact_cost():
    ss = SetSystem(
        ("1", "2"),
        (frozenset({0, 1}), frozenset({0}), frozenset({1})),
        ("S1", "S2", "S3"),
    )
    inst = SetCoverInstance(ss, frozenset({0}), frozenset({1, 2}))
    seq = two_factor_cover(inst)
    assert seq.states == (
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
        frozenset({1, 2}),
    )
    peak = max(len(c) for c in seq.states)
    assert peak == 3
    exact = solve_cost_setcover(inst)
    assert Fraction(peak, min_cover(ss) + 1) == exact.value  # tight here


def test_disjoint_covers_peak_is_sum():
    k = 3
    ss = SetSystem(
        tuple(f"u{i}" for i in range(k)),
        tuple(frozenset({i % k}) for i in range(2 * k)),
        tuple(f"S{i}" for i in range(2 * k)),
    )
    start = frozenset(range(k))
    goal = frozenset(range(k, 2 * k))
    seq = two_factor_cover(SetCoverInstance(ss, start, goal))
    assert max(len(c) for c in seq.states) == 2 * k == len(start | goal)


def test_infeasible_endpoint_rejected():
    ss = SetSystem(("1", "2"), (frozenset({0}), frozenset({1})), ("A", "B"))
    with pytest.raises(StructuralError, match="start is not a feasible cover"):
        SetCoverInstance(ss, frozenset({0}), frozenset({0, 1}))


def test_wrong_instance_type_rejected():
    with pytest.raises(StructuralError, match="approx expects"):
        two_factor_cover(object())


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_validity_and_peak_identity_setcover(seed):
    inst = generate_setcover(seed, n_elements=5, n_sets=6)
    seq = two_factor_cover(inst)
    assert validate_sequence(inst.system, seq, start=inst.start, goal=inst.goal).ok
    assert max(len(c) for c in seq.states) == len(inst.start | inst.goal)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_validity_and_peak_identity_hypergraph(seed):
    inst = generate_hypergraph(seed, n_vertices=6, n_edges=5)
    seq = two_factor_cover(inst)
    assert validate_sequence(inst.hypergraph, seq, start=inst.start, goal=inst.goal).ok
    assert max(len(c) for c in seq.states) == len(inst.start | inst.goal)


def test_ratio_at_most_two_on_random_instances():
    for seed in range(25):
        sc = generate_setcover(seed, n_elements=5, n_sets=5)
        seq = two_factor_cover(sc)
        peak = max(len(c) for c in seq.states)
        exact = solve_cost_setcover(sc)
        assert Fraction(peak, min_cover(sc.system) + 1) <= 2 * exact.value

        hv = generate_hypergraph(seed, n_vertices=5, n_edges=4)
        seq = two_factor_cover(hv)
        peak = max(len(c) for c in seq.states)
        exact = solve_cost_hvc(hv)
        assert Fraction(peak, min_vertex_cover(hv.hypergraph) + 1) <= 2 * exact.value
