"""Exact solvers: frozen examples, oracle agreement, laws, budget errors."""

import itertools
import random
from fractions import Fraction

import pytest

from rforge.core import (
    BudgetExhaustedError,
    ConstraintGraph,
    Hypergraph,
    SetSystem,
    StructuralError,
    multi_size,
    partial_size,
    transpose,
    validate_sequence,
)
from rforge.generate import (
    generate_csp,
    generate_hypergraph,
    generate_labelcover,
    generate_setcover,
)
from rforge.solve import (
    PROBLEM_HVC_COST,
    PROBLEM_MAXPAR,
    PROBLEM_MINLAB,
    PROBLEM_SC_COST,
    decide_gap,
    enumerate_feasible_states,
    min_cover,
    min_vertex_cover,
    oracle_value,
    sequence_objective,
    solve_cost_hvc,
    solve_cost_setcover,
    solve_maxpar,
    solve_minlab,
)

EQ = bytes([1, 0, 0, 1])


def graph(edges, tables, n=2, s=2):
    return ConstraintGraph(
        vertices=tuple(f"v{i}" for i in range(n)),
        arity=2,
        alphabet=tuple(str(i) for i in range(s)),
        edges=tuple(edges),
        tables=tuple(tables),
    )


class TestMaxpar:
    def test_singleton(self):
        g = graph([], [], n=1, s=1)
        res = solve_maxpar(g, (0,), (0,))
        assert res.value == 1
        assert len(res.witness.states) == 1

    def test_two_isolated_vertices(self):
        g = graph([], [], n=2, s=2)
        res = solve_maxpar(g, (0, 0), (1, 1))
        # flip each vertex directly, never unassigning
        assert res.value == 1
        assert res.value == oracle_value(PROBLEM_MAXPAR, g, (0, 0), (1, 1))

    def test_equality_edge_forces_half(self):
        g = graph([(0, 1)], [EQ])
        res = solve_maxpar(g, (0, 0), (1, 1))
        assert res.value == Fraction(1, 2)
        assert res.value == oracle_value(PROBLEM_MAXPAR, g, (0, 0), (1, 1))

    def test_witness_validates_and_reproduces_value(self):
        g = graph([(0, 1)], [EQ])
        res = solve_maxpar(g, (0, 0), (1, 1))
        assert validate_sequence(g, res.witness, start=(0, 0), goal=(1, 1)).ok
        assert sequence_objective(PROBLEM_MAXPAR, g, res.witness) == res.value

    def test_infeasible_endpoint(self):
        g = graph([(0, 1)], [EQ])
        with pytest.raises(StructuralError, match="infeasible"):
            solve_maxpar(g, (0, 1), (0, 0))

    def test_budget_exhausted_is_loud(self):
        g = graph([(0, 1)], [EQ])
        with pytest.raises(BudgetExhaustedError):
            solve_maxpar(g, (0, 0), (1, 1), cap=2)

    def test_env_var_overrides_default_cap(self, monkeypatch):
        g = graph([(0, 1)], [EQ])
        monkeypatch.setenv("RFORGE_CAP", "2")
        with pytest.raises(BudgetExhaustedError):
            solve_maxpar(g, (0, 0), (1, 1))
        monkeypatch.setenv("RFORGE_CAP", "10000")
        assert solve_maxpar(g, (0, 0), (1, 1)).value == Fraction(1, 2)


class TestMinlab:
    def test_singleton_sequence_value(self):
        g = graph([(0, 1)], [EQ])
        f = (frozenset({0}), frozenset({0}))
        res = solve_minlab(g, f, f)
        assert res.value == Fraction(2, 3)  # size |V| over |V|+1

    def test_unconstrained_vertex_can_clear(self):
        # A vertex with no incident edges may pass through the empty label
        # set, so the peak stays at one label.
        g = graph([], [], n=1, s=2)
        res = solve_minlab(g, (frozenset({0}),), (frozenset({1}),))
        assert res.value == Fraction(1, 2)
        assert res.value == oracle_value(
            PROBLEM_MINLAB, g, (frozenset({0}),), (frozenset({1}),)
        )

    def test_equality_edge_forces_four(self):
        g = graph([(0, 1)], [EQ])
        start = (frozenset({0}), frozenset({0}))
        goal = (frozenset({1}), frozenset({1}))
        res = solve_minlab(g, start, goal)
        assert res.value == Fraction(4, 3)
        assert res.value == oracle_value(PROBLEM_MINLAB, g, start, goal)
        assert sequence_objective(PROBLEM_MINLAB, g, res.witness) == res.value
        assert validate_sequence(g, res.witness, start=start, goal=goal).ok

    def test_endpoint_law(self):
        for seed in range(5):
            inst = generate_labelcover(seed, n_vertices=3, alphabet_size=2, ensure_incident=True)
            res = solve_minlab(inst.graph, inst.start, inst.goal)
            n = inst.graph.n_vertices
            assert res.value >= Fraction(multi_size(inst.start), n + 1)
            assert res.value >= Fraction(n, n + 1)


class TestMinCover:
    def test_trivial(self):
        ss = SetSystem(("1",), (frozenset({0}),), ("A",))
        assert min_cover(ss) == 1

    def test_exhaustive_check(self):
        ss = SetSystem(
            ("1", "2"),
            (frozenset({0, 1}), frozenset({0}), frozenset({1})),
            ("A", "B", "C"),
        )
        assert min_cover(ss) == 1
        # brute-force oracle over all subfamilies
        best = min(
            bin(mask).count("1")
            for mask in range(8)
            if set().union(*[ss.sets[i] for i in range(3) if mask >> i & 1] or [set()])
            == {0, 1}
        )
        assert best == 1

    def test_uncoverable(self):
        ss = SetSystem(("1", "2"), (frozenset({0}),), ("A",))
        with pytest.raises(StructuralError, match="universe is not coverable by the family"):
            min_cover(ss)

    def test_random_against_bruteforce(self):
        for seed in range(10):
            inst = generate_setcover(seed, n_elements=5, n_sets=5)
            ss = inst.system
            brute = min(
                bin(mask).count("1")
                for mask in range(2**ss.n_sets)
                if set().union(
                    *[ss.sets[i] for i in range(ss.n_sets) if mask >> i & 1] or [set()]
                )
                == set(range(ss.n_elements))
            )
            assert min_cover(ss) == brute


class TestMinVertexCover:
    def test_single_hyperedge(self):
        h = Hypergraph(tuple("abcd"), (frozenset({0, 1, 2, 3}),))
        assert min_vertex_cover(h) == 1

    def test_empty_hyperedge_rejected(self):
        h = Hypergraph(("a",), (frozenset(),))
        with pytest.raises(StructuralError, match="hypergraph has an empty hyperedge"):
            min_vertex_cover(h)

    def test_random_against_bruteforce(self):
        for seed in range(10):
            inst = generate_hypergraph(seed, n_vertices=6, n_edges=5)
            h = inst.hypergraph
            brute = min(
                bin(mask).count("1")
                for mask in range(2**h.n_vertices)
                if all(
                    any(mask >> v & 1 for v in e) for e in h.hyperedges
                )
            )
            assert min_vertex_cover(h) == brute


def _brute_min_hitting(n_items, hitsets):
    """Fewest of ``n_items`` items meeting every hit set, over all subsets."""
    return min(
        bin(mask).count("1")
        for mask in range(2**n_items)
        if all(any(mask >> i & 1 for i in t) for t in hitsets)
    )


class TestMinHitting:
    @pytest.mark.parametrize("first_seed", range(0, 200, 25))
    def test_cover_of_system_equals_vertex_cover_of_transpose(self, first_seed):
        duplicates = 0
        for seed in range(first_seed, first_seed + 25):
            rng = random.Random(seed)
            n, m = rng.randint(0, 9), rng.randint(1, 7)
            sets = [{e for e in range(n) if rng.random() < 0.3} for _ in range(m)]
            for e in range(n):  # make the family cover the universe
                sets[rng.randrange(m)].add(e)
            if n and rng.random() < 0.5:  # an element copying another's family
                e, copy = rng.randrange(n), rng.randrange(n)
                for members in sets:
                    if copy in members:
                        members.add(e)
                    else:
                        members.discard(e)
            ss = SetSystem(
                tuple(map(str, range(n))), tuple(map(frozenset, sets)), tuple(map(str, range(m)))
            )
            families = transpose(ss.sets, n)
            h = Hypergraph(tuple(map(str, range(m))), tuple(map(frozenset, families)))
            duplicates += len(set(h.hyperedges)) < len(h.hyperedges)
            assert min_cover(ss) == min_vertex_cover(h) == _brute_min_hitting(m, families)
        assert duplicates > 0

    def test_search_beats_the_greedy_bound(self):
        # The path 3-4-1-2-0: greedy takes vertex 1 for the first edge and
        # ends with three vertices, but {2, 4} covers every edge.
        edges = tuple(map(frozenset, [{1, 4}, {3, 4}, {1, 2}, {0, 2}]))
        h = Hypergraph(tuple("abcde"), edges)
        ss = SetSystem(tuple("wxyz"), tuple(map(frozenset, transpose(edges, 5))), tuple("abcde"))
        assert min_vertex_cover(h) == min_cover(ss) == 2

    @pytest.mark.parametrize(
        "solve, instance",
        [
            (min_cover, SetSystem((), (frozenset(),), ("A",))),
            (min_cover, SetSystem((), (), ())),
            (min_vertex_cover, Hypergraph(("a",), ())),
        ],
    )
    def test_nothing_to_meet_needs_nothing(self, solve, instance):
        assert solve(instance) == 0


class TestCostSetcover:
    def test_stay_put(self):
        ss = SetSystem(("1",), (frozenset({0}), frozenset({0})), ("A", "B"))
        res = solve_cost_setcover(ss, frozenset({0}), frozenset({0}))
        assert res.value == Fraction(1, 2)

    def test_swap_through_union(self):
        ss = SetSystem(
            ("1", "2"),
            (frozenset({0, 1}), frozenset({0}), frozenset({1})),
            ("A", "B", "C"),
        )
        res = solve_cost_setcover(ss, frozenset({0}), frozenset({1, 2}))
        assert res.value == Fraction(3, 2)
        assert res.value == oracle_value(
            PROBLEM_SC_COST, ss, frozenset({0}), frozenset({1, 2})
        )
        assert validate_sequence(ss, res.witness, start=frozenset({0}), goal=frozenset({1, 2})).ok
        assert sequence_objective(PROBLEM_SC_COST, ss, res.witness) == res.value

    def test_disjoint_singletons(self):
        k = 3
        ss = SetSystem(
            tuple(f"u{i}" for i in range(k)),
            tuple(frozenset({i}) for i in range(k)),
            tuple(f"S{i}" for i in range(k)),
        )
        full = frozenset(range(k))
        res = solve_cost_setcover(ss, full, full)
        assert res.value == Fraction(k, k + 1)

    def test_endpoint_law(self):
        for seed in range(5):
            inst = generate_setcover(seed)
            res = solve_cost_setcover(inst.system, inst.start, inst.goal)
            opt = min_cover(inst.system)
            assert res.value >= Fraction(max(len(inst.start), len(inst.goal)), opt + 1)


class TestCostHvc:
    def test_single_edge_swap(self):
        h = Hypergraph(("a", "b"), (frozenset({0, 1}),))
        res = solve_cost_hvc(h, frozenset({0}), frozenset({1}))
        assert res.value == 1
        assert res.value == oracle_value(PROBLEM_HVC_COST, h, frozenset({0}), frozenset({1}))

    def test_two_disjoint_edges_swap(self):
        h = Hypergraph(tuple("abcd"), (frozenset({0, 1}), frozenset({2, 3})))
        start, goal = frozenset({0, 2}), frozenset({1, 3})
        res = solve_cost_hvc(h, start, goal)
        assert min_vertex_cover(h) == 2
        assert res.value == 1
        assert res.value == oracle_value(PROBLEM_HVC_COST, h, start, goal)
        assert validate_sequence(h, res.witness, start=start, goal=goal).ok
        assert sequence_objective(PROBLEM_HVC_COST, h, res.witness) == res.value

    def test_stay_put(self):
        h = Hypergraph(("a", "b"), (frozenset({0, 1}),))
        res = solve_cost_hvc(h, frozenset({0}), frozenset({0}))
        assert res.value == Fraction(1, 2)


class TestDecideGap:
    def test_examples(self):
        assert decide_gap(Fraction(1), Fraction(1), Fraction(1, 2), "max") == "complete"
        # a value inside a min-type gap interval
        assert decide_gap(Fraction(3, 2), Fraction(1), Fraction(9, 5), "min") == "neither"
        assert decide_gap(Fraction(3, 2), Fraction(1), Fraction(4, 3), "min") == "sound"

    def test_malformed_thresholds(self):
        with pytest.raises(StructuralError):
            decide_gap(Fraction(1), Fraction(1, 2), Fraction(1), "max")
        with pytest.raises(StructuralError):
            decide_gap(Fraction(1), Fraction(2), Fraction(1), "min")
        with pytest.raises(StructuralError):
            decide_gap(Fraction(1), Fraction(1), Fraction(1), "sideways")


class TestThresholdMonotonicity:
    def test_reachability_only_grows_as_threshold_loosens(self):
        g = graph([(0, 1)], [EQ])
        states = enumerate_feasible_states(PROBLEM_MAXPAR, g)

        def reachable(theta):
            allowed = [f for f in states if partial_size(f) >= theta]
            frontier = {(0, 0)} if partial_size((0, 0)) >= theta else set()
            seen = set(frontier)
            while frontier:
                nxt = set()
                for f in frontier:
                    for h in allowed:
                        if h not in seen and sum(a != b for a, b in zip(f, h)) == 1:
                            nxt.add(h)
                seen |= nxt
                frontier = nxt
            return seen

        for theta in range(2, -1, -1):
            looser = reachable(theta - 1) if theta > 0 else reachable(0)
            assert reachable(theta) <= looser


class TestRawLimit:
    @pytest.mark.parametrize(
        "problem, instance",
        [
            (PROBLEM_MAXPAR, graph([], [], n=12, s=2)),  # 3^12 partial assignments
            (PROBLEM_MINLAB, graph([], [], n=10, s=2)),  # 4^10 label-set tuples
            (PROBLEM_SC_COST, SetSystem(("u",), (frozenset({0}),) * 20, tuple(f"S{i}" for i in range(20)))),
            (PROBLEM_HVC_COST, Hypergraph(tuple(f"w{i}" for i in range(20)), ())),
        ],
    )
    def test_refused_above_the_limit(self, problem, instance):
        with pytest.raises(StructuralError, match="raw state space"):
            enumerate_feasible_states(problem, instance)

    def test_limit_is_inclusive(self):
        system = SetSystem(("u",), (frozenset({0}),) * 4, tuple(f"S{i}" for i in range(4)))
        assert len(enumerate_feasible_states(PROBLEM_SC_COST, system, raw_limit=16)) == 15
        with pytest.raises(StructuralError):
            enumerate_feasible_states(PROBLEM_SC_COST, system, raw_limit=15)

    def test_wide_alphabet_refused_before_building_subsets(self, monkeypatch):
        built, original = [], itertools.combinations

        def combinations(symbols, k):
            # Fail fast rather than build the 2^30 label subsets of a vertex.
            built.append(k)
            if len(built) > 2:
                raise AssertionError("label subsets built before the raw-size check")
            return original(symbols, k)

        monkeypatch.setattr(itertools, "combinations", combinations)
        g = graph([(0, 1)], [bytes(30 * 30)], s=30)
        with pytest.raises(StructuralError, match="raw state space"):
            enumerate_feasible_states(PROBLEM_MINLAB, g)
        assert built == []


class TestOracleAgreementSpot:
    def test_all_four_problems(self):
        inst = generate_csp(11, n_vertices=2, alphabet_size=2, density=1.0)
        res = solve_maxpar(inst.graph, inst.start, inst.goal)
        assert res.value == oracle_value(PROBLEM_MAXPAR, inst.graph, inst.start, inst.goal)

        lc = generate_labelcover(12, n_vertices=2, alphabet_size=2, density=1.0)
        res = solve_minlab(lc.graph, lc.start, lc.goal)
        assert res.value == oracle_value(PROBLEM_MINLAB, lc.graph, lc.start, lc.goal)

        sc = generate_setcover(13, n_elements=3, n_sets=4)
        res = solve_cost_setcover(sc.system, sc.start, sc.goal)
        assert res.value == oracle_value(PROBLEM_SC_COST, sc.system, sc.start, sc.goal)

        hv = generate_hypergraph(14, n_vertices=4, n_edges=3)
        res = solve_cost_hvc(hv.hypergraph, hv.start, hv.goal)
        assert res.value == oracle_value(PROBLEM_HVC_COST, hv.hypergraph, hv.start, hv.goal)
