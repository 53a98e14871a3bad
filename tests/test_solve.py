"""Exact solvers: frozen examples, oracle agreement, laws, budget errors."""

import dataclasses
import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from rforge import checks, serialize, solve
from rforge.cli import _STEPS, main
from rforge.core import (
    BOTTOM,
    KINDS,
    KIND_COVER,
    KIND_MULTI,
    KIND_PARTIAL,
    KIND_VERTEX_COVER,
    BudgetExhaustedError,
    ConstraintGraph,
    HvcInstance,
    Hypergraph,
    LabelCoverInstance,
    P2cspInstance,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    multi_size,
    normalize_self_loops,
    partial_size,
    satisfies_partial,
    transpose,
    validate_sequence,
)
from rforge.fglss import build_fglss, enumerate_satisfying_partials
from rforge.generate import (
    _full_satisfying,
    generate_csp,
    generate_hypergraph,
    generate_labelcover,
    generate_setcover,
    generate_verifier,
)
from rforge.reductions import labelcover_to_hvc, labelcover_to_setcover
from rforge.solve import (
    DEFAULT_CAP,
    PROBLEM_HVC_COST,
    PROBLEM_MAXPAR,
    PROBLEM_MINLAB,
    PROBLEM_SC_COST,
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
        res = solve_maxpar(P2cspInstance(g, (0,), (0,)))
        assert res.value == 1
        assert len(res.witness.states) == 1

    def test_two_isolated_vertices(self):
        inst = P2cspInstance(graph([], [], n=2, s=2), (0, 0), (1, 1))
        res = solve_maxpar(inst)
        # flip each vertex directly, never unassigning
        assert res.value == 1
        assert res.value == oracle_value(PROBLEM_MAXPAR, inst)

    def test_equality_edge_forces_half(self):
        inst = P2cspInstance(graph([(0, 1)], [EQ]), (0, 0), (1, 1))
        res = solve_maxpar(inst)
        assert res.value == Fraction(1, 2)
        assert res.value == oracle_value(PROBLEM_MAXPAR, inst)

    def test_witness_validates_and_reproduces_value(self):
        g = graph([(0, 1)], [EQ])
        res = solve_maxpar(P2cspInstance(g, (0, 0), (1, 1)))
        assert validate_sequence(g, res.witness, start=(0, 0), goal=(1, 1)).ok
        assert sequence_objective(PROBLEM_MAXPAR, g, res.witness) == res.value

    def test_infeasible_endpoint(self):
        g = graph([(0, 1)], [EQ])
        with pytest.raises(StructuralError, match="start is not a feasible partial-assignment of its graph"):
            P2cspInstance(g, (0, 1), (0, 0))

    def test_budget_exhausted_is_loud(self):
        g = graph([(0, 1)], [EQ])
        with pytest.raises(BudgetExhaustedError):
            solve_maxpar(P2cspInstance(g, (0, 0), (1, 1)), cap=2)

    @staticmethod
    def looped_csps(count: int):
        """Generated CSPs with self-loops, random diagonals, added at some
        vertices; only draws whose endpoints still satisfy the graph."""
        rng = random.Random(2024)
        seed = 0
        while count:
            seed += 1
            inst = generate_csp(seed, n_vertices=rng.randrange(3, 6), alphabet_size=rng.randrange(2, 4))
            g = inst.graph
            s = g.n_symbols
            edges, tables = list(g.edges), list(g.tables)
            for v in range(g.n_vertices):
                if rng.random() < 0.5:
                    at = rng.randrange(len(edges) + 1)
                    edges.insert(at, (v, v))
                    tables.insert(at, bytes(rng.random() < 0.6 for _ in range(s * s)))
            looped = ConstraintGraph(g.vertices, 2, g.alphabet, tuple(edges), tuple(tables))
            if looped.has_self_loops() and all(
                satisfies_partial(looped, f) for f in (inst.start, inst.goal)
            ):
                count -= 1
                yield P2cspInstance(looped, inst.start, inst.goal)

    def test_self_loops_restrict_their_vertex(self):
        # A loop at v reads only its diagonal, so it bars v from the symbols
        # the diagonal rejects, on every state of the witness.
        for inst in self.looped_csps(40):
            res = solve_maxpar(inst)
            assert res.value == oracle_value(PROBLEM_MAXPAR, inst)
            assert validate_sequence(inst.graph, res.witness, start=inst.start, goal=inst.goal).ok
            assert sequence_objective(PROBLEM_MAXPAR, inst.graph, res.witness) == res.value

    def test_a_loop_bars_a_bridge_symbol(self):
        # Symbol 2 goes with anything on the edge, but both loops' diagonals
        # reject it.  Without the loops (0,0) -> (2,0) -> (2,1) -> (1,1)
        # keeps both vertices assigned; with them a vertex must unassign.
        bridge = bytes([1, 0, 1, 0, 1, 1, 1, 1, 1])
        diagonal = bytes([1, 0, 0, 0, 1, 0, 0, 0, 0])
        g = graph([(0, 0), (0, 1), (1, 1)], [diagonal, bridge, diagonal], s=3)
        inst = P2cspInstance(g, (0, 0), (1, 1))
        res = solve_maxpar(inst)
        assert res.value == Fraction(1, 2) == oracle_value(PROBLEM_MAXPAR, inst)
        assert validate_sequence(g, res.witness, start=(0, 0), goal=(1, 1)).ok


class TestMinlab:
    def test_singleton_sequence_value(self):
        g = graph([(0, 1)], [EQ])
        f = (frozenset({0}), frozenset({0}))
        res = solve_minlab(LabelCoverInstance(g, f, f))
        assert res.value == Fraction(2, 3)  # size |V| over |V|+1

    def test_unconstrained_vertex_can_clear(self):
        # A vertex with no incident edges may pass through the empty label
        # set, so the peak stays at one label.
        inst = LabelCoverInstance(graph([], [], n=1, s=2), (frozenset({0}),), (frozenset({1}),))
        res = solve_minlab(inst)
        assert res.value == Fraction(1, 2)
        assert res.value == oracle_value(PROBLEM_MINLAB, inst)

    def test_equality_edge_forces_four(self):
        g = graph([(0, 1)], [EQ])
        start = (frozenset({0}), frozenset({0}))
        goal = (frozenset({1}), frozenset({1}))
        inst = LabelCoverInstance(g, start, goal)
        res = solve_minlab(inst)
        assert res.value == Fraction(4, 3)
        assert res.value == oracle_value(PROBLEM_MINLAB, inst)
        assert sequence_objective(PROBLEM_MINLAB, g, res.witness) == res.value
        assert validate_sequence(g, res.witness, start=start, goal=goal).ok

    def test_endpoint_law(self):
        for seed in range(5):
            inst = generate_labelcover(seed, n_vertices=3, alphabet_size=2, ensure_incident=True)
            res = solve_minlab(inst)
            n = inst.graph.n_vertices
            assert res.value >= Fraction(multi_size(inst.start), n + 1)
            assert res.value >= Fraction(n, n + 1)


class TestBudgetBoundary:
    # Each instance's states_explored under the two-ended search: both
    # trees' stored states, each seeded endpoint included, count against
    # the budget, so exactly that many is enough and one fewer runs out.
    CASES = {
        "maxpar-3": (PROBLEM_MAXPAR, lambda: generate_csp(3, n_vertices=4, alphabet_size=3), 11),
        "maxpar-4": (PROBLEM_MAXPAR, lambda: generate_csp(4, n_vertices=4, alphabet_size=3), 30),
        "minlab-2": (PROBLEM_MINLAB, lambda: generate_labelcover(2), 12),
        "minlab-3": (PROBLEM_MINLAB, lambda: generate_labelcover(3), 14),
        "sc-cost-1": (PROBLEM_SC_COST, lambda: generate_setcover(1, n_elements=6), 6),
        "sc-cost-5": (PROBLEM_SC_COST, lambda: generate_setcover(5, n_elements=6), 7),
        "hvc-cost-0": (PROBLEM_HVC_COST, lambda: generate_hypergraph(0, 6, 5, 3), 8),
        "hvc-cost-5": (PROBLEM_HVC_COST, lambda: generate_hypergraph(5, 6, 5, 3), 15),
    }

    @pytest.mark.parametrize("problem, make, states", CASES.values(), ids=CASES.keys())
    def test_cap_of_states_explored_is_exactly_enough(self, problem, make, states):
        inst = make()
        assert solve.solve_instance(problem, inst, cap=states).states_explored == states
        with pytest.raises(BudgetExhaustedError):
            solve.solve_instance(problem, inst, cap=states - 1)


def bfs(kind: str, instance, start, obeys) -> dict:
    """Steps from ``start`` to each state it reaches over the kind's
    neighbour relation, through feasible states whose size ``obeys``."""
    k = KINDS[kind]
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in k.neighbours(instance, x):
            if y not in dist and obeys(k.size(y)) and k.feasible(instance, y):
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


class TestTwoEndedSearch:
    """The threshold engine's witness is a shortest path at its threshold."""

    TINY = {
        PROBLEM_MAXPAR: lambda seed: generate_csp(seed, n_vertices=3, alphabet_size=2),
        PROBLEM_MINLAB: lambda seed: generate_labelcover(seed),
        PROBLEM_SC_COST: lambda seed: generate_setcover(seed),
        PROBLEM_HVC_COST: lambda seed: generate_hypergraph(seed, 5, 4, 3),
    }

    @staticmethod
    def distance(problem, inst, theta):
        """Steps from start to goal by BFS over the reconfiguration graph,
        through feasible states obeying ``theta``."""
        p = solve.SOLVERS[problem]
        obeys = (lambda k: k >= theta) if p.maximize else (lambda k: k <= theta)
        return bfs(p.kind, getattr(inst, p.part), inst.start, obeys)[inst.goal]

    @pytest.mark.parametrize("problem", TINY)
    def test_witness_is_a_shortest_path_at_the_threshold(self, problem):
        p = solve.SOLVERS[problem]
        moved = 0
        for seed in range(40):
            inst = self.TINY[problem](seed)
            res = solve.solve_instance(problem, inst)
            states = res.witness.states
            theta = res.value * p.denominator(getattr(inst, p.part))
            assert len(states) - 1 == self.distance(problem, inst, theta), seed
            assert len(set(states)) == len(states), seed
            moved += len(states) > 2
        assert moved

    @staticmethod
    def engine(edges, weight, start, goal, thetas, cap=DEFAULT_CAP):
        """Run the engine on an explicit undirected graph whose state w
        obeys theta when ``weight[w] <= theta``; also return the states
        expanded, in order."""
        near = {}
        for v, w in edges:
            near.setdefault(v, []).append(w)
            near.setdefault(w, []).append(v)
        expanded = []

        def expand(state, theta):
            expanded.append((theta, state))
            return (w for w in sorted(near.get(state, ())) if weight[w] <= theta)

        return solve._threshold_search(thetas, start, goal, expand, cap), expanded

    def test_start_adjacent_to_goal(self):
        (theta, path, used), expanded = self.engine([(0, 1)], {0: 0, 1: 0}, 0, 1, [0])
        # Both seeds, then the goal stored again in the start tree.
        assert (theta, path, used, expanded) == (0, [0, 1], 3, [(0, 0)])

    def test_meeting_found_while_expanding_the_goal_side(self):
        # Start's first level holds 1, 2 and 3; goal 9 reaches 1 through 8.
        edges = [(0, 1), (0, 2), (0, 3), (1, 8), (8, 9)]
        weight = dict.fromkeys([0, 1, 2, 3, 8, 9], 0)
        (theta, path, used), expanded = self.engine(edges, weight, 0, 9, [0])
        assert expanded == [(0, 0), (0, 9), (0, 8)]  # 8's level is the smaller
        assert (theta, path, used) == (0, [0, 1, 8, 9], 7)
        with pytest.raises(BudgetExhaustedError):
            self.engine(edges, weight, 0, 9, [0], cap=used - 1)
        assert self.engine(edges, weight, 0, 9, [0], cap=used)[0] == (theta, path, used)

    def test_goal_frontier_empties_first(self):
        # At theta 0 the goal has no neighbour, and the start component
        # (0-3) is refuted without expanding past its first level.  At
        # theta 1 the goal reaches it through 4.
        edges = [(0, 1), (0, 2), (1, 3), (2, 4), (4, 9)]
        weight = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 9: 0}
        (theta, path, used), expanded = self.engine(edges, weight, 0, 9, [0, 1])
        assert [state for t, state in expanded if t == 0] == [0, 9]
        assert (theta, path) == (1, [0, 2, 4, 9])
        assert used == 4 + 6  # theta 0: seeds, 1, 2; theta 1: seeds, 1, 2, 4, then 2 in the goal tree


class TestSatisfying:
    """The one pruned search behind both assignment enumerators, checked
    against product-then-filter on graphs with self-loops, parallel and
    reversed edges and admissible sets, which generated CSPs lack."""

    @staticmethod
    def random_graphs(count: int):
        rng = random.Random(10)
        for _ in range(count):
            n, s = rng.randint(1, 5), rng.randint(1, 3)
            edges = []
            for _ in range(rng.randint(0, 2 * n)):
                v = rng.randrange(n)
                edges.append((v, v if rng.random() < 0.25 else rng.randrange(n)))
            tables = [bytes(rng.random() < 0.6 for _ in range(s * s)) for _ in edges]
            admissible = None
            if rng.random() < 0.5:
                admissible = tuple(frozenset(rng.sample(range(s), rng.randint(1, s))) for _ in range(n))
            yield ConstraintGraph(
                vertices=tuple(f"v{i}" for i in range(n)),
                arity=2,
                alphabet=tuple(str(a) for a in range(s)),
                edges=tuple(edges),
                tables=tuple(tables),
                admissible=admissible,
            )

    @staticmethod
    def brute(g, bottom: bool, prefix: int | None = None):
        """Satisfying assignments of the first ``prefix`` vertices (all by
        default), the rest unassigned, in lexicographic order."""
        k = g.n_vertices if prefix is None else prefix
        options = [([BOTTOM] if bottom else []) + sorted(g.allowed_symbols(v)) for v in range(k)]
        rest = (BOTTOM,) * (g.n_vertices - k)
        return [f + rest for f in itertools.product(*options) if satisfies_partial(g, f + rest)]

    def test_the_graphs_have_loops_and_admissible_sets(self):
        graphs = list(self.random_graphs(200))
        assert sum(any(v == w for v, w in g.edges) for g in graphs) > 50
        assert sum(g.admissible is not None for g in graphs) > 50

    def test_full_assignments_match_a_filtered_product(self):
        for g in self.random_graphs(200):
            assert _full_satisfying(g) == self.brute(g, bottom=False)

    def test_partial_assignments_match_a_bottom_first_product(self):
        for g in self.random_graphs(200):
            assert list(enumerate_satisfying_partials(g)) == self.brute(g, bottom=True)

    def test_node_budget_boundary(self):
        for g in self.random_graphs(120):
            # Every consistent prefix offers its next vertex BOTTOM and each
            # allowed symbol, pruned ones included: one node per value.
            nodes = sum(
                len(self.brute(g, True, k)) * (1 + len(g.allowed_symbols(k)))
                for k in range(g.n_vertices)
            )
            every = self.brute(g, bottom=True)
            assert list(enumerate_satisfying_partials(g, limit=nodes)) == every
            # The last node offers every vertex its largest symbol; when that
            # assignment satisfies, it is the last one yielded, after the node.
            last = tuple(max(g.allowed_symbols(v)) for v in range(g.n_vertices))
            expected = every[:-1] if every[-1] == last else every
            got = []
            with pytest.raises(BudgetExhaustedError, match=f"exceeded {nodes - 1} nodes"):
                for f in enumerate_satisfying_partials(g, limit=nodes - 1):
                    got.append(f)
            assert got == expected

    @pytest.mark.parametrize("normalized, nodes", [(False, 1100), (True, 660)])
    def test_readme_seed7_node_counts_are_pinned(self, normalized, nodes):
        # Captured before the two enumerators were merged.  The self-loops
        # of the unnormalized graph reject symbols that still count as nodes.
        g = build_fglss(generate_verifier(7).verifier)
        if normalized:
            g = normalize_self_loops(g)
        assert len(list(enumerate_satisfying_partials(g, limit=nodes))) == 253
        for limit, yielded in ((nodes - 1, 253), (nodes // 2, 126)):
            got = []
            with pytest.raises(BudgetExhaustedError):
                for f in enumerate_satisfying_partials(g, limit=limit):
                    got.append(f)
            assert len(got) == yielded


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
        res = solve_cost_setcover(SetCoverInstance(ss, frozenset({0}), frozenset({0})))
        assert res.value == Fraction(1, 2)

    def test_swap_through_union(self):
        ss = SetSystem(
            ("1", "2"),
            (frozenset({0, 1}), frozenset({0}), frozenset({1})),
            ("A", "B", "C"),
        )
        inst = SetCoverInstance(ss, frozenset({0}), frozenset({1, 2}))
        res = solve_cost_setcover(inst)
        assert res.value == Fraction(3, 2)
        assert res.value == oracle_value(PROBLEM_SC_COST, inst)
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
        res = solve_cost_setcover(SetCoverInstance(ss, full, full))
        assert res.value == Fraction(k, k + 1)

    def test_endpoint_law(self):
        for seed in range(5):
            inst = generate_setcover(seed)
            res = solve_cost_setcover(inst)
            opt = min_cover(inst.system)
            assert res.value >= Fraction(max(len(inst.start), len(inst.goal)), opt + 1)


class TestCostHvc:
    def test_single_edge_swap(self):
        inst = HvcInstance(Hypergraph(("a", "b"), (frozenset({0, 1}),)), frozenset({0}), frozenset({1}))
        res = solve_cost_hvc(inst)
        assert res.value == 1
        assert res.value == oracle_value(PROBLEM_HVC_COST, inst)

    def test_two_disjoint_edges_swap(self):
        h = Hypergraph(tuple("abcd"), (frozenset({0, 1}), frozenset({2, 3})))
        start, goal = frozenset({0, 2}), frozenset({1, 3})
        inst = HvcInstance(h, start, goal)
        res = solve_cost_hvc(inst)
        assert min_vertex_cover(h) == 2
        assert res.value == 1
        assert res.value == oracle_value(PROBLEM_HVC_COST, inst)
        assert validate_sequence(h, res.witness, start=start, goal=goal).ok
        assert sequence_objective(PROBLEM_HVC_COST, h, res.witness) == res.value

    def test_stay_put(self):
        h = Hypergraph(("a", "b"), (frozenset({0, 1}),))
        res = solve_cost_hvc(HvcInstance(h, frozenset({0}), frozenset({0})))
        assert res.value == Fraction(1, 2)


def _padded_instance(rng: random.Random):
    """Random hit sets padded with single-incidence items and superset hit
    sets, and feasible start and goal, equal in some draws.  Item n meets
    the same hit sets as another item, so each dominates the other, and
    start holds it."""
    n = rng.randint(2, 4)
    hitsets = [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 4))]
    hitsets += [t | {rng.randrange(n)} for t in hitsets if rng.random() < 0.5]
    copied = rng.randrange(n)
    for t in hitsets:
        if copied in t:
            t.add(n)
    items = n + 1
    for t in hitsets:
        for _ in range(rng.randint(0, 2)):
            if items < 9:
                t.add(items)
                items += 1

    def feasible():
        state = {i for i in range(items) if rng.random() < 0.3}
        return frozenset(state | {min(t) for t in hitsets if not state & t})

    start = feasible() | {n}
    goal = start if rng.random() < 0.2 else feasible()
    return items, [frozenset(t) for t in hitsets], start, goal


class TestKernel:
    """The cover-cost core solves a kernel with the optimum of the instance."""

    @pytest.mark.parametrize("first_seed", range(0, 120, 30))
    def test_kernel_solve_equals_the_oracle(self, first_seed):
        same = shrunk = 0
        for seed in range(first_seed, first_seed + 30):
            n, hitsets, start, goal = _padded_instance(random.Random(seed))
            items, _ = solve._kernel(hitsets, start | goal)
            assert start | goal <= set(items)
            same += start == goal
            shrunk += len(items) < n
            labels = tuple(f"i{i}" for i in range(n))
            h = Hypergraph(labels, tuple(hitsets))
            elements = tuple(f"t{r}" for r in range(len(hitsets)))
            ss = SetSystem(elements, tuple(map(frozenset, transpose(hitsets, n))), labels)
            for problem, instance, bundle, solver in (
                (PROBLEM_HVC_COST, h, HvcInstance, solve_cost_hvc),
                (PROBLEM_SC_COST, ss, SetCoverInstance, solve_cost_setcover),
            ):
                inst = bundle(instance, start, goal)
                res = solver(inst)
                assert res.value == oracle_value(problem, inst), (seed, problem)
                assert validate_sequence(instance, res.witness, start=start, goal=goal).ok
                assert sequence_objective(problem, instance, res.witness) == res.value
        assert same and shrunk

    def test_rules_run_to_a_fixpoint(self):
        # (a) drops {0,1,2}, which contains {0,1}; (b) drops 2, which 3
        # dominates; then (a) drops {3,4}, (b) drops 4 and (a) drops {0,1}.
        # Item 0 is in start, so it stays though it meets no hit set.
        hitsets = [{0, 1}, {0, 1, 2}, {2, 3}, {1, 4}, {3, 4}]
        items, sets = solve._kernel(hitsets, frozenset({0, 3}))
        assert items == [0, 1, 3]
        assert set(sets) == {frozenset({1}), frozenset({3})}

    def test_equal_endpoints_build_no_kernel(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("kernel built for equal endpoints")

        monkeypatch.setattr(solve, "_kernel", no_kernel)
        h = Hypergraph(tuple("abc"), (frozenset({0, 1}), frozenset({1, 2})))
        res = solve_cost_hvc(HvcInstance(h, frozenset({0, 2}), frozenset({0, 2})), cap=0)
        assert res.value == 1
        assert (res.witness.states, res.states_explored) == ((frozenset({0, 2}),), 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_hvc_kernel_is_the_setcover_kernel(self, seed):
        # Padding is exactly what the single-incidence pass removes.
        def labeled(kernel, labels):
            items, sets = kernel
            return [labels[i] for i in items], {frozenset(labels[i] for i in t) for t in sets}

        for t in range(50):
            inst = checks._cost_instance(seed, t)
            sc = labelcover_to_setcover(inst)
            hv = labelcover_to_hvc(inst)
            families = transpose(sc.system.sets, sc.system.n_elements)
            sc_kernel = solve._kernel(families, sc.start | sc.goal)
            hv_kernel = solve._kernel(hv.hypergraph.hyperedges, hv.start | hv.goal)
            assert labeled(sc_kernel, sc.system.set_labels) == labeled(hv_kernel, hv.hypergraph.vertices)


README_SEED7_REPORT = """\
| stage | metric | value |
| --- | --- | --- |
| verifier | r/q/ell | 2/2/3 |
| verifier | max-degree | 3 |
| verifier | regular | None |
| verifier | accept(start) | 1 |
| verifier | accept(goal) | 1 |
| fglss | vertices/edges/alphabet | 4/10/9 |
| fglss | maxpar | 3/4 (~0.750000) |
| normalized | vertices/edges/admissible | 4/6/20 |
| labelcover | minlab | 6/5 (~1.200000) |
| setcover | universe/sets | 192/20 |
| setcover | opt | 4 |
| setcover | cost | 6/5 (~1.200000) |
| hvc | vertices/hyperedges/uniformity | 659/192/10 |
| hvc | beta | 4 |
| hvc | cost | 6/5 (~1.200000) |
"""


class TestKernelPipelines:
    """`pipeline --no-amplify` on verifiers whose padded hvc-cost search
    did not finish before the kernel."""

    @staticmethod
    def _pipeline(tmp_path, seed: int) -> tuple[str, dict]:
        serialize.save(generate_verifier(seed), tmp_path / "v.json")
        stages = tmp_path / "stages"
        argv = ["pipeline", "--in", str(tmp_path / "v.json"), "--out-dir", str(stages), "--no-amplify"]
        assert main(argv) == 0
        report = (stages / "report.md").read_text()
        rows = (line.strip("|").split("|") for line in report.splitlines()[2:])
        return report, {(s.strip(), m.strip()): v.strip() for s, m, v in rows}

    def test_readme_seed7_report_is_pinned(self, tmp_path, capsys):
        report, _ = self._pipeline(tmp_path, 7)
        assert report == README_SEED7_REPORT
        # Both kernels have 16 items and 18 hit sets, against 20 sets and
        # 192 elements, or 659 vertices and 192 hyperedges (3,072 elements,
        # or 34,820 vertices, when every edge block was the full cube).
        sc = serialize.load(tmp_path / "stages" / "05_setcover.json")
        hv = serialize.load(tmp_path / "stages" / "06_hvc.json")
        families = transpose(sc.system.sets, sc.system.n_elements)
        for hitsets, inst in ((families, sc), (hv.hypergraph.hyperedges, hv)):
            items, sets = solve._kernel(hitsets, inst.start | inst.goal)
            assert (len(items), len(sets)) == (16, 18)

    @pytest.mark.parametrize("seed", [2, 3, 6, 9])
    def test_costs_agree(self, tmp_path, capsys, seed):
        _, rows = self._pipeline(tmp_path, seed)
        assert rows["labelcover", "minlab"] == rows["setcover", "cost"] == rows["hvc", "cost"]


class TestThresholdMonotonicity:
    def test_reachability_only_grows_as_threshold_loosens(self):
        g = graph([(0, 1)], [EQ])

        def reachable(theta):
            if partial_size((0, 0)) < theta:
                return set()
            return set(bfs(KIND_PARTIAL, g, (0, 0), lambda k: k >= theta))

        for theta in range(2, -1, -1):
            looser = reachable(theta - 1) if theta > 0 else reachable(0)
            assert reachable(theta) <= looser


def raw_states(kind: str, instance) -> list:
    """Every state of ``kind`` on ``instance``, feasible or not, by a product."""
    if kind in (KIND_COVER, KIND_VERTEX_COVER):
        n = instance.n_sets if kind == KIND_COVER else instance.n_vertices
        return [frozenset(itertools.compress(range(n), bits)) for bits in itertools.product((0, 1), repeat=n)]
    symbols = [sorted(instance.allowed_symbols(v)) for v in range(instance.n_vertices)]
    if kind == KIND_PARTIAL:
        return list(itertools.product(*([BOTTOM, *syms] for syms in symbols)))
    subsets = (
        [frozenset(itertools.compress(syms, bits)) for bits in itertools.product((0, 1), repeat=len(syms))]
        for syms in symbols
    )
    return list(itertools.product(*subsets))


class TestOracleWalk:
    """The oracle walks the reconfiguration graph by each kind's neighbour
    relation, testing each state it reaches once."""

    ADMISSIBLE = ConstraintGraph(
        vertices=("a", "b", "c"),
        arity=2,
        alphabet=("0", "1", "2"),
        edges=((0, 1),),
        tables=(bytes(9),),
        admissible=(frozenset({0, 2}), frozenset({1}), frozenset({0, 1, 2})),
    )
    TINY = {
        "partial": (KIND_PARTIAL, graph([(0, 1)], [EQ], n=3)),
        "partial-admissible": (KIND_PARTIAL, ADMISSIBLE),
        "multi": (KIND_MULTI, graph([(0, 1)], [EQ], n=3, s=2)),
        "multi-admissible": (KIND_MULTI, ADMISSIBLE),
        "cover": (KIND_COVER, SetSystem(("u", "w"), (frozenset({0}), frozenset({0, 1}), frozenset()), tuple("ABC"))),
        "vertex-cover": (KIND_VERTEX_COVER, Hypergraph(tuple("pqrs"), (frozenset({0, 1}),))),
    }

    @pytest.mark.parametrize("kind, instance", TINY.values(), ids=TINY.keys())
    def test_neighbours_are_the_raw_states_one_step_away(self, kind, instance):
        k = KINDS[kind]
        raw = raw_states(kind, instance)
        for x in raw:
            near = list(k.neighbours(instance, x))
            assert len(near) == len(set(near)), x
            assert set(near) == {y for y in raw if k.step(x, y) == 1}, x

    @pytest.fixture(scope="class")
    def readme_stages(self):
        """README seed 7's stages, built as the ``reduce`` chain builds them."""
        fglss = _STEPS["fglss"].reduce(generate_verifier(7))
        lc = _STEPS["p2l"].reduce(_STEPS["normalize"].reduce(fglss))
        return {
            PROBLEM_MAXPAR: fglss,
            PROBLEM_MINLAB: lc,
            PROBLEM_SC_COST: _STEPS["l2sc"].reduce(lc),
            PROBLEM_HVC_COST: _STEPS["l2hvc"].reduce(lc),
        }

    @pytest.mark.parametrize(
        "problem, value",
        [(PROBLEM_MAXPAR, Fraction(3, 4)), (PROBLEM_MINLAB, Fraction(6, 5)), (PROBLEM_SC_COST, Fraction(6, 5))],
    )
    def test_readme_seed7_stages_equal_the_solvers(self, readme_stages, problem, value):
        inst = readme_stages[problem]
        assert oracle_value(problem, inst) == solve.solve_instance(problem, inst).value == value

    @staticmethod
    def counted(monkeypatch, kind: str) -> list:
        """Every state ``KINDS[kind].feasible`` tests from now on, in order."""
        tested, feasible = [], KINDS[kind].feasible

        def counting(instance, state):
            tested.append(state)
            return feasible(instance, state)

        monkeypatch.setitem(KINDS, kind, dataclasses.replace(KINDS[kind], feasible=counting))
        return tested

    def test_readme_seed7_hvc_cost_is_refused_within_the_limit(self, readme_stages, monkeypatch):
        # 659 vertices, 640 of them padding: each pop has 659 neighbours.
        monkeypatch.setattr(solve, "ORACLE_STATE_LIMIT", 2000)
        tested = self.counted(monkeypatch, KIND_VERTEX_COVER)
        with pytest.raises(StructuralError, match="more than 2000 feasibility tests"):
            oracle_value(PROBLEM_HVC_COST, readme_stages[PROBLEM_HVC_COST])
        assert len(tested) == 2000

    def test_limit_counts_feasibility_tests_and_is_inclusive(self, monkeypatch):
        inst = generate_setcover(5, n_elements=3, n_sets=4)
        tested = self.counted(monkeypatch, KIND_COVER)
        value = oracle_value(PROBLEM_SC_COST, inst)
        tests = len(tested)
        assert tests == len(set(tested)) > 1  # each state reached is tested once
        monkeypatch.setattr(solve, "ORACLE_STATE_LIMIT", tests)
        assert oracle_value(PROBLEM_SC_COST, inst) == value
        monkeypatch.setattr(solve, "ORACLE_STATE_LIMIT", tests - 1)
        with pytest.raises(StructuralError, match="feasibility tests"):
            oracle_value(PROBLEM_SC_COST, inst)


class TestOracleAgreementSpot:
    def test_all_four_problems(self):
        inst = generate_csp(11, n_vertices=2, alphabet_size=2, density=1.0)
        res = solve_maxpar(inst)
        assert res.value == oracle_value(PROBLEM_MAXPAR, inst)

        lc = generate_labelcover(12, n_vertices=2, alphabet_size=2, density=1.0)
        res = solve_minlab(lc)
        assert res.value == oracle_value(PROBLEM_MINLAB, lc)

        sc = generate_setcover(13, n_elements=3, n_sets=4)
        res = solve_cost_setcover(sc)
        assert res.value == oracle_value(PROBLEM_SC_COST, sc)

        hv = generate_hypergraph(14, n_vertices=4, n_edges=3)
        res = solve_cost_hvc(hv)
        assert res.value == oracle_value(PROBLEM_HVC_COST, hv)
