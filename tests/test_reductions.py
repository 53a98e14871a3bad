"""Gap-preserving reductions: lifting, gadgets, coverage equivalence, padding."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from rforge import reductions, serialize
from rforge.cli import main
from rforge.core import (
    ConstraintGraph,
    LabelCoverInstance,
    P2cspInstance,
    StructuralError,
    is_cover,
    is_vertex_cover,
    multi_edge_satisfied,
    multi_size,
    satisfies_multi,
    validate_sequence,
)
from rforge.generate import generate_labelcover
from rforge.reductions import (
    cover_to_labels,
    labelcover_to_hvc,
    labelcover_to_setcover,
    labels_to_cover,
    lift_partial_sequence,
    p2csp_to_labelcover,
    project_multi_sequence,
    q_alpha,
    q_subset,
    qbar_alpha,
)
from rforge.solve import (
    min_cover,
    min_vertex_cover,
    solve_cost_hvc,
    solve_cost_setcover,
    solve_maxpar,
    solve_minlab,
)

EQ = bytes([1, 0, 0, 1])
IMPL = bytes([1, 1, 0, 1])  # asymmetric: accepts all but (1, 0)


def graph(edges, tables, n=2, s=2):
    return ConstraintGraph(
        vertices=tuple(f"v{i}" for i in range(n)),
        arity=2,
        alphabet=tuple(str(i) for i in range(s)),
        edges=tuple(edges),
        tables=tuple(tables),
    )


def all_subfamilies(m):
    for mask in range(2**m):
        yield frozenset(i for i in range(m) if mask >> i & 1)


def covers_block(system, chosen, e_idx, b_size):
    block = set(range(e_idx * b_size, (e_idx + 1) * b_size))
    covered = set()
    for i in chosen:
        covered |= system.sets[i]
    return block <= covered


def edge_satisfied(g, e_idx, f):
    v, w = g.edges[e_idx]
    s = g.n_symbols
    return any(g.tables[e_idx][a * s + b] for a in f[v] for b in f[w])


class TestLifting:
    def test_singleton_lift(self):
        g = graph([(0, 1)], [EQ])
        inst = p2csp_to_labelcover(P2cspInstance(g, (0, 0), (1, 1)))
        assert multi_size(inst.start) == g.n_vertices
        assert satisfies_multi(g, inst.start) and satisfies_multi(g, inst.goal)

    def test_non_full_rejected(self):
        g = graph([(0, 1)], [EQ])
        with pytest.raises(StructuralError, match="full"):
            p2csp_to_labelcover(P2cspInstance(g, (0, -1), (0, 0)))

    def test_half_step_witness(self):
        g = graph([(0, 1)], [bytes([1, 1, 1, 1])])
        inst = P2cspInstance(g, (0, 0), (1, 1))
        res = solve_maxpar(inst)
        assert res.value == 1
        lifted = p2csp_to_labelcover(inst)
        half = lift_partial_sequence(g, res.witness)
        report = validate_sequence(g, half, start=lifted.start, goal=lifted.goal)
        assert report.ok
        assert max(multi_size(f) for f in half.states) == g.n_vertices + 1
        assert solve_minlab(lifted).value == 1

    def test_projection_is_valid_and_bounded(self):
        # singleton projection of any label sequence is a valid partial
        # sequence, and state sizes obey |f'| >= 2N - #singletons when no
        # vertex can go empty
        for seed in range(6):
            inst = generate_labelcover(
                seed, n_vertices=3, alphabet_size=2, ensure_incident=True, distinct_endpoints=True
            )
            res = solve_minlab(inst)
            proj = project_multi_sequence(inst.graph, res.witness)
            assert validate_sequence(inst.graph, proj).ok
            n = inst.graph.n_vertices
            for f_multi in res.witness.states:
                singles = sum(1 for vals in f_multi if len(vals) == 1)
                assert multi_size(f_multi) >= 2 * n - singles


class TestGadgets:
    def test_basic_laws_two_symbols(self):
        b = frozenset(range(4))
        assert qbar_alpha(2, 0) | q_subset(2, {0}) == b
        # x with bit 0 set and bit 1 clear escapes Qbar_0 ∪ Q_{1}
        assert qbar_alpha(2, 0) | q_subset(2, {1}) == b - {1}

    def test_empty_subset_never_completes(self):
        b = frozenset(range(8))
        assert q_subset(3, ()) == frozenset()
        for alpha in range(3):
            assert q_alpha(3, alpha) | qbar_alpha(3, alpha) == b
            assert qbar_alpha(3, alpha) | q_subset(3, ()) != b

    def test_multi_value_law_exhaustive(self):
        # union of Qbar over A plus Q_S covers the cube iff A meets S
        for sigma in range(1, 5):
            b = frozenset(range(2**sigma))
            symbols = list(range(sigma))
            for a_mask in range(2**sigma):
                chosen_a = [x for x in symbols if a_mask >> x & 1]
                for s_mask in range(2**sigma):
                    chosen_s = {x for x in symbols if s_mask >> x & 1}
                    union = q_subset(sigma, chosen_s)
                    for alpha in chosen_a:
                        union |= qbar_alpha(sigma, alpha)
                    covers = union == b
                    meets = any(alpha in chosen_s for alpha in chosen_a)
                    assert covers == meets

    def test_out_of_range_symbol_rejected(self):
        gadgets = (
            q_alpha,
            qbar_alpha,
            lambda sigma, a: q_subset(sigma, {0, a}),
            lambda sigma, a: qbar_alpha(sigma, 0, {0, a}),  # a in the support
        )
        for gadget in gadgets:
            for alpha in (5, 2, -1):
                with pytest.raises(StructuralError, match="outside the alphabet"):
                    gadget(2, alpha)


def uneven_labelcover(seed: int) -> LabelCoverInstance:
    """A generated 3-vertex label cover over 3 symbols with a random
    admissible set per vertex that keeps its start and goal labels; a
    vertex may be on no edge."""
    rng = random.Random(seed)
    inst = generate_labelcover(seed, n_vertices=3, alphabet_size=3, density=0.7, ensure_incident=False)
    g = inst.graph
    admissible = []
    for v in range(g.n_vertices):
        keep = inst.start[v] | inst.goal[v]
        extra = [a for a in range(g.n_symbols) if a not in keep]
        admissible.append(keep | frozenset(rng.sample(extra, rng.randrange(len(extra) + 1))))
    graph = ConstraintGraph(g.vertices, 2, g.alphabet, g.edges, g.tables, tuple(admissible))
    return LabelCoverInstance(graph, inst.start, inst.goal)


class TestRestrictedGadgets:
    """Each edge's block spans only the admissible symbols A of its endpoint
    with fewer of them: B_A = {x : supp(x) ⊆ A}."""

    def test_law_on_every_support(self):
        # Q̄_a ∪ Q_S ⊇ B_A iff a in S, for every A ⊆ Sigma, a in A, S ⊆ A
        for sigma in range(1, 5):
            for a_mask in range(1, 2**sigma):
                support = [x for x in range(sigma) if a_mask >> x & 1]
                block = frozenset(x for x in range(2**sigma) if x & ~a_mask == 0)
                for s_mask in range(2**sigma):
                    if s_mask & ~a_mask:
                        continue
                    chosen_s = {x for x in support if s_mask >> x & 1}
                    q = q_subset(sigma, chosen_s, support)
                    assert q <= block
                    for alpha in support:
                        qbar = qbar_alpha(sigma, alpha, support)
                        assert qbar <= block
                        assert (qbar | q >= block) == (alpha in chosen_s)

    def test_coverage_is_edge_satisfaction_on_uneven_admissible_sets(self):
        flipped = 0
        for seed in range(20):
            inst = uneven_labelcover(seed)
            g = inst.graph
            flipped += sum(len(g.admissible[w]) < len(g.admissible[v]) for v, w in g.edges)
            system = labelcover_to_setcover(inst).system
            blocks = [
                {i for i, label in enumerate(system.elements) if label.startswith(f"(e{e_idx},")}
                for e_idx in range(len(g.edges))
            ]
            for chosen in all_subfamilies(system.n_sets):
                f = cover_to_labels(g, chosen)
                covered = set().union(*(system.sets[i] for i in chosen))
                for e_idx, block in enumerate(blocks):
                    assert (block <= covered) == multi_edge_satisfied(g, e_idx, f)
        assert flipped > 0  # some edges put their higher-index endpoint on the Q̄ side

    def test_costs_and_sizes_on_uneven_admissible_sets(self):
        flipped = above_one = edgeless = 0
        for seed in range(40):
            inst = uneven_labelcover(seed)
            g = inst.graph
            flipped += sum(len(g.admissible[w]) < len(g.admissible[v]) for v, w in g.edges)
            red = labelcover_to_setcover(inst)
            hred = labelcover_to_hvc(inst)
            k = [len(g.admissible[v]) for v in range(g.n_vertices)]
            n_edgeless = g.n_vertices - len({v for edge in g.edges for v in edge})
            edgeless += n_edgeless
            size = sum(2 ** min(k[v], k[w]) for v, w in g.edges) + n_edgeless
            assert red.system.n_elements == len(hred.hypergraph.hyperedges) == size
            assert hred.hypergraph.uniformity == 2 * max(k)
            minlab = solve_minlab(inst)
            sc = solve_cost_setcover(red)
            hv = solve_cost_hvc(hred)
            assert minlab.value == sc.value == hv.value
            above_one += minlab.value > 1
        assert flipped > 0 and above_one > 0 and edgeless > 0

    def test_sets_are_the_gadget_filters_over_each_block(self):
        # Each set's members against the lemma's reference gadgets: in the
        # block of edge e, the vectors supported on A(lo) in ascending
        # order, lo's set for a holds Q̄_a and hi's set for b holds Q over
        # b's satisfaction-compatible partners, both filtered over _cube.
        # Edges are stored either way round and tables are asymmetric.
        instances = [uneven_labelcover(seed) for seed in range(30)]
        instances += [generate_labelcover(seed, n_vertices=3, alphabet_size=3, accept_p=0.5) for seed in range(10)]
        reversed_edge = graph([(0, 1), (1, 0)], [IMPL, bytes([0, 1, 1, 1])])
        instances.append(p2csp_to_labelcover(P2cspInstance(reversed_edge, (0, 1), (0, 1))))
        flipped = 0
        for inst in instances:
            g = inst.graph
            sigma, index = g.n_symbols, {pair: i for i, pair in enumerate(g.pairs)}
            expected = [set() for _ in g.pairs]
            labels = []
            for e_idx, (v, w) in enumerate(g.edges):
                lo, hi = (v, w) if (len(g.allowed_symbols(v)), v) <= (len(g.allowed_symbols(w)), w) else (w, v)
                flipped += lo == w
                support = g.allowed_symbols(lo)
                block = sorted(reductions._cube(sigma, (), False, support))
                at = {x: len(labels) + k for k, x in enumerate(block)}
                labels += [f"(e{e_idx},{format(x, f'0{sigma}b')})" for x in block]
                for a in support:
                    expected[index[lo, a]] |= {at[x] for x in qbar_alpha(sigma, a, support)}
                for b in g.allowed_symbols(hi):
                    accepts = lambda a: g.accepts(e_idx, a, b) if lo == v else g.accepts(e_idx, b, a)
                    partners = [a for a in support if accepts(a)]
                    expected[index[hi, b]] |= {at[x] for x in q_subset(sigma, partners, support)}
            system = labelcover_to_setcover(inst).system
            assert system.elements[: len(labels)] == tuple(labels)
            assert [{x for x in members if x < len(labels)} for members in system.sets] == expected
        assert flipped > 0

    def test_graph_without_admissible_sets_keeps_its_bytes(self, tmp_path):
        # Without admissible sets every block is the full cube and edges
        # keep their lower-index endpoint on the Q̄ side.  sha256 captured
        # before the blocks were restricted.
        pinned = {
            "l2sc": "3675d93c172a6b7b5246ce069ed74d75986ebb332cd73ae06c60def36e513326",
            "l2hvc": "fc580b959fa32593144cf8e7a3a9748830cbe562f700aeb91252d81ea0e4a231",
        }
        lc = str(tmp_path / "lc.json")
        main(["gen", "--kind", "labelcover", "--out", lc, "--seed", "5", "--vertices", "4", "--alphabet", "3"])
        assert serialize.load(lc).graph.admissible is None
        for step in pinned:
            assert main(["reduce", step, "--in", lc, "--out", str(tmp_path / f"{step}.json")]) == 0
        digest = lambda step: hashlib.sha256((tmp_path / f"{step}.json").read_bytes()).hexdigest()
        assert {step: digest(step) for step in pinned} == pinned


class TestSetCoverReduction:
    def test_single_equality_edge(self):
        g = graph([(0, 1)], [EQ])
        inst = p2csp_to_labelcover(P2cspInstance(g, (0, 0), (0, 0)))
        red = labelcover_to_setcover(inst)
        assert red.system.n_elements == 4  # |E| * 2^|Sigma|
        assert red.system.n_sets == 4
        assert is_cover(red.system, red.start)

    def test_universe_size_formula(self):
        for seed in range(4):
            inst = generate_labelcover(seed, n_vertices=3, alphabet_size=2)
            red = labelcover_to_setcover(inst)
            assert red.system.n_elements == len(inst.graph.edges) * 2 ** inst.graph.n_symbols

    def test_opt_equals_vertex_count(self):
        for seed in range(6):
            inst = generate_labelcover(seed, n_vertices=3, alphabet_size=2, ensure_incident=True)
            red = labelcover_to_setcover(inst)
            assert min_cover(red.system) == inst.graph.n_vertices

    def test_roundtrip_bijection(self):
        inst = generate_labelcover(5, n_vertices=3, alphabet_size=2)
        red = labelcover_to_setcover(inst)
        for chosen in all_subfamilies(red.system.n_sets):
            f = cover_to_labels(inst.graph, chosen)
            assert labels_to_cover(inst.graph, f) == chosen
            assert multi_size(f) == len(chosen)

    def test_coverage_equivalence_exhaustive(self):
        cases = [
            ([EQ], [(0, 1)], (0, 0)),  # symmetric
            ([IMPL], [(0, 1)], (0, 0)),  # asymmetric
            ([IMPL, bytes([0, 1, 1, 1])], [(0, 1), (1, 0)], (0, 1)),  # reversed edge
        ]
        for tabs, edges, planted in cases:
            g = graph(edges, tabs)
            inst = p2csp_to_labelcover(P2cspInstance(g, planted, planted))
            red = labelcover_to_setcover(inst)
            b_size = 2**g.n_symbols
            for chosen in all_subfamilies(red.system.n_sets):
                f = cover_to_labels(g, chosen)
                for e_idx in range(len(g.edges)):
                    assert covers_block(red.system, chosen, e_idx, b_size) == edge_satisfied(
                        g, e_idx, f
                    )

    def test_self_loops_rejected(self):
        g = graph([(0, 0)], [EQ])
        with pytest.raises(StructuralError, match="normalize"):
            LabelCoverInstance(g, (frozenset({0}), frozenset({0})), (frozenset({0}), frozenset({0})))

    def test_non_singleton_endpoint_rejected(self):
        g = graph([(0, 1)], [bytes([1] * 4)])
        f = (frozenset({0, 1}), frozenset({0}))
        with pytest.raises(StructuralError, match="one label"):
            labelcover_to_setcover(LabelCoverInstance(g, f, f))


class TestHvcReduction:
    def test_uniformity_and_premask_sizes(self):
        for seed in range(4):
            inst = generate_labelcover(seed, n_vertices=3, alphabet_size=2, ensure_incident=True)
            red = labelcover_to_hvc(inst)
            u = 2 * inst.graph.n_symbols
            n_real = sum(len(inst.graph.allowed_symbols(v)) for v in range(inst.graph.n_vertices))
            assert red.hypergraph.uniformity == u
            for edge in red.hypergraph.hyperedges:
                assert len(edge) == u
                real = [w for w in edge if w < n_real]
                assert len(real) <= u

    def test_beta_equals_vertex_count(self):
        for seed in range(6):
            inst = generate_labelcover(seed, n_vertices=3, alphabet_size=2, ensure_incident=True)
            red = labelcover_to_hvc(inst)
            assert min_vertex_cover(red.hypergraph) == inst.graph.n_vertices
            assert is_vertex_cover(red.hypergraph, red.start)

    def test_padding_absent_from_minimum_covers(self):
        # with every source vertex on >= 2 edges, no minimum vertex cover
        # can afford a padding vertex (each pad hits a single hyperedge)
        g = graph([(0, 1), (1, 2), (0, 2)], [EQ, EQ, EQ], n=3)
        inst = p2csp_to_labelcover(P2cspInstance(g, (0, 0, 0), (0, 0, 0)))
        red = labelcover_to_hvc(inst)
        h = red.hypergraph
        beta = min_vertex_cover(h)
        assert beta == 3
        edge_masks = [sum(1 << v for v in e) for e in h.hyperedges]
        n_real = g.n_vertices * g.n_symbols
        assert all(label.startswith("pad(") for label in h.vertices[n_real:])
        pad_mask = ((1 << h.n_vertices) - 1) ^ ((1 << n_real) - 1)
        # enumerate all minimum covers over the real vertices plus each pad
        from itertools import combinations

        for combo in combinations(range(h.n_vertices), beta):
            mask = sum(1 << v for v in combo)
            if all(mask & em for em in edge_masks):
                assert mask & pad_mask == 0

    def test_roundtrip_ignores_padding(self):
        inst = generate_labelcover(7, n_vertices=2, alphabet_size=2, ensure_incident=True)
        red = labelcover_to_hvc(inst)
        g = inst.graph
        n_real = g.n_vertices * g.n_symbols
        labels = red.hypergraph.vertices
        assert not any(label.startswith("pad(") for label in labels[:n_real])
        assert all(label.startswith("pad(") for label in labels[n_real:])
        f = cover_to_labels(g, red.start | {n_real})
        assert labels_to_cover(g, f) == red.start

    def test_readme_seed7_bytes_are_pinned(self, tmp_path):
        # sha256 of the `reduce` files of the README seed-7 verifier and of
        # its `pipeline --no-amplify` stage files and report, captured before
        # one step table drove `reduce` and `pipeline` (fglss, normalize,
        # p2l) and when each edge's gadget block came to span only the
        # admissible symbols of its endpoint with fewer of them (sc, hvc,
        # report).
        pinned = {
            "fglss": "158ef02f2ac2b6760573972d347eb811364440c6af758e1368dfc1a30feb4eba",
            "normalize": "aa0d1a7637ae77f74737a60ec1e6e8320afc09ae85e2f96a207e9d4d8ebf543b",
            "p2l": "37ce86d98f5f5a009d1cd99e842e50394fc7d0b46ab27be321f913a93239ddae",
            "l2sc": "e4e46e91b543b1a8e8027df17aa1460776ab611536fe7ce19e46463d0bf62c5e",
            "l2hvc": "85ef848df1773f1b9d7faa2f8e585727fb41666352a0c80b0579bfccae2e44ac",
        }
        digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
        main(["gen", "--kind", "verifier", "--out", str(tmp_path / "v.json"), "--seed", "7"])
        sources = {"fglss": "v", "normalize": "fglss", "p2l": "normalize", "l2sc": "p2l", "l2hvc": "p2l"}
        for step, src in sources.items():
            argv = ["reduce", step, "--in", str(tmp_path / f"{src}.json"), "--out", str(tmp_path / f"{step}.json")]
            assert main(argv) == 0
        assert {step: digest(tmp_path / f"{step}.json") for step in pinned} == pinned
        stages = tmp_path / "stages"
        assert main(["pipeline", "--in", str(tmp_path / "v.json"), "--out-dir", str(stages), "--no-amplify"]) == 0
        files = ("02_fglss", "03_normalized", "04_labelcover", "05_setcover", "06_hvc")
        assert [digest(stages / f"{name}.json") for name in files] == list(pinned.values())
        assert digest(stages / "report.md") == "ae227dd74d0f77f25b9a6165b9b6b5ef3f14f963d82451e8e8ad3e031fd25fe8"

    def test_readme_seed7_solve_bytes_are_pinned(self, tmp_path):
        # sha256 of the `solve maxpar --out` file of the README seed-7 FGLSS
        # instance and of the `solve minlab --out` file of its label cover,
        # captured when both graph solvers came to search substitution
        # kernels.  Each pins the value, the witness and states_explored.
        path = lambda name: str(tmp_path / name)
        main(["gen", "--kind", "verifier", "--out", path("v.json"), "--seed", "7"])
        for step, src, dst in (("fglss", "v", "fglss"), ("normalize", "fglss", "norm"), ("p2l", "norm", "lc")):
            assert main(["reduce", step, "--in", path(f"{src}.json"), "--out", path(f"{dst}.json")]) == 0
        assert main(["solve", "maxpar", "--in", path("fglss.json"), "--out", path("maxpar.json")]) == 0
        assert main(["solve", "minlab", "--in", path("lc.json"), "--out", path("minlab.json")]) == 0
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("maxpar.json") == "0b439c7eaded300ed681bee6393de2d68fbfe4896d85f226a06cc58265dd1463"
        assert digest("minlab.json") == "8aed10b91619a46a5fc31263ba0543b46b264f753c8d9628b374af13f80ca5ec"


class TestStoredEdgeOrder:
    def test_reversed_stored_edges_keep_the_equivalence(self):
        # storing an edge as (w, v) with the transposed table is the same
        # constraint; the reduction must orient by vertex index, not by the
        # stored tuple order
        g_fwd = graph([(0, 1)], [IMPL])
        t2 = bytes([IMPL[0], IMPL[2], IMPL[1], IMPL[3]])  # transpose of IMPL
        g_rev = graph([(1, 0)], [t2])
        inst = p2csp_to_labelcover(P2cspInstance(g_fwd, (0, 0), (0, 0)))
        b_size = 2**g_fwd.n_symbols
        red_f = labelcover_to_setcover(inst)
        red_r = labelcover_to_setcover(LabelCoverInstance(g_rev, inst.start, inst.goal))
        assert red_f.system.sets == red_r.system.sets
        for chosen in all_subfamilies(red_r.system.n_sets):
            f = cover_to_labels(g_rev, chosen)
            assert covers_block(red_r.system, chosen, 0, b_size) == edge_satisfied(
                g_rev, 0, f
            )


class TestEndToEndWithAdmissibleSets:
    def test_cost_equality_through_normalized_graphs(self):
        # squared-alphabet graphs come with self-loops; after normalization
        # the admissible sets restrict every stage, and the three objectives
        # must still agree exactly
        from rforge.core import normalize_self_loops
        from rforge.fglss import build_fglss, embed_proof
        from rforge.generate import generate_verifier_with_accepted_pair

        nontrivial = 0
        for seed in range(6):
            inst = generate_verifier_with_accepted_pair(seed, r=1, q=1, ell=2, accept_p=0.3)
            v, start, goal = inst.verifier, inst.start, inst.goal
            norm = normalize_self_loops(build_fglss(v))
            if any(len(a) < norm.n_symbols for a in norm.admissible):
                nontrivial += 1
            lc = p2csp_to_labelcover(P2cspInstance(norm, embed_proof(v, start), embed_proof(v, goal)))
            minlab = solve_minlab(lc, cap=200_000)
            red = labelcover_to_setcover(lc)
            sc = solve_cost_setcover(red, cap=200_000)
            hred = labelcover_to_hvc(lc)
            hv = solve_cost_hvc(hred, cap=200_000)
            assert minlab.value == sc.value == hv.value
            assert min_cover(red.system) == norm.n_vertices
            assert min_vertex_cover(hred.hypergraph) == norm.n_vertices
        assert nontrivial > 0  # the admissible machinery was really restricted


class TestEdgelessVertices:
    def test_edgeless_vertex_keeps_a_label_in_every_objective(self):
        # an admissible set marks a folded self-loop, so the vertex may not
        # go empty; one element (one hyperedge) covered only by its own sets
        # makes the covers keep a label there too
        g = ConstraintGraph(("v",), 2, ("a", "b"), (), (), admissible=(frozenset({0, 1}),))
        inst = LabelCoverInstance(g, (frozenset({0}),), (frozenset({1}),))
        red = labelcover_to_setcover(inst)
        hred = labelcover_to_hvc(inst)
        assert red.system.elements == ("(v)",)
        assert hred.hypergraph.hyperedges == (frozenset({0, 1, 2, 3}),)
        minlab = solve_minlab(inst)
        sc = solve_cost_setcover(red)
        hv = solve_cost_hvc(hred)
        assert minlab.value == sc.value == hv.value == 1

    def test_edgeless_vertex_without_admissible_set_rejected(self):
        inst = LabelCoverInstance(graph([], [], n=1), (frozenset({0}),), (frozenset({1}),))
        with pytest.raises(StructuralError, match="on no edge"):
            labelcover_to_setcover(inst)
        with pytest.raises(StructuralError, match="on no edge"):
            labelcover_to_hvc(inst)


class TestUniverseCeiling:
    @pytest.mark.parametrize("reduce", [labelcover_to_setcover, labelcover_to_hvc])
    def test_readme_seed7_universe_sits_at_a_ceiling_of_its_size(self, tmp_path, monkeypatch, reduce):
        path = lambda name: str(tmp_path / name)
        main(["gen", "--kind", "verifier", "--out", path("v.json"), "--seed", "7"])
        for step, src, dst in (("fglss", "v", "fglss"), ("normalize", "fglss", "norm"), ("p2l", "norm", "lc")):
            assert main(["reduce", step, "--in", path(f"{src}.json"), "--out", path(f"{dst}.json")]) == 0
        inst = serialize.load(tmp_path / "lc.json")
        # six edges, each a block over the 2^5 vectors of its smaller endpoint
        monkeypatch.setattr(reductions, "MAX_UNIVERSE", 192)
        reduce(inst)
        monkeypatch.setattr(reductions, "MAX_UNIVERSE", 191)
        with pytest.raises(StructuralError, match="universe would have 192 elements, ceiling is 191"):
            reduce(inst)

    @pytest.mark.parametrize("step", ["l2sc", "l2hvc"])
    def test_oversized_label_cover_exits_2_before_building(self, tmp_path, capsys, step):
        # one edge over 16 symbols (2^16 block elements) and one vertex on
        # no edge: one element past the ceiling
        n_symbols = 16
        g = ConstraintGraph(
            ("u", "v", "w"), 2, tuple(map(str, range(n_symbols))), ((0, 1),), (bytes([1] * n_symbols**2),),
            admissible=(frozenset(range(n_symbols)),) * 3,
        )
        assert 2**n_symbols == reductions.MAX_UNIVERSE
        labels = (frozenset({0}),) * 3
        serialize.save(LabelCoverInstance(g, labels, labels), tmp_path / "lc.json")
        out = tmp_path / "out.json"
        assert main(["reduce", step, "--in", str(tmp_path / "lc.json"), "--out", str(out)]) == 2
        assert "universe would have 65537 elements" in capsys.readouterr().err
        assert not out.exists()


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_mapped_start_goal_always_feasible(seed):
    inst = generate_labelcover(seed, n_vertices=2, alphabet_size=2, ensure_incident=True)
    red = labelcover_to_setcover(inst)
    assert is_cover(red.system, red.start) and is_cover(red.system, red.goal)
    hred = labelcover_to_hvc(inst)
    assert is_vertex_cover(hred.hypergraph, hred.start)
    assert is_vertex_cover(hred.hypergraph, hred.goal)
