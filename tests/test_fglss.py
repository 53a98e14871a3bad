"""Squared-alphabet constraint graphs: construction, embedding, decoding."""

import random
from fractions import Fraction
from itertools import islice, product

import pytest

from rforge import checks
from rforge.amplify import amplify, build_expander
from rforge.core import (
    BOTTOM,
    KIND_PARTIAL,
    ReconfigSequence,
    StructuralError,
    TableVerifier,
    is_full,
    normalize_self_loops,
    partial_size,
    satisfies_partial,
    validate_sequence,
)
from rforge.fglss import (
    COORD_BOTH,
    COORD_ONE,
    COORD_SETS,
    COORD_ZERO,
    build_fglss,
    completeness_sequence,
    decode_sequence,
    embed_proof,
    enumerate_satisfying_partials,
    interpolate_proofs,
    plurality_decode,
    symbol_coords,
    symbol_index,
    view_pins,
)
from rforge.generate import generate_verifier_with_accepted_pair
from rforge.verifier import accept_prob, accepting_set, degree, row_of


def overlap_verifier(tables=None):
    # two entries reading (0,1) and (1,2); position 1 is shared
    if tables is None:
        tables = (bytes([1] * 4), bytes([1] * 4))
    return TableVerifier(r=1, q=2, ell=3, queries=((0, 1), (1, 2)), tables=tables)


def always_accepting(r=1, q=1, ell=1):
    n = 2**r
    return TableVerifier(
        r=r,
        q=q,
        ell=ell,
        queries=tuple(tuple((k + j) % ell for j in range(q)) for k in range(n)),
        tables=tuple(bytes([1] * 2**q) for _ in range(n)),
    )


class TestBuild:
    def test_overlap_toy(self):
        g = build_fglss(overlap_verifier())
        assert g.n_vertices == 2
        assert set(g.edges) == {(0, 0), (1, 1), (0, 1)}
        assert g.n_symbols == 9

    def test_disjoint_queries_give_only_loops(self):
        v = TableVerifier(
            r=1, q=2, ell=4, queries=((0, 1), (2, 3)), tables=(bytes([1] * 4),) * 2
        )
        g = build_fglss(v)
        assert set(g.edges) == {(0, 0), (1, 1)}

    def test_always_accepting_reduces_to_chain_condition(self):
        g = build_fglss(overlap_verifier())
        e_idx = g.edges.index((0, 1))
        tab = g.tables[e_idx]
        for i1 in range(9):
            c1 = symbol_coords(i1, 2)
            for i2 in range(9):
                c2 = symbol_coords(i2, 2)
                a, b = c1[1], c2[0]  # shared proof position 1
                comparable = not (
                    (a == COORD_ZERO and b == COORD_ONE)
                    or (a == COORD_ONE and b == COORD_ZERO)
                )
                assert tab[i1 * 9 + i2] == int(comparable)

    def test_query_ceiling_refusal(self):
        v = always_accepting(r=1, q=7, ell=8)
        with pytest.raises(StructuralError, match="ceiling"):
            build_fglss(v)


class TestViewPins:
    @staticmethod
    def expected(v, rnd, idx):
        # The view's digits, read one coordinate at a time: valid iff every
        # unused coordinate is {0} and the table takes every read whose bits
        # each lie in their coordinate's set.
        positions = v.queries[rnd]
        m = len(positions)
        coords = symbol_coords(idx, v.q)
        if any(c != COORD_ZERO for c in coords[m:]):
            return None
        for bits in product((0, 1), repeat=m):
            if all(bit in COORD_SETS[c] for bit, c in zip(bits, coords)):
                if not v.tables[rnd][row_of(bits, range(m))]:
                    return None
        zero = sum(1 << positions[j] for j in range(m) if coords[j] == COORD_ZERO)
        one = sum(1 << positions[j] for j in range(m) if coords[j] == COORD_ONE)
        return zero, one

    def verifiers(self):
        for seed in range(6):
            yield generate_verifier_with_accepted_pair(seed, r=2, q=1 + seed % 3, ell=4, accept_p=0.6).verifier
        x = build_expander(4, 4, 0.6, 0)
        for seed in range(3):
            amped = amplify(generate_verifier_with_accepted_pair(seed, r=2, q=2, ell=5, accept_p=0.7).verifier, x, 2)
            assert len({len(positions) for positions in amped.queries}) > 1
            yield amped

    def test_pins_match_the_coordinate_digits(self):
        invalid = 0
        for v in self.verifiers():
            pins = view_pins(v)
            assert len(pins) == v.n_entries
            for rnd, row in enumerate(pins):
                assert row == [self.expected(v, rnd, idx) for idx in range(3**v.q)]
                invalid += row.count(None)
        assert invalid > 0

    def test_valid_views_are_the_loop_diagonal(self):
        for v in self.verifiers():
            g = build_fglss(v)
            k = g.n_symbols
            for rnd, row in enumerate(view_pins(v)):
                loop = g.tables[g.edges.index((rnd, rnd))]
                assert [pins is not None for pins in row] == [loop[a * k + a] == 1 for a in range(k)]


class TestEnumerate:
    def test_toy_graphs_yield_only_satisfying_assignments(self):
        # The fglss-popularity suite takes these assignments as satisfying
        # without checking them again.
        seen = 0
        for seed in range(5):
            for v in checks._toy_verifiers(6, seed):
                g = build_fglss(v)
                for f in enumerate_satisfying_partials(g):
                    assert satisfies_partial(g, f)
                    seen += 1
        assert seen > 1000


class TestNormalizeInteraction:
    def test_normalization_preserves_satisfying_full_assignments(self):
        # the loop diagonals encode exactly the per-vertex view validity, so
        # folding them into admissible sets keeps the satisfying set intact
        import itertools

        eq = bytes([1, 0, 0, 1])
        for tables in [None, (bytes([1, 1, 0, 1]), eq)]:
            v = overlap_verifier(tables=tables)
            g = build_fglss(v)
            norm = normalize_self_loops(g)
            for f in itertools.product(range(g.n_symbols), repeat=g.n_vertices):
                assert satisfies_partial(g, f) == satisfies_partial(norm, f)

    def test_admissible_sets_are_the_accepted_views(self):
        v = overlap_verifier(tables=(bytes([1, 1, 0, 1]), bytes([1, 0, 0, 1])))
        g = build_fglss(v)
        norm = normalize_self_loops(g)
        for rnd in range(2):
            loop = g.edges.index((rnd, rnd))
            diag = {a for a in range(9) if g.tables[loop][a * 9 + a] == 1}
            assert norm.admissible[rnd] == frozenset(diag)


class TestEmbed:
    def test_toy_readoff(self):
        v = overlap_verifier()
        f = embed_proof(v, "010")
        assert f[0] == symbol_index((COORD_ZERO, COORD_ONE))
        assert f[1] == symbol_index((COORD_ONE, COORD_ZERO))

    def test_accepted_proof_satisfies(self):
        v = overlap_verifier()
        g = build_fglss(v)
        for word in range(8):
            proof = format(word, "03b")
            assert satisfies_partial(g, embed_proof(v, proof))

    def test_rejected_proof_breaks_its_self_loop(self):
        eq = bytes([1, 0, 0, 1])
        v = overlap_verifier(tables=(eq, eq))
        g = build_fglss(v)
        f = embed_proof(v, "010")  # entry 0 reads 01 and rejects
        assert not satisfies_partial(g, f)
        loop = g.edges.index((0, 0))
        assert g.tables[loop][f[0] * 9 + f[0]] == 0

    @pytest.mark.parametrize("proof, message", [("0100", "proof length 4 != 3"), ("222", "0/1 string")])
    def test_malformed_proof_is_error(self, proof, message):
        # A character other than 0 and 1 is not read as either bit.
        with pytest.raises(StructuralError, match=message):
            embed_proof(overlap_verifier(), proof)


class TestCompleteness:
    def test_unqueried_flip_gives_singleton(self):
        v = TableVerifier(
            r=1, q=1, ell=2, queries=((0,), (0,)), tables=(bytes([1, 1]),) * 2
        )
        seq = completeness_sequence(v, "00", "01")
        assert len(seq.states) == 1

    def test_lengths_follow_degree(self):
        v = overlap_verifier()
        g = build_fglss(v)
        # position 0 has degree 1, position 1 has degree 2
        seq0 = completeness_sequence(v, "000", "100")
        assert len(seq0.states) == 3 == 1 + 2 * degree(v, 0)
        assert validate_sequence(g, seq0).ok
        assert all(is_full(f) for f in seq0.states)
        seq1 = completeness_sequence(v, "000", "010")
        assert len(seq1.states) == 5 == 1 + 2 * degree(v, 1)
        assert validate_sequence(g, seq1).ok

    def test_endpoints_are_the_embeddings(self):
        v = overlap_verifier()
        seq = completeness_sequence(v, "000", "010")
        assert seq.states[0] == embed_proof(v, "000")
        assert seq.states[-1] == embed_proof(v, "010")

    def test_rejected_endpoint_is_error(self):
        eq = bytes([1, 0, 0, 1])
        v = overlap_verifier(tables=(eq, eq))
        with pytest.raises(StructuralError, match="rejected"):
            completeness_sequence(v, "000", "010")

    def test_multi_bit_distance_is_error(self):
        v = overlap_verifier()
        with pytest.raises(StructuralError):
            completeness_sequence(v, "000", "011")

    def test_generated_pairs(self):
        for seed in range(8):
            inst = generate_verifier_with_accepted_pair(seed, r=2, q=2, ell=4)
            v = inst.verifier
            g = build_fglss(v)
            seq = completeness_sequence(v, inst.start, inst.goal)
            assert validate_sequence(g, seq).ok
            assert all(is_full(f) for f in seq.states)


class TestPluralityDecode:
    def test_vote_table(self):
        # three entries all reading position 0; K sets realized by choosing
        # their coordinate values directly
        v = TableVerifier(
            r=2,
            q=1,
            ell=1,
            queries=((0,),) * 4,
            tables=(bytes([1, 1]),) * 4,
        )
        one, both = COORD_ONE, COORD_BOTH
        # K = {{1},{0,1}}: plurality picks 1
        f = (symbol_index((one,)), symbol_index((both,)), BOTTOM, BOTTOM)
        assert plurality_decode(v, f) == "1"
        # K = {{0,1}}: tie, picks 0
        f = (symbol_index((both,)), BOTTOM, BOTTOM, BOTTOM)
        assert plurality_decode(v, f) == "0"
        # K = {}: unqueried positions decode to 0
        f = (BOTTOM, BOTTOM, BOTTOM, BOTTOM)
        assert plurality_decode(v, f) == "0"

    def test_embedding_round_trips(self):
        v = overlap_verifier()
        g = build_fglss(v)
        for word in range(8):
            proof = format(word, "03b")
            f = embed_proof(v, proof)
            assert satisfies_partial(g, f)
            assert plurality_decode(v, f) == proof

    def test_decoding_proceeds_on_an_unsatisfying_assignment(self):
        eq = bytes([1, 0, 0, 1])
        v = overlap_verifier(tables=(eq, eq))
        f = embed_proof(v, "010")
        assert not satisfies_partial(build_fglss(v), f)
        assert plurality_decode(v, f) == "010"

    def test_votes_match_the_coordinate_digits(self):
        # plurality_decode against votes counted one by one from the
        # symbol_coords digits: each assigned entry votes for every bit in
        # its coordinate set at each position it reads, and a position
        # decodes to 1 iff it has more votes for 1 than for 0.  The
        # assignments: satisfying ones, and random ones that need not be.
        checked = 0
        for seed in range(6):
            v = generate_verifier_with_accepted_pair(seed, r=2, q=1 + seed % 3, ell=4, accept_p=0.6).verifier
            g = build_fglss(v)
            rng = random.Random(seed)
            assignments = list(islice(enumerate_satisfying_partials(g), 200))
            values = [BOTTOM, *range(g.n_symbols)]
            assignments += [tuple(rng.choice(values) for _ in range(v.n_entries)) for _ in range(100)]
            for f in assignments:
                votes = [[0, 0] for _ in range(v.ell)]
                for rnd, a in enumerate(f):
                    if a != BOTTOM:
                        coords = symbol_coords(a, v.q)
                        for j, i in enumerate(v.queries[rnd]):
                            for bit in COORD_SETS[coords[j]]:
                                votes[i][bit] += 1
                expected = "".join("1" if ones > zeros else "0" for zeros, ones in votes)
                assert plurality_decode(v, f) == expected
                checked += 1
        assert checked > 600

    def test_popularity_law_exhaustive(self):
        eq = bytes([1, 0, 0, 1])
        v = overlap_verifier(tables=(bytes([1, 1, 0, 1]), eq))
        g = build_fglss(v)
        count = 0
        for f in enumerate_satisfying_partials(g):
            count += 1
            proof = plurality_decode(v, f)
            assert satisfies_partial(g, f)
            accepting = accepting_set(v, proof)
            for rnd in range(2):
                if f[rnd] != BOTTOM:
                    assert rnd in accepting
            assert accept_prob(v, proof) >= Fraction(partial_size(f), 2)
        assert count > 1


class TestInterpolate:
    def test_identical(self):
        v = overlap_verifier()
        seq = interpolate_proofs(v, "010", "010")
        assert seq.states == ("010",)

    def test_two_flips(self):
        v = overlap_verifier()
        seq = interpolate_proofs(v, "000", "011")
        assert seq.states == ("000", "010", "011")

    @pytest.mark.parametrize("start, goal", [("000", "0110"), ("01", "011"), ("002", "011")])
    def test_malformed_proof_is_error(self, start, goal):
        with pytest.raises(StructuralError, match="proof"):
            interpolate_proofs(overlap_verifier(), start, goal)

    def test_dip_bound_exact(self):
        eq = bytes([1, 0, 0, 1])
        v = overlap_verifier(tables=(bytes([1, 1, 0, 1]), eq))
        for a_word in range(8):
            a = format(a_word, "03b")
            base = accept_prob(v, a)
            for b_word in range(8):
                b = format(b_word, "03b")
                for inter in interpolate_proofs(v, a, b).states:
                    diff = [i for i in range(3) if inter[i] != a[i]]
                    floor = base - sum(Fraction(degree(v, i), 2) for i in diff)
                    assert accept_prob(v, inter) >= floor


class TestDecodeSequence:
    def test_completeness_path_never_dips(self):
        v = overlap_verifier()
        seq = completeness_sequence(v, "000", "010")
        proofs, min_acc = decode_sequence(v, seq, build_fglss(v))
        assert min_acc == 1
        assert proofs.states[0] == "000" and proofs.states[-1] == "010"
        assert validate_sequence(v, proofs).ok

    def test_constant_sequence_single_proof(self):
        v = overlap_verifier()
        seq = ReconfigSequence(KIND_PARTIAL, (embed_proof(v, "101"),))
        proofs, min_acc = decode_sequence(v, seq, build_fglss(v))
        assert proofs.states == ("101",)
        assert min_acc == 1

    def test_invalid_sequence_rejected(self):
        eq = bytes([1, 0, 0, 1])
        v = overlap_verifier(tables=(eq, eq))
        bad = ReconfigSequence(KIND_PARTIAL, (embed_proof(v, "010"),))
        with pytest.raises(StructuralError, match="invalid"):
            decode_sequence(v, bad, build_fglss(v))

    def test_acceptance_floor_along_decoded_sequence(self):
        inst = generate_verifier_with_accepted_pair(3, r=2, q=2, ell=4)
        v = inst.verifier
        g = build_fglss(v)
        seq = completeness_sequence(v, inst.start, inst.goal)
        proofs, min_acc = decode_sequence(v, seq, g)
        floor = min(Fraction(partial_size(f), 2**v.r) for f in seq.states)
        # dips below the assigned fraction can only come from interpolation,
        # which flips at most q positions
        max_pos = max(Fraction(degree(v, i), 2**v.r) for i in range(v.ell))
        assert min_acc >= floor - v.q * max_pos

    def test_random_valid_sequences_respect_the_floor(self):
        import random

        from rforge.core import satisfies_partial as sat

        exercised = 0
        for seed in range(6):
            inst = generate_verifier_with_accepted_pair(seed, r=2, q=2, ell=4)
            v, planted = inst.verifier, inst.start
            g = build_fglss(v)
            rng = random.Random(seed)
            state = embed_proof(v, planted)
            assert sat(g, state)
            exercised += 1
            states = [state]
            for _ in range(12):  # seeded walk over satisfying states
                cand = list(state)
                cand[rng.randrange(g.n_vertices)] = rng.randrange(-1, g.n_symbols)
                cand = tuple(cand)
                if cand != state and sat(g, cand):
                    state = cand
                    states.append(state)
            seq = ReconfigSequence(KIND_PARTIAL, tuple(states))
            proofs, min_acc = decode_sequence(v, seq, g)
            floor = min(Fraction(partial_size(f), 2**v.r) for f in states)
            max_pos = max(Fraction(degree(v, i), 2**v.r) for i in range(v.ell))
            assert min_acc >= floor - v.q * max_pos
            assert validate_sequence(v, proofs).ok
        assert exercised == 6
