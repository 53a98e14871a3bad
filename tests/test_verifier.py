"""Table verifiers: acceptance, degrees, regularity, CSP wrapping."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from rforge import checks, serialize
from rforge.amplify import amplify, build_expander, degree_report
from rforge.cli import main
from rforge.core import ConstraintGraph, StructuralError, TableVerifier, VerifierInstance, satisfies_partial
from rforge.generate import generate_csp, generate_verifier_with_accepted_pair
from rforge.verifier import (
    accept_prob,
    acceptance_rows,
    accepting_set,
    csp_to_verifier,
    degree,
    degrees,
    encode_assignment,
    row_of,
    symbol_bits,
    table_of,
)

EQ = bytes([1, 0, 0, 1])


def always_accepting(r=1, q=1, ell=1):
    n = 2**r
    return TableVerifier(
        r=r,
        q=q,
        ell=ell,
        queries=tuple(tuple((k + j) % ell for j in range(q)) for k in range(n)),
        tables=tuple(bytes([1] * 2**q) for _ in range(n)),
    )


def naive_accept_prob(v, proof):
    # second enumeration path: walk the randomness space, re-deriving each
    # local view index from scratch
    hits = 0
    for rnd in range(2**v.r):
        bits = [int(proof[i]) for i in v.queries[rnd]]
        idx = sum(b << (len(bits) - 1 - j) for j, b in enumerate(bits))
        hits += v.tables[rnd][idx]
    return Fraction(hits, 2**v.r)


class TestConstruction:
    def test_entry_count_enforced(self):
        with pytest.raises(StructuralError):
            TableVerifier(r=1, q=1, ell=1, queries=((0,),), tables=(bytes([1, 1]),))

    def test_distinct_positions_enforced(self):
        with pytest.raises(StructuralError):
            TableVerifier(r=0, q=2, ell=2, queries=((0, 0),), tables=(bytes(4),))

    def test_table_size_matches_query_length(self):
        with pytest.raises(StructuralError):
            TableVerifier(r=0, q=2, ell=2, queries=((0, 1),), tables=(bytes(2),))

    @pytest.mark.parametrize("entry", [2, 255], ids=["two", "255"])
    def test_non_boolean_table_entry_rejected(self, entry):
        with pytest.raises(StructuralError, match="decision table 1 contains a non-boolean entry"):
            TableVerifier(r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([0, 1]), bytes([1, entry])))


class TestAcceptProb:
    def test_always_accepting(self):
        v = always_accepting(r=2, q=1, ell=2)
        assert accept_prob(v, "01") == 1

    def test_identity_bit(self):
        v = TableVerifier(
            r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([0, 1]), bytes([0, 1]))
        )
        assert accept_prob(v, "1") == 1
        assert accept_prob(v, "0") == 0

    def test_against_independent_enumeration(self):
        import random

        rng = random.Random(5)
        for _ in range(10):
            r, q, ell = 2, 2, 3
            queries = tuple(tuple(sorted(rng.sample(range(ell), q))) for _ in range(4))
            tables = tuple(
                bytes(rng.randrange(2) for _ in range(4)) for _ in range(4)
            )
            v = TableVerifier(r=r, q=q, ell=ell, queries=queries, tables=tables)
            for word in range(2**ell):
                proof = format(word, f"0{ell}b")
                assert accept_prob(v, proof) == naive_accept_prob(v, proof)

    def test_denominator_divides_randomness(self):
        v = always_accepting(r=3, q=2, ell=4)
        p = accept_prob(v, "0110")
        assert 2**v.r % p.denominator == 0

    def test_length_mismatch(self):
        v = always_accepting()
        with pytest.raises(StructuralError):
            accept_prob(v, "00")


def amplified_verifiers():
    """Walk-amplified verifiers whose entries read different numbers of positions."""
    import random

    rng = random.Random(17)
    for seed in range(3):
        ell = 5
        queries = tuple(tuple(rng.sample(range(ell), 2)) for _ in range(8))
        tables = tuple(bytes(rng.choice((0, 1, 1)) for _ in range(4)) for _ in range(8))
        v = TableVerifier(r=3, q=2, ell=ell, queries=queries, tables=tables)
        yield amplify(v, build_expander(8, 4, 0.95, seed=seed), 2 + seed % 2)


class TestAcceptingSet:
    def test_against_per_entry_enumeration(self):
        for v in amplified_verifiers():
            assert len({len(positions) for positions in v.queries}) > 1
            for word in range(2**v.ell):
                proof = format(word, f"0{v.ell}b")
                # Each entry on its own: its view is the read bits as a binary numeral.
                expected = {
                    rnd
                    for rnd in range(v.n_entries)
                    if v.tables[rnd][int("".join(proof[i] for i in v.queries[rnd]), 2)] == 1
                }
                got = accepting_set(v, proof)
                assert got == expected
                assert accept_prob(v, proof) == Fraction(len(got), 2**v.r)

    @pytest.mark.parametrize("proof", ["0000", "000000", "00200", "0 101", ""])
    def test_malformed_proof_raises(self, proof):
        v = next(amplified_verifiers())
        for fn in (accepting_set, accept_prob):
            with pytest.raises(StructuralError):
                fn(v, proof)


class TestAcceptanceCounts:
    """Every proof's column of ``acceptance_rows`` against the per-proof
    reference: each byte against ``accepting_set`` membership, each column
    sum (the proof's count) against ``accept_prob``."""

    @staticmethod
    def counts(v):
        rows = acceptance_rows(v)
        assert len(rows) == v.n_entries
        assert all(len(row) == 2**v.ell for row in rows)
        for word in range(2**v.ell):
            proof = format(word, f"0{v.ell}b")
            accepting = accepting_set(v, proof)
            assert [row[word] for row in rows] == [int(rnd in accepting) for rnd in range(v.n_entries)]
            assert Fraction(sum(row[word] for row in rows), 2**v.r) == accept_prob(v, proof)
        return [sum(column) for column in zip(*rows)]

    def test_random_verifiers_with_mixed_query_lengths(self):
        rng = random.Random(23)
        for r in range(4):
            for ell in range(1, 6):
                for _ in range(3):
                    queries = tuple(tuple(rng.sample(range(ell), rng.randint(1, ell))) for _ in range(2**r))
                    tables = tuple(bytes(rng.randrange(2) for _ in range(2 ** len(p))) for p in queries)
                    v = TableVerifier(r=r, q=max(map(len, queries)), ell=ell, queries=queries, tables=tables)
                    self.counts(v)

    def test_amplified_verifiers(self):
        for v in amplified_verifiers():
            self.counts(v)

    def test_claim_accept_verifiers_base_and_amplified(self):
        x = build_expander(16, 16, 0.15, 0)
        for seed, t in ((0, 0), (1, 2), (7, 1)):
            v = checks._claim_verifier(seed, t).verifier
            self.counts(v)
            self.counts(amplify(v, x, 2))

    def test_one_entry_and_one_bit(self):
        assert self.counts(TableVerifier(r=0, q=1, ell=1, queries=((0,),), tables=(bytes([0, 1]),))) == [0, 1]
        v = TableVerifier(r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([1, 0]), bytes([1, 1])))
        assert acceptance_rows(v) == [bytes([1, 0]), bytes([1, 1])]
        assert self.counts(v) == [2, 1]

    def test_full_lanes_do_not_carry(self):
        # Every byte is 1 and every column sums to 2^r.
        v = always_accepting(r=3, q=2, ell=4)
        assert acceptance_rows(v) == [bytes([1] * 16)] * 8
        assert self.counts(v) == [8] * 16


class TestDegrees:
    def test_every_entry_same_position(self):
        v = TableVerifier(
            r=2,
            q=1,
            ell=2,
            queries=((0,),) * 4,
            tables=(bytes([1, 1]),) * 4,
        )
        assert degree(v, 0) == 4 == 2**v.r

    def test_overlapping_pair(self):
        v = TableVerifier(
            r=1,
            q=2,
            ell=3,
            queries=((0, 1), (1, 2)),
            tables=(bytes([1] * 4),) * 2,
        )
        assert degrees(v) == (1, 2, 1)
        assert degree_report(v).regular is None

    def test_partitioned_queries_regular(self):
        v = TableVerifier(
            r=1,
            q=2,
            ell=4,
            queries=((0, 1), (2, 3)),
            tables=(bytes([1] * 4),) * 2,
        )
        assert degree_report(v).regular == 1 == v.q * 2**v.r // v.ell

    def test_out_of_range(self):
        v = always_accepting()
        with pytest.raises(StructuralError):
            degree(v, 5)


class TestCspToVerifier:
    def test_single_equality_edge(self):
        g = ConstraintGraph(("v", "w"), 2, ("0", "1"), ((0, 1),), (EQ,))
        v = csp_to_verifier(g)
        assert (v.r, v.q, v.ell) == (1, 2, 2)
        accepted = {p for p in ("00", "01", "10", "11") if accept_prob(v, p) == 1}
        assert accepted == {"00", "11"}

    def test_satisfying_assignments_encode_to_prob_one(self):
        for seed in range(6):
            inst = generate_csp(seed, n_vertices=3, alphabet_size=3, density=0.9)
            g = inst.graph
            if not g.edges:
                continue
            v = csp_to_verifier(g)
            for f in itertools.product(range(3), repeat=3):
                expected = satisfies_partial(g, f)
                assert (accept_prob(v, encode_assignment(g, f)) == 1) == expected

    def test_out_of_range_codeword_rejects(self):
        g = ConstraintGraph(
            ("v", "w"), 2, ("0", "1", "2"), ((0, 1),), (bytes([1] * 9),)
        )
        v = csp_to_verifier(g)
        assert symbol_bits(3) == 2
        # codeword 11 decodes to 3, outside a 3-symbol alphabet
        assert accept_prob(v, "1100") == 0

    def test_self_loops_fold_into_tables(self):
        loop = bytes([1, 0, 0, 0])  # only symbol 0 admissible at v
        g = ConstraintGraph(
            ("v", "w"), 2, ("0", "1"), ((0, 0), (0, 1)), (loop, bytes([1] * 4))
        )
        v = csp_to_verifier(g)
        assert accept_prob(v, "00") == 1
        assert accept_prob(v, "10") < 1

    def test_no_edges_is_error(self):
        g = ConstraintGraph(("v",), 2, ("0",), (), ())
        with pytest.raises(StructuralError, match="no non-loop edges"):
            csp_to_verifier(g)

    def test_padding_cycles_edges(self):
        # three edges pad to four randomness strings, repeating edge 0
        tabs = (EQ, EQ, EQ)
        g = ConstraintGraph(
            ("a", "b", "c"), 2, ("0", "1"), ((0, 1), (1, 2), (0, 2)), tabs
        )
        v = csp_to_verifier(g)
        assert v.r == 2
        assert v.queries[3] == v.queries[0]
        assert v.tables[3] == v.tables[0]


class TestRows:
    def test_row_is_big_endian_in_query_order(self):
        read = {5: 1, 2: 0, 7: 1}
        assert row_of(read, (5, 2, 7)) == 0b101
        assert row_of(read, (7, 2, 5)) == 0b101
        assert row_of(read, (2, 5, 7)) == 0b011
        assert row_of([0, 1, 1], (2, 0)) == 0b10

    def test_table_calls_once_per_row_in_row_order(self):
        positions = (4, 1, 6)
        seen = []
        table = table_of(positions, lambda read: seen.append(read) or row_of(read, positions) % 3 == 0)
        assert [row_of(read, positions) for read in seen] == list(range(8))
        assert all(set(read) == set(positions) for read in seen)
        assert table == bytes([1, 0, 0, 1, 0, 0, 1, 0])

    def test_empty_read_gives_one_row(self):
        assert table_of((), lambda read: read == {}) == bytes([1])


class TestTableBytesArePinned:
    """sha256 of tables written before one module owned the row order."""

    def test_readme_amplify_and_its_fglss(self, tmp_path):
        path = lambda name: str(tmp_path / name)
        main(["gen", "--kind", "verifier", "--out", path("v.json"), "--seed", "7"])
        argv = ["amplify", "--in", path("v.json"), "--out", path("amp.json"), "--eps", "3/5", "--delta", "11/20"]
        assert main(argv + ["--expander-d", "4", "--target-ratio", "0.9", "--seed", "1"]) == 0
        assert main(["reduce", "fglss", "--in", path("amp.json"), "--out", path("fglss.json")]) == 0
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("amp.json") == "8e6453774a0c949cec790d602e4bda9fa964d334fe59bdc1fff1ef2948abc4d8"
        assert digest("fglss.json") == "a55e23106b9001499e3f8ab0ceba837c89fe83cea1fad50d40601eed015d8cbf"

    @pytest.mark.parametrize(
        "shape, seed, sha",
        [
            ((2, 2, 4), 0, "66d73ef82a9409267bb13510c5bfddaa0b8b28afde2d795df7c1a8e0c89a190b"),
            ((3, 2, 5), 1, "f32417147c7eb03e3acaf56e1c7a22402b031278f2ded4206c557450a12bbf72"),
            ((2, 3, 4), 2, "9af91575afcf46a9a039aad0525ca8cc511cbac58fd46b4ef330c73057df7edc"),
        ],
    )
    def test_planted_pair_verifiers(self, tmp_path, shape, seed, sha):
        serialize.save(generate_verifier_with_accepted_pair(seed, *shape), tmp_path / "v.json")
        assert hashlib.sha256((tmp_path / "v.json").read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize(
        "seed, t, sha",
        [
            (0, 0, "e265fbfda411ab0db0527beb30fb4ea98d469569c38b7e9c2c400fd0243c4de7"),
            (7, 2, "73c3ee891efeb8258444e6952bd075d6524f44a23ffee7a311f208cd1f7f41d3"),
        ],
    )
    def test_claim_accept_verifiers(self, tmp_path, seed, t, sha):
        serialize.save(checks._claim_verifier(seed, t), tmp_path / "v.json")
        assert hashlib.sha256((tmp_path / "v.json").read_bytes()).hexdigest() == sha

    def test_claim_accept_amplified_verifier(self, tmp_path):
        inst = checks._claim_verifier(0, 0)
        amped = amplify(inst.verifier, build_expander(16, 16, 0.15, 0), 2)
        serialize.save(VerifierInstance(amped, inst.start, inst.goal), tmp_path / "amp.json")
        digest = hashlib.sha256((tmp_path / "amp.json").read_bytes()).hexdigest()
        assert digest == "a511980038dc0c953da7315c32f2a1d5cee4fa8e2a996bc5407731e7eb6adeb4"
