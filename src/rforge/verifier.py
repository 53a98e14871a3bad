"""Evaluation of explicit-table proof verifiers (`core.TableVerifier`).

Acceptance probabilities, degrees, and regularity are exact, by
enumeration.  This module owns the decision-table row order (``reads``,
``row_of``) and evaluates a table on many proofs at once (``literals``,
``accept_mask``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

from .core import BOTTOM, ConstraintGraph, StructuralError, TableVerifier, _check_proof, normalize_self_loops


def accept_prob(v: TableVerifier, proof: str) -> Fraction:
    """Exact fraction of randomness strings accepting the proof."""
    return Fraction(len(accepting_set(v, proof)), v.n_entries)


def accepting_set(v: TableVerifier, proof: str) -> frozenset[int]:
    """Randomness strings that accept the proof, which is read once."""
    _check_proof(v, proof)
    bits = [c == "1" for c in proof]
    return frozenset(
        rnd for rnd, (positions, table) in enumerate(zip(v.queries, v.tables)) if table[row_of(bits, positions)]
    )


def acceptance_rows(v: TableVerifier) -> list[bytes]:
    """Byte w of row R is 1 iff entry R accepts proof ``format(w, f"0{v.ell}b")``.

    A proof's accepting entries are its column, its count the column sum.
    Each row is one ``accept_mask`` over lanes of 8 bits, read out
    little-endian.
    """
    every, by_position = literals(v.ell, 8)
    return [
        accept_mask(table, [by_position[i] for i in positions], every).to_bytes(1 << v.ell, "little")
        for positions, table in zip(v.queries, v.tables)
    ]


def literals(n_bits: int, width: int = 1) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Bit 0 of each of 2^n_bits lanes of ``width`` bits, and per position k
    (bit n_bits - 1 - k of a lane's index, as in row order) the lanes that
    read 0 there and the lanes that read 1."""
    every = _lanes(1 << n_bits, width)
    return every, tuple((every ^ ones, ones) for ones in reversed(bit_lanes(n_bits, width)))


def accept_mask(table: bytes, lits: Sequence[tuple[int, int]], within: int) -> int:
    """The lanes of ``within`` whose read the table accepts: the OR, over its
    accepting rows, of the AND of the literals the row reads.  ``lits[j]``
    is the ``literals`` (0, 1) pair of the table's j-th position."""
    mask = 0
    for read, accepts in zip(reads(len(lits)), table):
        if accepts:
            hit = within
            for literal, bit in zip(lits, read):
                hit &= literal[bit]
            mask |= hit
    return mask


def _lanes(count: int, stride: int) -> int:
    """Bit 0 of each of ``count`` lanes of ``stride`` bits."""
    return ((1 << (count * stride)) - 1) // ((1 << stride) - 1)


def bit_lanes(n_bits: int, width: int = 1) -> list[int]:
    """Entry j: bit 0 of each lane w, of 2^n_bits lanes of ``width`` bits,
    whose index w has bit j set.

    Indices with bit j set come in runs of 2^j, after runs with it clear.
    """
    count = 1 << n_bits
    return [
        (_lanes(run, width) << (run * width)) * _lanes(count // (2 * run), 2 * run * width)
        for run in (1 << j for j in range(n_bits))
    ]


def reads(n_positions: int) -> Iterator[tuple[int, ...]]:
    """Every read of ``n_positions`` bits as a bit tuple, in decision-table
    row order: the k-th has ``row_of(read, range(n_positions)) == k``."""
    return product((0, 1), repeat=n_positions)


def row_of(bits: Mapping[int, int] | Sequence[int], positions: Sequence[int]) -> int:
    """The decision-table row a read selects: ``bits[i]`` for i in
    ``positions``, big-endian in query order."""
    row = 0
    for i in positions:
        row = (row << 1) | bits[i]
    return row


def table_of(positions: Sequence[int], accepts: Callable[[dict[int, int]], bool]) -> bytes:
    """The decision table over ``positions``: row k is 1 iff ``accepts`` takes its read.

    ``accepts`` is called once per row, rows ascending, with the read as a
    position -> bit dict (``row_of(read, positions) == k``).  Generators
    that draw from a random stream inside ``accepts`` rely on this order.
    """
    return bytes(1 if accepts(dict(zip(positions, bits))) else 0 for bits in reads(len(positions)))


def degree(v: TableVerifier, i: int) -> int:
    """Number of randomness strings querying position i."""
    if i < 0 or i >= v.ell:
        raise StructuralError(f"position {i} out of range [0, {v.ell})")
    return sum(1 for positions in v.queries if i in positions)


def degrees(v: TableVerifier) -> tuple[int, ...]:
    counts = [0] * v.ell
    for positions in v.queries:
        for i in positions:
            counts[i] += 1
    return tuple(counts)


def symbol_bits(n_symbols: int) -> int:
    """Bits per vertex when encoding symbols as binary codewords."""
    return max(1, (n_symbols - 1).bit_length())


def encode_assignment(g: ConstraintGraph, f: Sequence[int]) -> str:
    """Binary proof encoding a full assignment, b bits per vertex, big-endian."""
    if len(f) != g.n_vertices:
        raise StructuralError("assignment domain must equal the vertex set")
    if any(a == BOTTOM for a in f):
        raise StructuralError("only full assignments can be encoded")
    b = symbol_bits(g.n_symbols)
    return "".join(format(a, f"0{b}b") for a in f)


def csp_to_verifier(g: ConstraintGraph) -> TableVerifier:
    """Turn a binary constraint graph into a table verifier over encoded proofs.

    Each vertex occupies b = ceil(log2 |alphabet|) proof bits.  One
    randomness value is spent per non-loop edge, padded to a power of two
    by cycling through the edge list; the entry for edge (v, w) reads both
    codewords and accepts iff they decode to in-range admissible symbols
    that the edge table accepts.  Self-loops are folded into admissible
    sets first (a loop's positions would coincide, which query tuples
    forbid).
    """
    norm = normalize_self_loops(g)
    if not norm.edges:
        raise StructuralError("constraint graph has no non-loop edges to check")
    b = symbol_bits(norm.n_symbols)
    ell = b * norm.n_vertices
    n_edges = len(norm.edges)
    r = max(1, (n_edges - 1).bit_length())
    queries: list[tuple[int, ...]] = []
    tables: list[bytes] = []
    for rnd in range(2**r):
        e_idx = rnd % n_edges
        v, w = norm.edges[e_idx]
        at_v, at_w = range(v * b, (v + 1) * b), range(w * b, (w + 1) * b)

        def accepts(read):
            alpha, beta = row_of(read, at_v), row_of(read, at_w)
            return alpha in norm.admissible[v] and beta in norm.admissible[w] and norm.accepts(e_idx, alpha, beta)

        positions = (*at_v, *at_w)
        queries.append(positions)
        tables.append(table_of(positions, accepts))
    return TableVerifier(r=r, q=2 * b, ell=ell, queries=tuple(queries), tables=tuple(tables))
