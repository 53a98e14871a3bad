"""Verifier-to-constraint-graph (FGLSS-style) reduction with squared alphabet.

Vertices are randomness strings, symbols are local views of the proof
bits read there, and edges connect entries whose query tuples intersect
(every vertex also carries a self-loop).  Each coordinate of a local view
is one of {0}, {1}, or {0,1}; the joint value {0,1} is what lets a single
proof-bit flip travel through the graph one vertex at a time.  A
constraint accepts a pair of views iff every bit selection from either
view is accepted by that entry's decision table and the two views are
subset-comparable on every shared position.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

from .core import (
    BOTTOM,
    ConstraintGraph,
    KIND_PARTIAL,
    KIND_PROOF,
    ReconfigSequence,
    StructuralError,
    TableVerifier,
    _check_proof,
    hamming,
    validate_sequence,
)
from .solve import _satisfying
from .verifier import accept_prob, accepting_set, row_of

# Coordinate encoding of a local-view entry: {0}, {1}, or the joint {0,1}.
COORD_ZERO, COORD_ONE, COORD_BOTH = 0, 1, 2
COORD_SETS = ((0,), (1,), (0, 1))
COORD_LABELS = ("0", "1", "01")
# Votes for 1 minus votes for 0 that each coordinate casts.
_LEAD = (-1, 1, 0)

# Most positions an entry may read; the FGLSS alphabet has 3^q symbols.
QUERY_CEILING = 6


def symbol_coords(idx: int, width: int) -> tuple[int, ...]:
    """Base-3 digits of a symbol index, big-endian over ``width`` coordinates."""
    digits = []
    for _ in range(width):
        digits.append(idx % 3)
        idx //= 3
    return tuple(reversed(digits))


@cache
def coord_table(width: int) -> tuple[tuple[int, ...], ...]:
    """``symbol_coords(idx, width)`` of every symbol of a width, by index.

    Widths above ``QUERY_CEILING``, whose FGLSS graphs are never built,
    are refused, so at most that many tables are kept.
    """
    if width > QUERY_CEILING:
        raise StructuralError(f"verifier reads {width} positions per entry, ceiling is {QUERY_CEILING}")
    return tuple(symbol_coords(idx, width) for idx in range(3**width))


def symbol_index(coords) -> int:
    idx = 0
    for c in coords:
        idx = idx * 3 + c
    return idx


def symbol_label(coords) -> str:
    return ",".join(COORD_LABELS[c] for c in coords)


def view_pins(v: TableVerifier) -> list[list[tuple[int, int] | None]]:
    """Per entry and symbol, the masks of the proof positions the view pins
    to 0 and to 1, or None for an invalid view.

    A view is valid iff its unused coordinates are {0} and the entry's
    table accepts every bit selection from it (listed in query order).
    """
    symbols = coord_table(v.q)
    pins = []
    for positions, table in zip(v.queries, v.tables):
        m = len(positions)
        row = []
        for coords in symbols:
            if any(c != COORD_ZERO for c in coords[m:]) or not all(
                table[row_of(bits, range(m))] for bits in product(*(COORD_SETS[c] for c in coords[:m]))
            ):
                row.append(None)
            else:
                zero = sum(1 << i for i, c in zip(positions, coords) if c == COORD_ZERO)
                one = sum(1 << i for i, c in zip(positions, coords) if c == COORD_ONE)
                row.append((zero, one))
        pins.append(row)
    return pins


def build_fglss(v: TableVerifier) -> ConstraintGraph:
    """Build the squared-alphabet constraint graph of a table verifier.

    Alphabet size is 3^q; the build refuses verifiers whose maximum query
    count exceeds ``QUERY_CEILING`` rather than approximating.  Entries
    are adjacent iff their read masks meet, and two valid views are
    comparable iff neither pins to 0 a position the other pins to 1.
    """
    # (symbol, zero pins, one pins) of each entry's valid views.
    valid = [[(idx, *pins) for idx, pins in enumerate(row) if pins] for row in view_pins(v)]
    n = v.n_entries
    n_symbols = 3**v.q
    alphabet = tuple(symbol_label(c) for c in coord_table(v.q))
    vertices = tuple(format(rnd, f"0{max(1, v.r)}b") for rnd in range(n))
    reads = [sum(1 << i for i in positions) for positions in v.queries]
    edges: list[tuple[int, int]] = []
    tables: list[bytes] = []
    for r1 in range(n):
        for r2 in range(r1, n):
            if not reads[r1] & reads[r2]:
                continue
            table = bytearray(n_symbols * n_symbols)
            for i1, zero1, one1 in valid[r1]:
                base = i1 * n_symbols
                for i2, zero2, one2 in valid[r2]:
                    if not (zero1 & one2 or one1 & zero2):
                        table[base + i2] = 1
            edges.append((r1, r2))
            tables.append(bytes(table))
    return ConstraintGraph(
        vertices=vertices,
        arity=2,
        alphabet=alphabet,
        edges=tuple(edges),
        tables=tuple(tables),
    )


def embed_proof(v: TableVerifier, proof: str) -> tuple[int, ...]:
    """The full assignment reading off each entry's singleton local view."""
    _check_proof(v, proof)
    out = []
    for rnd in range(v.n_entries):
        coords = [COORD_ONE if proof[i] == "1" else COORD_ZERO for i in v.queries[rnd]]
        coords.extend([COORD_ZERO] * (v.q - len(coords)))
        out.append(symbol_index(coords))
    return tuple(out)


def completeness_sequence(v: TableVerifier, start: str, goal: str) -> ReconfigSequence:
    """Assignment path tracking a single proof-bit flip between two
    everywhere-accepted proofs.

    Phase one moves the flipped position's coordinate to the joint value
    {0,1} at every entry reading it; phase two settles each on the goal
    bit.  Every state stays full and satisfying, and the length is
    1 + 2 * degree(flipped position).
    """
    dist = hamming(start, goal)
    if dist > 1:
        raise StructuralError(f"proofs differ in {dist} positions, expected at most 1")
    for name, proof in (("start", start), ("goal", goal)):
        accepting = accepting_set(v, proof)
        for rnd in range(v.n_entries):
            if rnd not in accepting:
                raise StructuralError(f"{name} proof is rejected by entry {rnd}")
    f = list(embed_proof(v, start))
    states = [tuple(f)]
    if dist == 0:
        return ReconfigSequence(kind=KIND_PARTIAL, states=tuple(states))
    star = next(i for i in range(v.ell) if start[i] != goal[i])
    affected = [rnd for rnd in range(v.n_entries) if star in v.queries[rnd]]
    goal_coord = COORD_ONE if goal[star] == "1" else COORD_ZERO
    for new_coord in (COORD_BOTH, goal_coord):
        for rnd in affected:
            coords = list(symbol_coords(f[rnd], v.q))
            coords[v.queries[rnd].index(star)] = new_coord
            f[rnd] = symbol_index(coords)
            states.append(tuple(f))
    return ReconfigSequence(kind=KIND_PARTIAL, states=tuple(states))


def plurality_decode(v: TableVerifier, f) -> str:
    """Recover a proof from an assignment by plurality vote per position.

    Each assigned entry reading position i votes for every bit in its
    coordinate there; ties and positions read by no assigned entry decode
    to 0.  Decoding does not ask whether the assignment is satisfying.  A
    joint {0,1} coordinate votes for both bits, so only {1} against {0}
    coordinates decide a position: each position keeps that lead, read
    off the symbol's row of ``coord_table``.
    """
    if len(f) != v.n_entries:
        raise StructuralError("assignment domain must equal the randomness space")
    coords = coord_table(v.q)
    lead = [0] * v.ell
    for positions, a in zip(v.queries, f):
        if a != BOTTOM:
            for i, c in zip(positions, coords[a]):
                lead[i] += _LEAD[c]
    return "".join("1" if x > 0 else "0" for x in lead)


def interpolate_proofs(v: TableVerifier, start: str, goal: str) -> ReconfigSequence:
    """Flip the differing positions one at a time in ascending order."""
    _check_proof(v, start)
    _check_proof(v, goal)
    cur = list(start)
    states = ["".join(cur)]
    for i in range(v.ell):
        if cur[i] != goal[i]:
            cur[i] = goal[i]
            states.append("".join(cur))
    return ReconfigSequence(kind=KIND_PROOF, states=tuple(states))


def decode_sequence(
    v: TableVerifier, seq: ReconfigSequence, graph: ConstraintGraph
) -> tuple[ReconfigSequence, Fraction]:
    """Plurality-decode an assignment sequence on ``graph``, v's FGLSS graph, into proofs.

    Consecutive decoded proofs may differ in up to q positions, so they
    are bridged by single-bit interpolation (duplicated junction proofs
    dropped).  Also returns the exact minimum acceptance probability over
    the whole proof sequence.
    """
    if seq.kind != KIND_PARTIAL:
        raise StructuralError(f"expected a partial-assignment sequence, got {seq.kind!r}")
    report = validate_sequence(graph, seq)
    if not report.ok:
        raise StructuralError(
            f"assignment sequence invalid at index {report.index}: {report.reason}"
        )
    decoded = [plurality_decode(v, f) for f in seq.states]
    proofs = [decoded[0]]
    for nxt in decoded[1:]:
        bridge = interpolate_proofs(v, proofs[-1], nxt)
        proofs.extend(bridge.states[1:])
    min_acc = min(accept_prob(v, p) for p in proofs)
    return ReconfigSequence(kind=KIND_PROOF, states=tuple(proofs)), min_acc


def enumerate_satisfying_partials(graph: ConstraintGraph, limit: int = 2_000_000):
    """Yield every satisfying partial assignment by pruned backtracking.

    Vertices are assigned in index order over (BOTTOM, then admissible
    symbols); a symbol is tried only if every edge to an assigned earlier
    vertex accepts it.  ``limit`` bounds the number of search nodes, one
    per value a vertex offers (`solve._satisfying`).
    """
    yield from _satisfying(graph, bottom=True, limit=limit)
