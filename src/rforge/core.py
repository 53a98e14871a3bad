"""Instance types, feasibility checks, and sequence validation.

Five families of reconfiguration instances are supported: binary
constraint graphs with partial or multi assignments, set systems
with covers, hypergraphs with vertex covers, and bitstring proofs checked
by a table verifier.  All instance types are immutable after construction
and every operation here is a pure function, so concurrent use needs no
synchronization.

State representations are deliberately plain:

* a partial assignment is a ``tuple[int, ...]`` over vertex indices with
  ``BOTTOM`` (= -1) marking an unassigned vertex,
* a multi assignment is a ``tuple[frozenset[int], ...]`` of symbol-index
  sets,
* a cover (or vertex cover) is a ``frozenset[int]`` of set / vertex
  indices,
* a proof is a ``str`` of ``'0'``/``'1'`` characters.

``KINDS`` gives each state kind's instance type, feasibility test, size,
step metric, canonical form and neighbour relation; ``BUNDLES`` gives
each instance bundle type's instance field and endpoint kind.  A bundle
is checked once, when built: its start and goal are put in canonical
form and must be feasible states of its instance, so no consumer checks
them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

BOTTOM = -1  # sentinel symbol id for "unassigned"; outside the alphabet index range

KIND_PROOF = "proof"
KIND_PARTIAL = "partial-assignment"
KIND_MULTI = "multi-assignment"
KIND_COVER = "cover"
KIND_VERTEX_COVER = "vertex-cover"


class RforgeError(Exception):
    """Base class for package errors.  ``exit_code`` drives the CLI."""

    exit_code = 2


class StructuralError(RforgeError):
    """Malformed input, precondition violation, or size-ceiling refusal."""

    exit_code = 2


class BudgetExhaustedError(RforgeError):
    """A solver hit its state budget before producing an answer."""

    exit_code = 3


@dataclass(frozen=True)
class ConstraintGraph:
    """A binary constraint system over an indexed vertex set.

    ``arity`` is always 2 and kept so that files state it.  ``edges`` holds
    ordered vertex pairs (self-loops ``(v, v)`` are legal).  ``tables[i]``
    is the truth table of edge ``i`` as a flat 0/1 byte string in row-major
    symbol order, so edge ``(v, w)`` accepts ``(a, b)`` iff
    ``tables[i][a * s + b]`` is 1.  ``admissible`` optionally restricts each
    vertex to a nonempty symbol subset (produced by self-loop normalization).
    """

    vertices: tuple[str, ...]
    arity: int
    alphabet: tuple[str, ...]
    edges: tuple[tuple[int, ...], ...]
    tables: tuple[bytes, ...]
    admissible: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        n, s = len(self.vertices), len(self.alphabet)
        if n == 0:
            raise StructuralError("constraint graph needs at least one vertex")
        if s == 0:
            raise StructuralError("alphabet must be nonempty")
        if self.arity != 2:
            raise StructuralError(f"only binary constraint graphs are supported, got arity {self.arity}")
        if len(set(self.vertices)) != n:
            raise StructuralError("vertex labels must be unique")
        if len(set(self.alphabet)) != s:
            raise StructuralError("alphabet labels must be unique")
        if len(self.tables) != len(self.edges):
            raise StructuralError("one truth table per edge required")
        expected = s * s
        for e_idx, edge in enumerate(self.edges):
            if len(edge) != 2:
                raise StructuralError(f"edge {e_idx} has {len(edge)} entries, expected 2")
            if any(v < 0 or v >= n for v in edge):
                raise StructuralError(f"edge {e_idx} references a missing vertex")
            if len(self.tables[e_idx]) != expected:
                raise StructuralError(
                    f"table {e_idx} has {len(self.tables[e_idx])} entries, expected {expected}"
                )
            if self.tables[e_idx].translate(None, b"\x00\x01"):
                raise StructuralError(f"table {e_idx} contains a non-boolean entry")
        if self.admissible is not None:
            if len(self.admissible) != n:
                raise StructuralError("admissible sets must cover every vertex")
            for v, allowed in enumerate(self.admissible):
                if not allowed:
                    raise StructuralError(f"admissible set of vertex {v} is empty")
                if any(a < 0 or a >= s for a in allowed):
                    raise StructuralError(f"admissible set of vertex {v} leaves the alphabet")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    def allowed_symbols(self, v: int) -> frozenset[int]:
        return self._allowed[v]

    @cached_property
    def _allowed(self) -> tuple[frozenset[int], ...]:
        """Each vertex's admissible set, the whole alphabet where none is given."""
        if self.admissible is None:
            return (frozenset(range(self.n_symbols)),) * self.n_vertices
        return self.admissible

    def accepts(self, e_idx: int, a: int, b: int) -> bool:
        """Edge ``e_idx`` accepts symbol ``a`` at its first vertex and ``b`` at its second."""
        return self.tables[e_idx][a * self.n_symbols + b] == 1

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(v, a) for each vertex v and admissible symbol a, by vertex, then symbol.

        The reductions index their sets and real hypergraph vertices by it.
        """
        return tuple((v, a) for v in range(self.n_vertices) for a in sorted(self.allowed_symbols(v)))

    def has_self_loops(self) -> bool:
        return any(v == w for v, w in self.edges)


@dataclass(frozen=True)
class SetSystem:
    """A universe plus an indexed family of subsets, all carrying labels."""

    elements: tuple[str, ...]
    sets: tuple[frozenset[int], ...]
    set_labels: tuple[str, ...]

    def __post_init__(self):
        m = len(self.sets)
        if len(self.set_labels) != m:
            raise StructuralError("one label per set required")
        if len(set(self.elements)) != len(self.elements):
            raise StructuralError("element labels must be unique")
        if len(set(self.set_labels)) != m:
            raise StructuralError("set labels must be unique")
        n = len(self.elements)
        for i, members in enumerate(self.sets):
            if members and (min(members) < 0 or max(members) >= n):
                raise StructuralError(f"set {i} references a missing element")

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_sets(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph, optionally certified u-uniform."""

    vertices: tuple[str, ...]
    hyperedges: tuple[frozenset[int], ...]
    uniformity: int | None = None

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise StructuralError("vertex labels must be unique")
        n = len(self.vertices)
        for i, edge in enumerate(self.hyperedges):
            if edge and (min(edge) < 0 or max(edge) >= n):
                raise StructuralError(f"hyperedge {i} references a missing vertex")
            if self.uniformity is not None and len(edge) != self.uniformity:
                raise StructuralError(
                    f"hyperedge {i} has size {len(edge)}, uniformity demands {self.uniformity}"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TableVerifier:
    """Explicit randomness -> (query tuple, decision table) map.

    ``queries[R]`` lists distinct 0-based proof positions; ``tables[R]``
    has ``2 ** len(queries[R])`` 0/1 entries indexed by the read bits in
    big-endian order.  ``q`` is the maximum query-tuple length; freshly
    constructed verifiers query exactly ``q`` positions everywhere, while
    walk-amplified ones may query fewer on some randomness strings after
    duplicate positions are merged.
    """

    r: int
    q: int
    ell: int
    queries: tuple[tuple[int, ...], ...]
    tables: tuple[bytes, ...]

    def __post_init__(self):
        if self.r < 0 or self.q < 1 or self.ell < 1:
            raise StructuralError("verifier parameters must be positive")
        if len(self.queries) != 2**self.r or len(self.tables) != 2**self.r:
            raise StructuralError(f"verifier needs exactly 2^{self.r} entries")
        if max(len(i) for i in self.queries) != self.q:
            raise StructuralError("q must equal the maximum query-tuple length")
        for rnd, positions in enumerate(self.queries):
            if not positions:
                raise StructuralError(f"entry {rnd} queries nothing")
            if len(set(positions)) != len(positions):
                raise StructuralError(f"entry {rnd} repeats a query position")
            if any(i < 0 or i >= self.ell for i in positions):
                raise StructuralError(f"entry {rnd} queries outside the proof")
            if len(self.tables[rnd]) != 2 ** len(positions):
                raise StructuralError(f"decision table {rnd} has the wrong size")
            if self.tables[rnd].translate(None, b"\x00\x01"):
                raise StructuralError(f"decision table {rnd} contains a non-boolean entry")

    @property
    def n_entries(self) -> int:
        return 2**self.r


def _check_proof(v: TableVerifier, proof: str) -> None:
    if len(proof) != v.ell:
        raise StructuralError(f"proof length {len(proof)} != {v.ell}")
    if any(c not in "01" for c in proof):
        raise StructuralError("proof must be a 0/1 string")


@dataclass(frozen=True)
class ReconfigSequence:
    """An ordered list of states of one kind; see module docstring for encodings."""

    kind: str
    states: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError(f"unknown sequence kind {self.kind!r}")
        if len(self.states) == 0:
            raise StructuralError("a reconfiguration sequence must be nonempty")


# Instance bundles: an instance plus its start/goal states, as stored on disk.


@dataclass(frozen=True)
class _Endpoints:
    """Base of the four state bundles, whose instance field and state kind
    ``BUNDLES`` names: ``start`` and ``goal`` are put in the kind's
    canonical form, and an infeasible or malformed one is refused with a
    message that names it."""

    def __post_init__(self):
        part, name = BUNDLES[type(self)]
        kind, instance = KINDS[name], getattr(self, part)
        for end in ("start", "goal"):
            state = kind.canonical(getattr(self, end))
            try:
                feasible = kind.feasible(instance, state)
            except StructuralError as exc:
                raise StructuralError(f"{end}: {exc}") from exc
            if not feasible:
                raise StructuralError(f"{end} is not a feasible {name} of its {part}")
            object.__setattr__(self, end, state)


@dataclass(frozen=True)
class P2cspInstance(_Endpoints):
    graph: ConstraintGraph
    start: tuple[int, ...]
    goal: tuple[int, ...]


@dataclass(frozen=True)
class LabelCoverInstance(_Endpoints):
    graph: ConstraintGraph
    start: tuple[frozenset[int], ...]
    goal: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class SetCoverInstance(_Endpoints):
    system: SetSystem
    start: frozenset[int]
    goal: frozenset[int]


@dataclass(frozen=True)
class HvcInstance(_Endpoints):
    hypergraph: Hypergraph
    start: frozenset[int]
    goal: frozenset[int]


@dataclass(frozen=True)
class VerifierInstance:
    """A verifier with its start and goal proofs, either of which may be absent."""

    verifier: TableVerifier
    start: str | None = None
    goal: str | None = None

    def __post_init__(self):
        for proof in (self.start, self.goal):
            if proof is not None:
                _check_proof(self.verifier, proof)


# ---------------------------------------------------------------------------
# Size measures and step metrics
# ---------------------------------------------------------------------------


def partial_size(f: Sequence[int]) -> int:
    """Number of assigned (non-BOTTOM) vertices."""
    return sum(1 for a in f if a != BOTTOM)


def multi_size(f: Sequence[frozenset[int]]) -> int:
    """Total number of symbols over all vertices."""
    return sum(len(a) for a in f)


def is_full(f: Sequence[int]) -> bool:
    return all(a != BOTTOM for a in f)


def hamming(a: Sequence, b: Sequence) -> int:
    if len(a) != len(b):
        raise StructuralError("hamming distance needs equal-length states")
    return sum(1 for x, y in zip(a, b) if x != y)


def multi_step_size(f: Sequence[frozenset[int]], g: Sequence[frozenset[int]]) -> int:
    """Total symmetric-difference size between two multi assignments."""
    if len(f) != len(g):
        raise StructuralError("multi assignments must share the vertex set")
    return sum(len(x ^ y) for x, y in zip(f, g))


def set_step_size(c: frozenset, d: frozenset) -> int:
    return len(c ^ d)


# ---------------------------------------------------------------------------
# Satisfaction checks
# ---------------------------------------------------------------------------


def _check_symbols(g: ConstraintGraph, f: Sequence[int], allow_bottom: bool) -> None:
    if len(f) != g.n_vertices:
        raise StructuralError("assignment domain must equal the vertex set")
    lo = BOTTOM if allow_bottom else 0
    for v, a in enumerate(f):
        if a < lo or a >= g.n_symbols:
            raise StructuralError(f"symbol {a} at vertex {v} is out of alphabet range")


def satisfies_assignment(g: ConstraintGraph, f: Sequence[int]) -> bool:
    """Full-assignment check: admissible symbols, and every edge's table accepts."""
    _check_symbols(g, f, allow_bottom=False)
    if g.admissible is not None and any(f[v] not in g.admissible[v] for v in range(g.n_vertices)):
        return False
    return all(g.accepts(e_idx, f[v], f[w]) for e_idx, (v, w) in enumerate(g.edges))


def satisfies_partial(g: ConstraintGraph, f: Sequence[int]) -> bool:
    """Binary-graph partial assignment check.

    An edge whose endpoints are both assigned must have its table accept;
    an edge with an unassigned endpoint passes vacuously.  With admissible
    sets present, each assigned vertex must use an admissible symbol.
    """
    _check_symbols(g, f, allow_bottom=True)
    if g.admissible is not None:
        for v, a in enumerate(f):
            if a != BOTTOM and a not in g.admissible[v]:
                return False
    s = g.n_symbols
    for (v, w), table in zip(g.edges, g.tables):
        a, b = f[v], f[w]
        if a != BOTTOM and b != BOTTOM and table[a * s + b] != 1:
            return False
    return True


def satisfies_multi(g: ConstraintGraph, f: Sequence[frozenset[int]]) -> bool:
    """Binary-graph multi assignment check.

    An edge ``(v, w)`` is satisfied when some pair in ``f(v) x f(w)`` is
    accepted; an empty set at either endpoint of an edge therefore fails
    that edge.  With admissible sets present (they come from folded
    self-loops, each a constraint on its vertex) no set may be empty;
    without them a vertex with no incident edges may be.  Multi semantics
    for self-loops is undefined; normalize them away first.
    """
    if g.has_self_loops():
        raise StructuralError(
            "multi-assignment semantics is undefined on self-loops; "
            "apply normalize_self_loops first"
        )
    if len(f) != g.n_vertices:
        raise StructuralError("assignment domain must equal the vertex set")
    s = g.n_symbols
    for v, vals in enumerate(f):
        if vals and (min(vals) < 0 or max(vals) >= s):
            raise StructuralError(f"symbol out of alphabet range at vertex {v}")
        if g.admissible is not None and not (vals and vals <= g.admissible[v]):
            return False
    # ``multi_edge_satisfied`` per edge, inlined: this runs on every endpoint check.
    return all(any(tab[a * s + b] for a in f[v] for b in f[w]) for (v, w), tab in zip(g.edges, g.tables))


def multi_edge_satisfied(g: ConstraintGraph, e_idx: int, f: Sequence[frozenset[int]]) -> bool:
    """Binary edge ``(v, w)`` accepts some pair in ``f(v) x f(w)``."""
    v, w = g.edges[e_idx]
    s, tab = g.n_symbols, g.tables[e_idx]
    return any(tab[a * s + b] for a in f[v] for b in f[w])


def normalize_self_loops(g: ConstraintGraph) -> ConstraintGraph:
    """Fold self-loop constraints into per-vertex admissible sets.

    A loop ``(v, v)`` only ever tests the diagonal of its table against
    single assignments, so it is equivalent to restricting vertex ``v`` to
    the diagonal-accepting symbols.  Returns the loop-free graph with
    admissible sets attached (intersected with any existing ones); raises
    ``StructuralError`` if some vertex ends up with no legal symbol.
    """
    s = g.n_symbols
    adm = [set(g.allowed_symbols(v)) for v in range(g.n_vertices)]
    edges: list[tuple[int, ...]] = []
    tables: list[bytes] = []
    for e_idx, (v, w) in enumerate(g.edges):
        if v == w:
            diag = {a for a in range(s) if g.tables[e_idx][a * s + a] == 1}
            adm[v] &= diag
        else:
            edges.append((v, w))
            tables.append(g.tables[e_idx])
    for v, allowed in enumerate(adm):
        if not allowed:
            raise StructuralError(f"unsatisfiable vertex {g.vertices[v]!r}: no admissible symbol")
    return ConstraintGraph(
        vertices=g.vertices,
        arity=2,
        alphabet=g.alphabet,
        edges=tuple(edges),
        tables=tuple(tables),
        admissible=tuple(frozenset(a) for a in adm),
    )


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------


def is_cover(system: SetSystem, cover: Iterable[int]) -> bool:
    chosen = frozenset(cover)
    if chosen and (min(chosen) < 0 or max(chosen) >= system.n_sets):
        raise StructuralError("cover references a missing set")
    covered: set[int] = set()
    for i in chosen:
        covered |= system.sets[i]
    return len(covered) == system.n_elements


def transpose(sets: Sequence[Iterable[int]], n: int) -> list[list[int]]:
    """For each of ``n`` items, the indices of the sets containing it, ascending.

    The transpose of a set system's sets is a hypergraph whose vertex
    covers are the system's covers.
    """
    containing: list[list[int]] = [[] for _ in range(n)]
    for i, members in enumerate(sets):
        for item in members:
            containing[item].append(i)
    return containing


def is_vertex_cover(h: Hypergraph, cover: Iterable[int]) -> bool:
    chosen = frozenset(cover)
    if chosen and (min(chosen) < 0 or max(chosen) >= h.n_vertices):
        raise StructuralError("vertex cover references a missing vertex")
    return all(edge & chosen for edge in h.hyperedges)


# ---------------------------------------------------------------------------
# Sequence validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_sequence; ``index`` points at the first bad state.

    For a step-metric violation the index of the latter state of the
    offending transition is reported.
    """

    ok: bool
    index: int | None = None
    reason: str | None = None


def _is_proof(v: TableVerifier, proof) -> bool:
    return isinstance(proof, str) and len(proof) == v.ell and set(proof) <= {"0", "1"}


def _reassignments(g: ConstraintGraph, f: tuple[int, ...]):
    """Each state that reassigns one vertex: to BOTTOM or to another allowed symbol."""
    for v, a in enumerate(f):
        for b in (BOTTOM, *sorted(g.allowed_symbols(v))):
            if b != a:
                yield f[:v] + (b,) + f[v + 1 :]


def _label_toggles(g: ConstraintGraph, f: tuple[frozenset[int], ...]):
    """Each state that adds or removes one allowed label at one vertex."""
    for v, labels in enumerate(f):
        for a in sorted(g.allowed_symbols(v)):
            yield f[:v] + (labels ^ {a},) + f[v + 1 :]


@dataclass(frozen=True)
class StateKind:
    """What a state kind means: the instance type its states live on, the
    feasibility test, the size a solver optimizes (none for proofs), the
    step metric (a legal step has metric at most 1), the canonical form
    of a state given as any iterable, and the neighbour relation of the
    reconfiguration graph (none for proofs): every state, feasible or
    not, one step from a given canonical state, each in canonical form."""

    instance_type: type
    feasible: Callable[[object, object], bool]
    size: Callable[[object], int] | None
    step: Callable[[object, object], int]
    canonical: Callable[[object], object]
    neighbours: Callable[[object, object], Iterable] | None


KINDS = {
    KIND_PROOF: StateKind(TableVerifier, _is_proof, None, hamming, str, None),
    KIND_PARTIAL: StateKind(ConstraintGraph, satisfies_partial, partial_size, hamming, tuple, _reassignments),
    KIND_MULTI: StateKind(
        ConstraintGraph, satisfies_multi, multi_size, multi_step_size,
        lambda f: tuple(map(frozenset, f)), _label_toggles,
    ),
    # A cover's neighbours add or remove one set, a vertex cover's one vertex.
    KIND_COVER: StateKind(
        SetSystem, is_cover, len, set_step_size, frozenset,
        lambda s, c: (c ^ {i} for i in range(s.n_sets)),
    ),
    KIND_VERTEX_COVER: StateKind(
        Hypergraph, is_vertex_cover, len, set_step_size, frozenset,
        lambda h, c: (c ^ {i} for i in range(h.n_vertices)),
    ),
}

# Instance bundle type -> (field holding the instance, kind of its endpoints).
BUNDLES = {
    P2cspInstance: ("graph", KIND_PARTIAL),
    LabelCoverInstance: ("graph", KIND_MULTI),
    SetCoverInstance: ("system", KIND_COVER),
    HvcInstance: ("hypergraph", KIND_VERTEX_COVER),
    VerifierInstance: ("verifier", KIND_PROOF),
}


def validate_sequence(instance, seq: ReconfigSequence, start=None, goal=None) -> ValidationReport:
    """Check endpoints, per-state feasibility, and the single-change step metric.

    ``start``/``goal`` are optional expected endpoint states.  Returns the
    first violation found (scanning states in order, checking feasibility
    of a state before the step into it).
    """
    kind = KINDS[seq.kind]
    if not isinstance(instance, kind.instance_type):
        raise StructuralError(
            f"sequence kind {seq.kind!r} does not match instance type {type(instance).__name__}"
        )
    if start is not None and seq.states[0] != start:
        return ValidationReport(False, 0, "sequence does not begin at the start state")
    if goal is not None and seq.states[-1] != goal:
        return ValidationReport(False, len(seq.states) - 1, "sequence does not end at the goal state")
    prev = None
    for t, state in enumerate(seq.states):
        if not kind.feasible(instance, state):
            return ValidationReport(False, t, "infeasible state")
        if prev is not None and kind.step(prev, state) > 1:
            return ValidationReport(False, t, "step changes more than one unit")
        prev = state
    return ValidationReport(True)
