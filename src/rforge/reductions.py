"""Gap-preserving reductions between the reconfiguration problems.

Three constructions:

* singleton lifting of partial assignments to label-cover multi
  assignments, with the half-step witness transformation,
* label cover -> minmax set cover over the universe E x B, where
  B = {0,1}^Sigma and the hypercube gadgets Q̄ and Q turn edge
  satisfaction into coverage of the edge's block, plus one element per
  vertex on no edge,
* label cover -> minmax hypergraph vertex cover as the transpose of the
  set-cover instance (one hyperedge per element, holding the sets that
  contain it), padded to a uniform hyperedge size.

Each reduction returns the instance bundle it feeds.  Sets and real
vertices follow the source graph's ``pairs``, its (vertex, symbol) order
over admissible symbols, which ``cover_to_labels`` and ``labels_to_cover``
read back; they carry provenance labels ("(v,a)" for sets and real
vertices, "(e,bits)" for universe elements and hyperedges).
"""

from __future__ import annotations

from .core import (
    BOTTOM,
    ConstraintGraph,
    HvcInstance,
    Hypergraph,
    KIND_MULTI,
    KIND_PARTIAL,
    LabelCoverInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    is_full,
    multi_size,
    satisfies_multi,
    satisfies_partial,
    transpose,
)


# Most universe elements a cover reduction builds, 21 times the README
# seed-7 universe; a 196,608-element hypergraph already takes 1.2 GB.
MAX_UNIVERSE = 2**16


# ---------------------------------------------------------------------------
# Partial assignments -> label cover
# ---------------------------------------------------------------------------


def p2csp_to_labelcover(g: ConstraintGraph, f_start, f_goal) -> LabelCoverInstance:
    """Same graph, endpoints lifted to singleton multi assignments.

    Requires full satisfying endpoints (the perfect-completeness regime).
    """
    f_start, f_goal = tuple(f_start), tuple(f_goal)
    for name, f in (("start", f_start), ("goal", f_goal)):
        if not is_full(f):
            raise StructuralError(f"{name} assignment must be full")
        if not satisfies_partial(g, f):
            raise StructuralError(f"{name} assignment does not satisfy the graph")
    lifted_s = tuple(frozenset((a,)) for a in f_start)
    lifted_g = tuple(frozenset((a,)) for a in f_goal)
    return LabelCoverInstance(graph=g, start=lifted_s, goal=lifted_g)


def lift_partial_sequence(g: ConstraintGraph, seq: ReconfigSequence) -> ReconfigSequence:
    """Half-step lift of a full-assignment sequence to multi assignments.

    Between consecutive states differing at one vertex the lift inserts
    the state holding both symbols there, so each original step becomes
    two single-symbol toggles.  Every lifted state has size |V| or
    |V| + 1.
    """
    if seq.kind != KIND_PARTIAL:
        raise StructuralError(f"expected a partial-assignment sequence, got {seq.kind!r}")
    for f in seq.states:
        if not is_full(f):
            raise StructuralError("half-step lifting needs full assignments throughout")
    states: list[tuple[frozenset[int], ...]] = []
    prev = None
    for f in seq.states:
        cur = tuple(frozenset((a,)) for a in f)
        if prev is not None and prev != cur:
            diff = [v for v in range(len(f)) if prev[v] != cur[v]]
            if len(diff) != 1:
                raise StructuralError("consecutive states differ in more than one vertex")
            v_star = diff[0]
            half = prev[:v_star] + (prev[v_star] | cur[v_star],) + prev[v_star + 1 :]
            states.append(half)
        if prev != cur:
            states.append(cur)
        prev = cur
    if not states:
        states.append(tuple(frozenset((a,)) for a in seq.states[0]))
    return ReconfigSequence(kind=KIND_MULTI, states=tuple(states))


def project_multi_sequence(g: ConstraintGraph, seq: ReconfigSequence) -> ReconfigSequence:
    """Singleton projection of a multi-assignment sequence.

    Vertices holding exactly one label keep it; all others project to
    unassigned.  The result is a valid partial-assignment sequence with
    duplicate consecutive states collapsed.
    """
    if seq.kind != KIND_MULTI:
        raise StructuralError(f"expected a multi-assignment sequence, got {seq.kind!r}")
    states: list[tuple[int, ...]] = []
    for f in seq.states:
        proj = tuple(next(iter(vals)) if len(vals) == 1 else BOTTOM for vals in f)
        if not states or states[-1] != proj:
            states.append(proj)
    return ReconfigSequence(kind=KIND_PARTIAL, states=tuple(states))


# ---------------------------------------------------------------------------
# Hypercube gadgets over B = {0,1}^sigma (bit j of x is x's value at symbol j)
# ---------------------------------------------------------------------------


def _cube(sigma: int, symbols, meets: bool) -> frozenset[int]:
    """Vectors of {0,1}^sigma that meet (or miss) the bits of ``symbols``."""
    if sigma < 1:
        raise StructuralError("gadget space needs at least one symbol")
    mask = 0
    for a in symbols:
        if not 0 <= a < sigma:
            raise StructuralError(f"symbol {a} outside the alphabet of size {sigma}")
        mask |= 1 << a
    return frozenset(x for x in range(2**sigma) if bool(x & mask) == meets)


def q_alpha(sigma: int, alpha: int) -> frozenset[int]:
    """Q_a = vectors with bit a set."""
    return _cube(sigma, (alpha,), True)


def qbar_alpha(sigma: int, alpha: int) -> frozenset[int]:
    """Q̄_a = vectors with bit a clear."""
    return _cube(sigma, (alpha,), False)


def q_subset(sigma: int, symbols) -> frozenset[int]:
    """Q_S = union of Q_a over a in S; empty S gives the empty set.

    The law Q̄_a ∪ Q_S = B iff a in S is what the coverage equivalence of
    the set-cover reduction rests on.
    """
    return _cube(sigma, symbols, True)


# ---------------------------------------------------------------------------
# Label cover -> set cover
# ---------------------------------------------------------------------------


def _check_labelcover_endpoints(g: ConstraintGraph, f_start, f_goal):
    f_start = tuple(frozenset(a) for a in f_start)
    f_goal = tuple(frozenset(a) for a in f_goal)
    if g.arity != 2:
        raise StructuralError(f"reduction needs arity 2, got {g.arity}")
    if g.has_self_loops():
        raise StructuralError("normalize self-loops before reducing")
    for name, f in (("start", f_start), ("goal", f_goal)):
        if multi_size(f) != g.n_vertices or any(len(vals) != 1 for vals in f):
            raise StructuralError(f"{name} must assign exactly one label per vertex")
        if not satisfies_multi(g, f):
            raise StructuralError(f"{name} does not satisfy the graph")
    return f_start, f_goal


def _edge_lo_hi(g: ConstraintGraph, e_idx: int):
    """Orient an edge by vertex index; sat(a_lo, b_hi) reads the stored table."""
    v, w = g.edges[e_idx]
    if v <= w:
        lo, hi = v, w
        sat = lambda a, b: g.tables[e_idx][a * g.n_symbols + b] == 1
    else:
        lo, hi = w, v
        sat = lambda a, b: g.tables[e_idx][b * g.n_symbols + a] == 1
    return lo, hi, sat


def _cover_sets(g: ConstraintGraph, f_start, f_goal):
    """The set-cover reduction both cover reductions are built from.

    Returns the label of each set S_{v,a}, each set's members as universe
    element indices, the element labels, and the start and goal covers.
    Elements are (e, x) for each edge e and hypercube vector x, then one
    element per vertex v on no edge.  Every S_{v,a} of an edgeless vertex
    covers v's element, so a cover keeps a label at v as label cover must
    when admissible sets (folded self-loops) forbid the empty set.  Without
    admissible sets the identity cannot hold there, and the vertex is
    rejected.
    """
    f_start, f_goal = _check_labelcover_endpoints(g, f_start, f_goal)
    sigma = g.n_symbols
    size = len(g.edges) * 2**sigma + sum(not edges for edges in g.incident)
    if size > MAX_UNIVERSE:
        raise StructuralError(f"set-cover universe would have {size} elements, ceiling is {MAX_UNIVERSE}")
    pairs = g.pairs
    lookup = {pair: i for i, pair in enumerate(pairs)}
    members: list[set[int]] = [set() for _ in pairs]
    elements: list[str] = []
    for e_idx in range(len(g.edges)):
        base = len(elements)
        elements += [f"e{e_idx},{format(x, f'0{sigma}b')}" for x in range(2**sigma)]
        lo, hi, sat = _edge_lo_hi(g, e_idx)
        for a in sorted(g.allowed_symbols(lo)):
            members[lookup[(lo, a)]].update(base + x for x in qbar_alpha(sigma, a))
        for b in sorted(g.allowed_symbols(hi)):
            # The satisfaction-compatible partners of b make coverage of
            # the edge block coincide with edge satisfaction.
            partners = [a for a in g.allowed_symbols(lo) if sat(a, b)]
            members[lookup[(hi, b)]].update(base + x for x in q_subset(sigma, partners))
    for v in range(g.n_vertices):
        if g.incident[v]:
            continue
        if g.admissible is None:
            raise StructuralError(f"vertex {g.vertices[v]!r} is on no edge and has no admissible set")
        for a in g.admissible[v]:
            members[lookup[(v, a)]].add(len(elements))
        elements.append(g.vertices[v])
    set_labels = [f"({g.vertices[v]},{g.alphabet[a]})" for v, a in pairs]
    start = labels_to_cover(g, f_start)
    goal = labels_to_cover(g, f_goal)
    return set_labels, tuple(map(frozenset, members)), elements, start, goal


def labelcover_to_setcover(g: ConstraintGraph, f_start, f_goal) -> SetCoverInstance:
    """Build the E x B set-cover instance of a loop-free label-cover instance.

    One set S_{v,a} per vertex and admissible symbol: for each incident
    edge, the smaller endpoint contributes the edge's block restricted to
    Q̄_a and the larger endpoint the block restricted to Q over its
    partner symbols; the sets of a vertex on no edge share one element of
    their own.  Covers map to multi assignments by membership.
    """
    set_labels, sets, elements, start, goal = _cover_sets(g, f_start, f_goal)
    system = SetSystem(
        elements=tuple(f"({label})" for label in elements), sets=sets, set_labels=tuple(set_labels)
    )
    return SetCoverInstance(system, start, goal)


# ---------------------------------------------------------------------------
# Label cover -> hypergraph vertex cover
# ---------------------------------------------------------------------------


def labelcover_to_hvc(g: ConstraintGraph, f_start, f_goal) -> HvcInstance:
    """Transpose of the set-cover reduction, padded to 2|Sigma|-uniform.

    Hyperedge T_{e,x} collects the (vertex, symbol) pairs whose set
    contains the universe element (e, x), and T_v those of a vertex v on
    no edge; fresh per-hyperedge padding vertices ``pad(<element>,k)``
    bring every hyperedge to size exactly 2|Sigma|.  The real vertices,
    one per pair in set order, precede the padding vertices.
    """
    vertex_labels, sets, elements, start, goal = _cover_sets(g, f_start, f_goal)
    uniformity = 2 * g.n_symbols
    hyperedges = transpose(sets, len(elements))
    for edge, label in zip(hyperedges, elements):
        if len(edge) > uniformity:
            raise StructuralError("hyperedge exceeds the uniformity bound")
        for k in range(uniformity - len(edge)):
            edge.append(len(vertex_labels))
            vertex_labels.append(f"pad({label},{k})")
    h = Hypergraph(
        vertices=tuple(vertex_labels),
        hyperedges=tuple(map(frozenset, hyperedges)),
        uniformity=uniformity,
    )
    return HvcInstance(h, start, goal)


# ---------------------------------------------------------------------------
# Solution mappings of both cover reductions
# ---------------------------------------------------------------------------


def cover_to_labels(g: ConstraintGraph, cover) -> tuple[frozenset[int], ...]:
    """f(v) = {a : the set or real vertex of (v, a) chosen}.

    Indices past the pairs (the padding vertices of the hypergraph
    reduction) carry no label and are dropped.
    """
    pairs = g.pairs
    values = [set() for _ in range(g.n_vertices)]
    for i in frozenset(cover):
        if i < len(pairs):
            v, a = pairs[i]
            values[v].add(a)
    return tuple(frozenset(vals) for vals in values)


def labels_to_cover(g: ConstraintGraph, f) -> frozenset[int]:
    """C_f = {set or real vertex of (v, a) : a in f(v)}; requires admissible labels only."""
    lookup = {pair: i for i, pair in enumerate(g.pairs)}
    chosen = set()
    for v, vals in enumerate(f):
        for a in vals:
            if (v, a) not in lookup:
                raise StructuralError(f"label {a} at vertex {v} has no set or vertex in the reduction")
            chosen.add(lookup[(v, a)])
    return frozenset(chosen)
