"""Gap-preserving reductions between the reconfiguration problems.

Three constructions:

* singleton lifting of partial assignments to label-cover multi
  assignments, with the half-step witness transformation,
* label cover -> minmax set cover over one block per edge, where the
  block B_e holds the vectors of {0,1}^Sigma supported on the admissible
  symbols of the edge's endpoint with fewer of them, and the hypercube
  gadgets Q̄ and Q turn edge satisfaction into coverage of that block,
  plus one element per vertex on no edge,
* label cover -> minmax hypergraph vertex cover as the transpose of the
  set-cover instance (one hyperedge per element, holding the sets that
  contain it), padded to a uniform hyperedge size; a caller that holds
  the set-cover instance already passes it in, so the gadget is built
  once.

Each reduction returns the instance bundle it feeds.  Sets and real
vertices follow the source graph's ``pairs``, its (vertex, symbol) order
over admissible symbols, which ``cover_to_labels`` and ``labels_to_cover``
read back; they carry provenance labels ("(v,a)" for sets and real
vertices, "(e,bits)" for universe elements and hyperedges).
"""

from __future__ import annotations

from itertools import accumulate

from .core import (
    BOTTOM,
    ConstraintGraph,
    HvcInstance,
    Hypergraph,
    KIND_MULTI,
    KIND_PARTIAL,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    is_full,
    transpose,
)


# Most universe elements a cover reduction builds, counted over the edge
# blocks before any is built; a 196,608-element hypergraph already takes
# 1.2 GB.
MAX_UNIVERSE = 2**16


# ---------------------------------------------------------------------------
# Partial assignments -> label cover
# ---------------------------------------------------------------------------


def p2csp_to_labelcover(inst: P2cspInstance) -> LabelCoverInstance:
    """Same graph, endpoints lifted to singleton multi assignments.

    Requires full endpoints (the perfect-completeness regime).
    """
    for name, f in (("start", inst.start), ("goal", inst.goal)):
        if not is_full(f):
            raise StructuralError(f"{name} assignment must be full")
    lifted_s = tuple(frozenset((a,)) for a in inst.start)
    lifted_g = tuple(frozenset((a,)) for a in inst.goal)
    return LabelCoverInstance(graph=inst.graph, start=lifted_s, goal=lifted_g)


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
# Hypercube gadgets over {0,1}^sigma (bit j of x is x's value at symbol j),
# optionally restricted to the vectors supported on a symbol set: the
# lemma's reference definitions, to which the tests hold the set-cover
# reduction's rank layout of each block
# ---------------------------------------------------------------------------


def _mask(sigma: int, symbols) -> int:
    """Bitmask of ``symbols``, each checked against the alphabet."""
    mask = 0
    for a in symbols:
        if not 0 <= a < sigma:
            raise StructuralError(f"symbol {a} outside the alphabet of size {sigma}")
        mask |= 1 << a
    return mask


def _cube(sigma: int, symbols, meets: bool, support=None) -> frozenset[int]:
    """Vectors of {0,1}^sigma that meet (or miss) the bits of ``symbols``.

    Only vectors whose set bits lie in ``support`` (default: the whole
    alphabet) are considered.
    """
    if sigma < 1:
        raise StructuralError("gadget space needs at least one symbol")
    mask = _mask(sigma, symbols)
    within = (1 << sigma) - 1 if support is None else _mask(sigma, support)
    vectors = [0]
    for a in range(sigma):
        if within >> a & 1:
            vectors += [x | 1 << a for x in vectors]
    return frozenset(x for x in vectors if bool(x & mask) == meets)


def q_alpha(sigma: int, alpha: int) -> frozenset[int]:
    """Q_a = vectors with bit a set."""
    return _cube(sigma, (alpha,), True)


def qbar_alpha(sigma: int, alpha: int, support=None) -> frozenset[int]:
    """Q̄_a = vectors with bit a clear."""
    return _cube(sigma, (alpha,), False, support)


def q_subset(sigma: int, symbols, support=None) -> frozenset[int]:
    """Q_S = union of Q_a over a in S; empty S gives the empty set.

    Within the block B_A of vectors supported on A, the law
    Q̄_a ∪ Q_S ⊇ B_A iff a in S (for a in A and S ⊆ A; the witness is
    the vector {a}) is what the coverage equivalence of the set-cover
    reduction rests on.
    """
    return _cube(sigma, symbols, True, support)


# ---------------------------------------------------------------------------
# Label cover -> set cover
# ---------------------------------------------------------------------------


def labelcover_to_setcover(inst: LabelCoverInstance) -> SetCoverInstance:
    """Build the set-cover instance over the edge blocks of a loop-free label cover.

    One set S_{v,a} per vertex and admissible symbol, labelled "(v,a)", in
    ``g.pairs`` order.  Elements are (e, x) for each edge e and each vector
    x of its block, then one element per vertex v on no edge.  The block
    of e = (lo, hi) is B_e = {x in {0,1}^Sigma : supp(x) ⊆ A(lo)},
    ascending, with A(lo) the admissible symbols of the endpoint with
    fewer of them (the lower vertex index on a tie): only those bits tell
    the sets of e's endpoints apart.  The element of rank t in B_e sets
    bit j of t iff x holds the j-th symbol of A(lo), so S_{lo,a} meets
    B_e in Q̄_a, the ranks with a's bit clear, and S_{hi,b} in Q over b's
    satisfaction-compatible partners, the ranks that meet their mask:
    coverage of the block then coincides with edge satisfaction.  Every
    S_{v,a} of an edgeless vertex covers v's element, so a cover keeps a
    label at v as label cover must when admissible sets (folded
    self-loops) forbid the empty set.  Without admissible sets the
    identity cannot hold there, and the vertex is rejected.  Covers map to
    multi assignments by membership.  The endpoints must be singleton
    assignments.
    """
    g = inst.graph
    for name, f in (("start", inst.start), ("goal", inst.goal)):
        if set(map(len, f)) != {1}:
            raise StructuralError(f"{name} must assign exactly one label per vertex")
    s, bits = g.n_symbols, f"0{g.n_symbols}b"
    # v's admissible symbols ascending; S_{v,a} is set first[v] + the rank of a.
    symbols = [sorted(g.allowed_symbols(v)) for v in range(g.n_vertices)]
    first = list(accumulate(map(len, symbols), initial=0))
    # Each edge as (lo, hi): lo has fewer admissible symbols, or the lower index on a tie.
    sides = [(v, w) if (len(symbols[v]), v) <= (len(symbols[w]), w) else (w, v) for v, w in g.edges]
    edgeless = sorted(set(range(g.n_vertices)).difference(*g.edges))
    size = len(edgeless) + sum(2 ** len(symbols[lo]) for lo, _ in sides)
    if size > MAX_UNIVERSE:
        raise StructuralError(f"set-cover universe would have {size} elements, ceiling is {MAX_UNIVERSE}")
    members: list[list[int]] = [[] for _ in g.pairs]
    elements: list[str] = []
    for e_idx, ((lo, hi), table) in enumerate(zip(sides, g.tables)):
        support = symbols[lo]
        vectors = [0]
        for a in support:
            vectors += [x | 1 << a for x in vectors]
        start = len(elements)
        head = f"(e{e_idx},"
        elements += [f"{head}{x:{bits}})" for x in vectors]
        ranks = range(start, start + len(vectors))
        for j in range(len(support)):
            members[first[lo] + j] += [t for t in ranks if not (t - start) >> j & 1]
        # The table is indexed [at the edge's first vertex][at its second].
        lo_first = lo == g.edges[e_idx][0]
        for k, b in enumerate(symbols[hi]):
            line = table[b::s] if lo_first else table[b * s : b * s + s]
            partners = sum(1 << j for j, a in enumerate(support) if line[a])
            members[first[hi] + k] += [t for t in ranks if (t - start) & partners]
    for v in edgeless:
        if g.admissible is None:
            raise StructuralError(f"vertex {g.vertices[v]!r} is on no edge and has no admissible set")
        for k in range(len(symbols[v])):
            members[first[v] + k].append(len(elements))
        elements.append(f"({g.vertices[v]})")
    system = SetSystem(
        elements=tuple(elements),
        sets=tuple(map(frozenset, members)),
        set_labels=tuple(f"({g.vertices[v]},{g.alphabet[a]})" for v, a in g.pairs),
    )
    return SetCoverInstance(system, labels_to_cover(g, inst.start), labels_to_cover(g, inst.goal))


# ---------------------------------------------------------------------------
# Label cover -> hypergraph vertex cover
# ---------------------------------------------------------------------------


def labelcover_to_hvc(inst: LabelCoverInstance, setcover: SetCoverInstance | None = None) -> HvcInstance:
    """Transpose of the set-cover reduction, padded to 2k-uniform.

    ``setcover`` is ``labelcover_to_setcover(inst)``, built
    here unless the caller holds it already.  k is the largest admissible
    set, max_v |A(v)|.  Hyperedge T_{e,x} collects the (vertex, symbol)
    pairs whose set contains the universe element (e, x), at most
    |A(v)| + |A(w)| for e = (v, w), and T_v those of a vertex v on no
    edge; fresh per-hyperedge padding vertices bring every hyperedge to
    size exactly 2k, the i-th of element "(<label>)" labelled
    "pad(<label>,i)".  The real vertices, one per pair in set order and
    labelled as the sets, precede the padding vertices.
    """
    if setcover is None:
        setcover = labelcover_to_setcover(inst)
    g, system = inst.graph, setcover.system
    uniformity = 2 * max(len(g.allowed_symbols(v)) for v in range(g.n_vertices))
    vertex_labels = list(system.set_labels)
    hyperedges = transpose(system.sets, system.n_elements)
    for edge, element in zip(hyperedges, system.elements):
        if len(edge) > uniformity:
            raise StructuralError("hyperedge exceeds the uniformity bound")
        for k in range(uniformity - len(edge)):
            edge.append(len(vertex_labels))
            vertex_labels.append(f"pad{element[:-1]},{k})")
    h = Hypergraph(
        vertices=tuple(vertex_labels),
        hyperedges=tuple(map(frozenset, hyperedges)),
        uniformity=uniformity,
    )
    return HvcInstance(h, setcover.start, setcover.goal)


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
