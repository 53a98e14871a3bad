"""Seeded, reproducible instance generators.

Every generator is a pure function of its parameters and seed; all
randomness flows through named streams (`rng.stream`), so regenerating
with the same arguments is byte-identical after serialization.  Start and
goal states are feasible by construction.  A CSP's start and goal are
drawn from its satisfying full assignments, which one pruned depth-first
search lists in lexicographic order (`solve._satisfying`, shared with
`fglss.enumerate_satisfying_partials`); no product of all s^n
assignments is built or filtered.
"""

from __future__ import annotations

from .core import (
    BudgetExhaustedError,
    ConstraintGraph,
    Hypergraph,
    HvcInstance,
    LabelCoverInstance,
    P2cspInstance,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    TableVerifier,
    VerifierInstance,
    transpose,
)
from .reductions import p2csp_to_labelcover
from .solve import _satisfying
from .verifier import csp_to_verifier, encode_assignment, table_of
from . import rng as rng_mod


def _random_tables(rng, n_edges: int, s: int, accept_p: float, planted, edges):
    tables = []
    for e_idx in range(n_edges):
        v, w = edges[e_idx]
        tab = bytearray(s * s)
        for a in range(s):
            for b in range(s):
                tab[a * s + b] = 1 if rng.random() < accept_p else 0
        tab[planted[v] * s + planted[w]] = 1
        tables.append(bytes(tab))
    return tables


# Search nodes the satisfying-assignment enumeration may visit.  Any graph
# whose raw space s^n is at most 200,000 needs at most 2 s^n of them.
_ENUMERATION_NODES = 400_000


def _full_satisfying(g: ConstraintGraph):
    """Every satisfying full assignment, in lexicographic order.

    Refuses graphs whose pruned search needs more than
    ``_ENUMERATION_NODES`` nodes.
    """
    try:
        return list(_satisfying(g, bottom=False, limit=_ENUMERATION_NODES))
    except BudgetExhaustedError:
        raise StructuralError("instance too large to enumerate satisfying assignments") from None


def generate_csp(
    seed: int,
    n_vertices: int = 3,
    alphabet_size: int = 2,
    density: float = 0.7,
    accept_p: float = 0.6,
    ensure_incident: bool = False,
    distinct_endpoints: bool = False,
) -> P2cspInstance:
    """Random planted binary CSP with full satisfying start/goal assignments.

    A random full assignment is planted into every edge table, so the
    instance is always satisfiable.  ``ensure_incident`` forces every
    vertex onto at least one edge; ``distinct_endpoints`` retries the goal
    draw when more than one satisfying assignment exists.
    """
    if n_vertices < 1 or alphabet_size < 1:
        raise StructuralError("need at least one vertex and one symbol")
    if ensure_incident and n_vertices < 2:
        raise StructuralError("cannot give every vertex an edge with a single vertex")
    for name, p in (("density", density), ("accept_p", accept_p)):
        if not 0 <= p <= 1:  # NaN fails every comparison
            raise StructuralError(f"{name} must lie in [0, 1], got {p!r}")
    rng = rng_mod.stream(seed, f"csp:{n_vertices}:{alphabet_size}:{density}")
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    alphabet = tuple(f"a{i}" for i in range(alphabet_size))
    edges = [
        (i, j)
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if rng.random() < density
    ]
    if ensure_incident:
        covered = {v for e in edges for v in e}
        for v in range(n_vertices):
            if v not in covered:
                other = rng.randrange(n_vertices - 1)
                other = other if other < v else other + 1
                edges.append((min(v, other), max(v, other)))
                covered.update((v, other))
        edges.sort()
    planted = tuple(rng.randrange(alphabet_size) for _ in range(n_vertices))
    tables = _random_tables(rng, len(edges), alphabet_size, accept_p, planted, edges)
    g = ConstraintGraph(
        vertices=vertices,
        arity=2,
        alphabet=alphabet,
        edges=tuple(edges),
        tables=tuple(tables),
    )
    sols = _full_satisfying(g)
    start = rng.choice(sols)
    goal = rng.choice(sols)
    if distinct_endpoints and len(sols) > 1:
        while goal == start:
            goal = rng.choice(sols)
    return P2cspInstance(graph=g, start=start, goal=goal)


def generate_labelcover(
    seed: int,
    n_vertices: int = 3,
    alphabet_size: int = 2,
    density: float = 0.8,
    accept_p: float = 0.6,
    ensure_incident: bool = True,
    distinct_endpoints: bool = False,
) -> LabelCoverInstance:
    """Loop-free label-cover instance with singleton start/goal assignments."""
    csp = generate_csp(
        seed,
        n_vertices=n_vertices,
        alphabet_size=alphabet_size,
        density=density,
        accept_p=accept_p,
        ensure_incident=ensure_incident,
        distinct_endpoints=distinct_endpoints,
    )
    return p2csp_to_labelcover(csp)


def _greedy_hitting(families, n_items: int, rng) -> frozenset[int]:
    """A minimal hitting set of ``families`` over items ``0..n_items-1``:
    in a random order, take each item that hits a family not yet hit, then
    drop, in the same order, each item whose families the others all hit."""
    order = list(range(n_items))
    rng.shuffle(order)
    chosen: set[int] = set()
    for i in order:
        if any(i in f and not f & chosen for f in families):
            chosen.add(i)
    for i in order:
        rest = chosen - {i}
        if i in chosen and all(f & rest for f in families):
            chosen = rest
    return frozenset(chosen)


def generate_setcover(seed: int, n_elements: int = 5, n_sets: int = 5) -> SetCoverInstance:
    """Random covering family with two (possibly different) greedy covers."""
    if n_elements < 1 or n_sets < 1:
        raise StructuralError("need at least one element and one set")
    rng = rng_mod.stream(seed, f"setcover:{n_elements}:{n_sets}")
    elements = tuple(f"u{i}" for i in range(n_elements))
    sets = []
    for _ in range(n_sets):
        size = rng.randrange(1, n_elements + 1)
        sets.append(set(rng.sample(range(n_elements), size)))
    for e in range(n_elements):  # make the family covering
        if not any(e in s for s in sets):
            sets[rng.randrange(n_sets)].add(e)
    system = SetSystem(
        elements=elements,
        sets=tuple(frozenset(s) for s in sets),
        set_labels=tuple(f"S{i}" for i in range(n_sets)),
    )

    families = [frozenset(f) for f in transpose(system.sets, n_elements)]
    start = _greedy_hitting(families, n_sets, rng)
    goal = _greedy_hitting(families, n_sets, rng)
    return SetCoverInstance(system=system, start=start, goal=goal)


def generate_hypergraph(
    seed: int, n_vertices: int = 5, n_edges: int = 4, max_edge_size: int = 3
) -> HvcInstance:
    """Random hypergraph with two greedy vertex covers."""
    if n_vertices < 1 or n_edges < 1 or max_edge_size < 1:
        raise StructuralError("need positive sizes")
    rng = rng_mod.stream(seed, f"hypergraph:{n_vertices}:{n_edges}:{max_edge_size}")
    vertices = tuple(f"w{i}" for i in range(n_vertices))
    hyperedges = []
    for _ in range(n_edges):
        size = rng.randrange(1, min(max_edge_size, n_vertices) + 1)
        hyperedges.append(frozenset(rng.sample(range(n_vertices), size)))
    h = Hypergraph(vertices=vertices, hyperedges=tuple(hyperedges))

    start = _greedy_hitting(h.hyperedges, n_vertices, rng)
    goal = _greedy_hitting(h.hyperedges, n_vertices, rng)
    return HvcInstance(hypergraph=h, start=start, goal=goal)


def generate_verifier(
    seed: int,
    n_vertices: int = 3,
    alphabet_size: int = 2,
    density: float = 0.8,
) -> VerifierInstance:
    """Table verifier wrapping the canonical encoding of a generated CSP.

    Its proofs encode the CSP's start and goal; the start proof is
    accepted with probability 1 by construction.
    """
    csp = generate_csp(
        seed,
        n_vertices=n_vertices,
        alphabet_size=alphabet_size,
        density=density,
        ensure_incident=n_vertices >= 2,
    )
    v = csp_to_verifier(csp.graph)
    return VerifierInstance(v, encode_assignment(csp.graph, csp.start), encode_assignment(csp.graph, csp.goal))


def generate_verifier_with_accepted_pair(
    seed: int, r: int = 2, q: int = 2, ell: int = 4, accept_p: float = 0.4
) -> VerifierInstance:
    """Random verifier with two adjacent proofs it accepts with probability 1.

    Two proofs one bit flip apart are drawn first; every decision table is
    random except that both proofs' local views are forced to accept.
    """
    if q > ell:
        raise StructuralError("cannot query more positions than the proof has")
    rng = rng_mod.stream(seed, f"verifier-pair:{r}:{q}:{ell}")
    start = "".join(rng.choice("01") for _ in range(ell))
    star = rng.randrange(ell)
    goal = start[:star] + ("1" if start[star] == "0" else "0") + start[star + 1 :]
    queries = []
    tables = []
    for _ in range(2**r):
        positions = tuple(sorted(rng.sample(range(ell), q)))
        planted = [{i: int(proof[i]) for i in positions} for proof in (start, goal)]
        queries.append(positions)
        tables.append(table_of(positions, lambda read: rng.random() < accept_p or read in planted))
    v = TableVerifier(r=r, q=q, ell=ell, queries=tuple(queries), tables=tuple(tables))
    return VerifierInstance(v, start, goal)
