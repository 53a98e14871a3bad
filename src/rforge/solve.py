"""Exact optimum values and witness sequences via bottleneck search.

All four optimization problems (partial-assignment maxmin, multi-label
minmax, set-cover minmax, hypergraph-vertex-cover minmax) share one
engine, `_threshold_search`: scan thresholds in the direction of the
trivially feasible bound and, at each, run a breadth-first search from
both endpoints over the implicit graph of feasible states obeying the
threshold, one whole level at a time on the side with the smaller
frontier, until the two trees meet.  Every move has an inverse move, so
one neighbor expansion serves both trees.  The first threshold at which
they meet is the exact bottleneck value.  The engine owns the
scan, the search, the state budget and the witness path; each solver
supplies only its endpoints, a neighbor expansion (a size test against
the threshold before the feasibility test) and the decoding of the
result.  Every solver's state is an int that is its own key: a bitmask
over the kernel's items for the cover costs, and bit ``v * s + a`` for
vertex v holding symbol a for the graph solvers (`_graph_links`).  Moves
that grow a cover or a label set, or unassign a vertex, keep a state
feasible and need no test; every other move tests only the hit sets or
edges at the item or vertex it changes.  The same packed state drives the
one search for satisfying assignments (`_satisfying`), which serves both
the FGLSS enumeration of partial assignments and the CSP generator.
All objective values are exact rationals; no floating point enters any
solver path.  The problem table `SOLVERS` (bundle type, solver name,
objective denominator, sense) and the kind table `core.KINDS` drive
`solve_instance`, the oracle and `sequence_objective`.  Every solver and
the oracle take an instance bundle, whose start and goal were checked
feasible and put in canonical form when it was built, so none checks them.

Both cover problems are hitting-set problems: a cover hits every
element's family of containing sets, and a vertex cover hits every
hyperedge.  So one branch and bound (`_min_hitting`) gives both exact
minimum covers, opt of a set system and beta of a hypergraph, and one
reconfiguration core (`_cover_cost`) gives both costs.  The core first
shrinks the instance to a kernel with the same optimum (`_kernel`, the
data-reduction rules of Weihe 1998), then runs the threshold scan on it.

A bottleneck-path oracle (`oracle_value`) is kept deliberately
independent of the threshold engine: it walks the reconfiguration graph
of core's canonical states by each kind's neighbour relation
(`core.KINDS`), tests feasibility with core's checks, and runs one
heap-based minimax path search (on negated sizes for the maxmin
problem).  It exists to check the threshold solvers, on small draws and
on the pipeline stages its test budget reaches.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import (
    BOTTOM,
    BUNDLES,
    KINDS,
    BudgetExhaustedError,
    ConstraintGraph,
    Hypergraph,
    HvcInstance,
    KIND_MULTI,
    KIND_PARTIAL,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    multi_size,
    partial_size,
    transpose,
)

DEFAULT_CAP = 200_000

PROBLEM_MAXPAR = "maxpar"
PROBLEM_MINLAB = "minlab"
PROBLEM_SC_COST = "sc-cost"
PROBLEM_HVC_COST = "hvc-cost"


@dataclass(frozen=True)
class SolveResult:
    """Exact optimum with a witness sequence achieving it."""

    value: Fraction
    witness: ReconfigSequence
    states_explored: int


def _threshold_search(thetas, start: int, goal: int, expand, cap: int = DEFAULT_CAP):
    """First threshold in ``thetas`` at which a two-ended BFS links start to goal.

    ``thetas`` runs from the bound both endpoints obey towards the
    trivially feasible one; ``expand(state, theta)`` yields the feasible
    neighbors obeying ``theta``.  A state is an int and its own key.
    Every move has an inverse move, and feasibility and the threshold are
    properties of a state, so the same ``expand`` grows a parent tree
    from each endpoint.  Each round expands one whole level of the tree
    whose frontier is smaller (start on a tie); the search stops at the
    first newly stored state that the other tree holds, and a threshold
    is refuted once either frontier is empty.  Because levels are
    expanded whole, the joined path is a shortest one at that threshold.
    Every state stored in either tree, the seeded endpoints included,
    over all thresholds, counts against the budget ``cap``; a cap of 0
    admits only equal endpoints.  Returns the threshold, the path from
    start to goal and the number of states stored.
    """
    used = 0
    for theta in thetas:
        if start == goal:
            return theta, [start], used
        trees = ({start: None}, {goal: None})
        fronts = [[start], [goal]]
        used += 2
        if used > cap:
            raise _exhausted(cap)
        while fronts[0] and fronts[1]:
            side = len(fronts[1]) < len(fronts[0])
            tree, other = trees[side], trees[not side]
            level = []
            for cur in fronts[side]:
                for state in expand(cur, theta):
                    if state in tree:
                        continue
                    tree[state] = cur
                    used += 1
                    if used > cap:
                        raise _exhausted(cap)
                    if state in other:
                        path = [*_chain(trees[0], state)]
                        path.reverse()
                        path += _chain(trees[1], trees[1][state])
                        return theta, path, used
                    level.append(state)
            fronts[side] = level
    raise StructuralError("endpoints are not connected at any threshold")


def _chain(parent: dict, state):
    """``state`` and its ancestors in a parent tree, root last."""
    while state is not None:
        yield state
        state = parent[state]


def _exhausted(cap: int) -> BudgetExhaustedError:
    return BudgetExhaustedError(f"state budget exhausted: visited more than {cap} states (raise --cap)")


def _bits(mask: int):
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(flags: bytes) -> int:
    """The int with bit a set where the 0/1 byte ``flags[a]`` is 1."""
    return int(flags[::-1].translate(_DIGITS), 2)


# ---------------------------------------------------------------------------
# Constraint-graph states: one packed int for both graph solvers
# ---------------------------------------------------------------------------


class _Accepts(dict):
    """One edge seen from its endpoint v: maps a mask of symbols at the
    other endpoint to the mask of the symbols at v that the edge accepts
    with at least one of them.  A one-symbol mask b reads ``line(b)``, the
    column b of the edge's table if v is its first endpoint and the row b
    if not; a wider mask is the union of two narrower ones; each is stored
    on first use."""

    def __init__(self, line):
        super().__init__()
        self.line = line

    def __missing__(self, partner: int) -> int:
        low = partner & -partner
        if partner != low:
            mask = self[low] | self[partner ^ low]
        else:
            mask = _mask(self.line(low.bit_length() - 1)) if partner else 0
        self[partner] = mask
        return mask


def _graph_links(g: ConstraintGraph):
    """What a move at each vertex of a binary graph must test.

    A state is an int with bit ``v * s + a`` set when vertex v holds
    symbol a.  Returns, per vertex v, the shift of v's bits, the mask of
    the symbols v may hold, and per edge at v the shift of its other
    endpoint's bits and the edge's ``_Accepts`` seen from v.  A self-loop at v only ever reads its
    diagonal, so it restricts v to the symbols the diagonal accepts (as
    ``normalize_self_loops`` does) and adds no link.
    """
    s = g.n_symbols
    if g.admissible is None:
        allowed = [(1 << s) - 1] * g.n_vertices
    else:
        allowed = [sum(1 << a for a in symbols) for symbols in g.admissible]
    links: list[list[tuple[int, _Accepts]]] = [[] for _ in allowed]
    for (v, w), table in zip(g.edges, g.tables):
        if v == w:
            allowed[v] &= _mask(table[:: s + 1])  # the diagonal
            continue
        links[v].append((w * s, _Accepts(lambda b, table=table: table[b::s])))
        links[w].append((v * s, _Accepts(lambda a, table=table: table[a * s : a * s + s])))
    return list(zip(range(0, len(allowed) * s, s), allowed, links))


def _satisfying(g: ConstraintGraph, bottom: bool, limit: float = math.inf):
    """Every satisfying assignment of a binary graph, by pruned depth-first search.

    Vertices are decided in index order, each over BOTTOM first when
    ``bottom`` is set and then its symbols ascending, so assignments come
    out in that lexicographic order.  The symbols tried at v are v's
    allowed mask cut by one ``_Accepts`` lookup per assigned earlier
    neighbour, as in maxpar's assign move.  ``limit`` bounds the search
    nodes: one per value a vertex offers, BOTTOM and pruned symbols
    included, so the count does not depend on how early a symbol is pruned.
    """
    n, s = g.n_vertices, g.n_symbols
    full = (1 << s) - 1
    head = (BOTTOM,) if bottom else ()
    levels = []
    for v, (base, ok, edges) in enumerate(_graph_links(g)):
        allowed = sorted(g.allowed_symbols(v))
        # Each value v offers -> (its rank among them, its bit in the state).
        values = {a: (rank, 1 << base + a) for rank, a in enumerate(allowed, len(head) + 1)}
        values[BOTTOM] = (1, 0)
        earlier = [(shift, accepts) for shift, accepts in edges if shift < base]
        levels.append((ok, earlier, values, len(head) + len(allowed)))
    f = [BOTTOM] * n

    def offered(v: int, state: int):
        ok = levels[v][0]
        for shift, accepts in levels[v][1]:
            partner = state >> shift & full
            if partner:
                ok &= accepts[partner]
        return itertools.chain(head, _bits(ok))

    def search():
        nodes = 0
        # One frame per vertex being decided: the values it has left to
        # offer, the rank of the last one tried, and the state before it.
        # Running out of values counts the rest up to the vertex's width.
        frames = [[offered(0, 0), 0, 0]]
        while frames:
            v = len(frames) - 1
            frame = frames[-1]
            _, _, values, width = levels[v]
            a = next(frame[0], None)
            rank, bit = (width, 0) if a is None else values[a]
            nodes += rank - frame[1]
            frame[1] = rank
            if nodes > limit:
                raise BudgetExhaustedError(f"satisfying-assignment enumeration exceeded {limit} nodes")
            if a is None:
                frames.pop()
                continue
            f[v] = a
            state = frame[2] | bit
            if v + 1 == n:
                yield tuple(f)
            else:
                frames.append([offered(v + 1, state), 0, state])

    return search()


# ---------------------------------------------------------------------------
# Partial 2CSP: maximize the minimum assigned count
# ---------------------------------------------------------------------------


def solve_maxpar(inst: P2cspInstance, cap: int = DEFAULT_CAP) -> SolveResult:
    """Max over sequences of (min assigned count) / |V|, by descending threshold.

    Neighbors change one vertex to any other symbol or to unassigned.
    Thresholds descend from min(start, goal) sizes; everything is
    reachable at threshold 0 through the all-unassigned state, so the scan
    always terminates (unless the budget runs out first).  A state holds
    at most one bit per vertex, none for unassigned.  Unassigning needs no
    test; assigning a symbol at v tests only v's edges to assigned
    partners.
    """
    g = inst.graph
    n, s = g.n_vertices, g.n_symbols
    full = (1 << s) - 1
    vertices = _graph_links(g)

    def pack(f) -> int:
        return sum(1 << (v * s + a) for v, a in enumerate(f) if a != BOTTOM)

    def expand(state, theta):
        shrink = state.bit_count() > theta
        for base, ok, edges in vertices:
            cur = state >> base & full
            rest = state ^ cur << base
            if cur and shrink:  # unassign
                yield rest
            ok &= ~cur
            for shift, accepts in edges:
                partner = state >> shift & full
                if partner:
                    ok &= accepts[partner]
            while ok:  # assign, symbols ascending
                low = ok & -ok
                yield rest | low << base
                ok ^= low

    top = min(partial_size(inst.start), partial_size(inst.goal))
    theta, path, explored = _threshold_search(
        range(top, -1, -1), pack(inst.start), pack(inst.goal), expand, cap
    )
    # An empty vertex mask has bit_length 0, which decodes to BOTTOM (-1).
    states = tuple(tuple((m >> b & full).bit_length() - 1 for b in range(0, n * s, s)) for m in path)
    return SolveResult(
        value=Fraction(theta, n),
        witness=ReconfigSequence(kind=KIND_PARTIAL, states=states),
        states_explored=explored,
    )


# ---------------------------------------------------------------------------
# Label cover: minimize the maximum total label count
# ---------------------------------------------------------------------------


def solve_minlab(inst: LabelCoverInstance, cap: int = DEFAULT_CAP) -> SolveResult:
    """Min over sequences of (max total label count) / (|V| + 1), ascending.

    Neighbors add or remove a single symbol at a single vertex.  States
    are satisfying multi assignments; with admissible sets present the
    per-vertex label sets stay inside them.  Everything is reachable at
    the threshold equal to the total admissible symbol count (grow both
    endpoints to the full assignment), so the scan terminates.  Adding a
    label needs no test.  Removing label a at v tests only v's edges: each
    must still accept some remaining label at v with a partner's label.
    """
    g = inst.graph
    n, s = g.n_vertices, g.n_symbols
    full = (1 << s) - 1
    vertices = _graph_links(g)
    # Admissible sets come from folded self-loops, which forbid an empty set.
    nonempty = g.admissible is not None

    def pack(f) -> int:
        return sum(1 << (v * s + a) for v, labels in enumerate(f) for a in labels)

    def expand(state, theta):
        grow = state.bit_count() < theta
        for base, ok, edges in vertices:
            labels = state >> base & full
            # A label is pinned when removing it would empty an admissible
            # set, or when it is the only label at v that an edge accepts
            # with some label of the partner.
            pinned = labels if nonempty and not labels & (labels - 1) else 0
            for shift, accepts in edges:
                support = accepts[state >> shift & full] & labels
                if not support & (support - 1):
                    pinned |= support
            moves = (ok if grow else labels) & ~pinned
            while moves:  # add or remove one label, symbols ascending
                low = moves & -moves
                yield state ^ low << base
                moves ^= low

    total = sum(ok.bit_count() for _, ok, _ in vertices)
    thetas = range(max(multi_size(inst.start), multi_size(inst.goal)), total + 1)
    theta, path, explored = _threshold_search(thetas, pack(inst.start), pack(inst.goal), expand, cap)
    states = tuple(tuple(frozenset(_bits(m >> b & full)) for b in range(0, n * s, s)) for m in path)
    return SolveResult(
        value=Fraction(theta, n + 1),
        witness=ReconfigSequence(kind=KIND_MULTI, states=states),
        states_explored=explored,
    )


# ---------------------------------------------------------------------------
# Minimum covers (exact branch and bound)
# ---------------------------------------------------------------------------


def _min_hitting(hitsets) -> int:
    """Fewest items meeting every hit set, by branch and bound.

    Each distinct hit set is kept once, ranked by size (a stable sort).
    The search branches on the items, ascending, of the first unmet hit
    set in rank order, so it is deterministic.  Greedy picks from those
    same hit sets give the upper bound; unmet hit sets pairwise disjoint
    from each other give the lower bound, since each needs its own item.
    Every hit set must be nonempty.
    """
    ranked = sorted(dict.fromkeys(tuple(sorted(t)) for t in hitsets), key=len)
    # The unmet hit sets are a bitmask over ranks, and an item's mask has
    # the ranks of the hit sets it meets.  Only items in two or more hit
    # sets store one: an item of hit set r alone has mask 1 << r, and most
    # vertices of a padded hypergraph are such items.
    occurrences = Counter(i for t in ranked for i in t)
    shared: dict[int, int] = {}
    for r, t in enumerate(ranked):
        for i in t:
            if occurrences[i] > 1:
                shared[i] = shared.get(i, 0) | 1 << r

    def first_masks(unmet: int) -> list[int]:
        """The masks of the items, ascending, of the first unmet hit set."""
        r = (unmet & -unmet).bit_length() - 1
        return [shared.get(i, 1 << r) for i in ranked[r]]

    def lower_bound(unmet: int) -> int:
        count = 0
        while unmet:  # take the first unmet hit set, drop every one it meets
            for m in first_masks(unmet):
                unmet &= ~m
            count += 1
        return count

    def rec(unmet: int, count: int) -> None:
        nonlocal best
        if not unmet:
            best = count
            return
        if count + lower_bound(unmet) >= best:
            return
        for m in first_masks(unmet):
            rec(unmet & ~m, count + 1)

    full = (1 << len(ranked)) - 1
    unmet, best = full, 0
    while unmet:  # greedy upper bound
        unmet &= ~max(first_masks(unmet), key=lambda m: (m & unmet).bit_count())
        best += 1
    rec(full, 0)
    return best


def min_cover(system: SetSystem) -> int:
    """Exact minimum cover size: the fewest sets hitting every element's
    family of containing sets."""
    containing = transpose(system.sets, system.n_elements)
    if not all(containing):
        raise StructuralError("universe is not coverable by the family")
    return _min_hitting(containing)


def min_vertex_cover(h: Hypergraph) -> int:
    """Exact minimum vertex cover size: the fewest vertices hitting every hyperedge."""
    if not all(h.hyperedges):
        raise StructuralError("hypergraph has an empty hyperedge")
    return _min_hitting(h.hyperedges)


# ---------------------------------------------------------------------------
# Cover reconfiguration costs: one hitting-set core over a kernel
# ---------------------------------------------------------------------------


def _kernel(hitsets, keep: frozenset) -> tuple[list[int], list[frozenset[int]]]:
    """Items and hit sets of a smaller instance with the same minmax value.

    ``keep`` holds the items of start and goal, which are never dropped.
    A single-incidence pass first drops every other item that lies in one
    hit set alone.  Then two rules run until neither applies: (a) drop a
    hit set that contains another; (b) drop an item outside ``keep`` when
    another live item meets every hit set it meets, or when it meets none.
    No rule changes the optimum, and every kernel state hits every
    original hit set.  Returns the kernel's items, ascending, and its hit
    sets.
    """
    distinct = set(map(frozenset, hitsets))
    occurrences = Counter(i for t in distinct for i in t)
    # Start meets every hit set, so this pass never empties one: it is rule
    # (b) with an item of start as the dominating item.
    reduced = [frozenset(i for i in t if occurrences[i] > 1 or i in keep) for t in distinct]
    items = sorted(keep.union(*reduced))
    position = {i: j for j, i in enumerate(items)}
    sets = [sum(1 << position[i] for i in t) for t in reduced]
    live = (1 << len(items)) - 1
    dropped = True
    while dropped:
        minimal: list[int] = []  # (a), smallest first, so a contained hit set comes first
        for t in sorted(set(sets), key=int.bit_count):
            if all(s & ~t for s in minimal):
                minimal.append(t)
        meets = [0] * len(items)  # each item's hit sets, as a mask over ranks
        for r, t in enumerate(minimal):
            for j in _bits(t):
                meets[j] |= 1 << r
        dropped = False
        for j, m in enumerate(meets):  # (b)
            if items[j] in keep or not live >> j & 1:
                continue
            # An item meeting every hit set that j meets is in j's first one.
            first = minimal[(m & -m).bit_length() - 1] if m else 0
            if not m or any(u != j and not m & ~meets[u] for u in _bits(first & live)):
                live &= ~(1 << j)
                dropped = True
        sets = [t & live for t in minimal]
    return [items[j] for j in _bits(live)], [frozenset(items[j] for j in _bits(t)) for t in sets]


def _cover_cost(hitsets, inst, opt: int, cap: int = DEFAULT_CAP) -> SolveResult:
    """Min over sequences of states hitting every hit set, from the start
    to the goal of the cover bundle ``inst``, of (max state size) / (opt + 1).

    The threshold scan runs over the kernel's items.  Adding an item keeps
    a state feasible, and removing item i keeps it feasible iff every hit
    set containing i still meets the state, so one pass over the hit sets
    finds the items a move may not remove.  Kernel items are original items,
    so the witness is a sequence of the original instance as it stands.
    """
    start, goal, kind = inst.start, inst.goal, BUNDLES[type(inst)][1]
    if start == goal:
        return SolveResult(Fraction(len(start), opt + 1), ReconfigSequence(kind, (start,)), 0)
    items, kernel_sets = _kernel(hitsets, start | goal)
    position = {i: j for j, i in enumerate(items)}

    def to_mask(state) -> int:
        return sum(1 << position[i] for i in state)

    hit_masks = [to_mask(t) for t in kernel_sets]
    every = (1 << len(items)) - 1

    def expand(mask, theta):
        # An item is pinned when it is the state's only item in some hit set.
        pinned = 0
        for t in hit_masks:
            meet = mask & t
            if not meet & (meet - 1):
                pinned |= meet
        moves = (every if mask.bit_count() < theta else mask) & ~pinned
        while moves:  # add or remove one item, ascending
            low = moves & -moves
            yield mask ^ low
            moves ^= low

    thetas = range(max(len(start), len(goal)), len(items) + 1)
    # A state is a mask over the kernel's items, and its own key.
    theta, path, explored = _threshold_search(thetas, to_mask(start), to_mask(goal), expand, cap)
    states = tuple(frozenset(items[j] for j in _bits(mask)) for mask in path)
    return SolveResult(
        value=Fraction(theta, opt + 1),
        witness=ReconfigSequence(kind=kind, states=states),
        states_explored=explored,
    )


def solve_cost_setcover(inst: SetCoverInstance, cap: int = DEFAULT_CAP, opt: int | None = None) -> SolveResult:
    """Min over cover sequences of (max cover size) / (opt + 1), ascending.

    A cover hits every element's family of containing sets.  ``opt``, the
    minimum cover size, is computed unless the caller already has it.
    """
    system = inst.system
    if opt is None:
        opt = min_cover(system)
    return _cover_cost(transpose(system.sets, system.n_elements), inst, opt, cap)


def solve_cost_hvc(inst: HvcInstance, cap: int = DEFAULT_CAP, opt: int | None = None) -> SolveResult:
    """Min over vertex-cover sequences of (max size) / (beta + 1), ascending.

    A vertex cover hits every hyperedge.  ``opt``, here beta, is computed
    unless the caller already has it.
    """
    if opt is None:
        opt = min_vertex_cover(inst.hypergraph)
    return _cover_cost(inst.hypergraph.hyperedges, inst, opt, cap)


# ---------------------------------------------------------------------------
# Problem dispatch
# ---------------------------------------------------------------------------


class Problem(NamedTuple):
    """A problem's instance bundle, solver name, objective denominator (a
    function of the instance) and sense: maximize the minimum state size,
    or minimize the maximum."""

    bundle: type
    solver: str
    denominator: Callable[[object], int]
    maximize: bool

    @property
    def part(self) -> str:
        return BUNDLES[self.bundle][0]

    @property
    def kind(self) -> str:
        return BUNDLES[self.bundle][1]


# Solvers, ``min_cover`` and ``min_vertex_cover`` are named or called
# through this module's globals, so a call goes through its current binding.
SOLVERS = {
    PROBLEM_MAXPAR: Problem(P2cspInstance, "solve_maxpar", lambda g: g.n_vertices, True),
    PROBLEM_MINLAB: Problem(LabelCoverInstance, "solve_minlab", lambda g: g.n_vertices + 1, False),
    PROBLEM_SC_COST: Problem(
        SetCoverInstance, "solve_cost_setcover", lambda s: min_cover(s) + 1, False
    ),
    PROBLEM_HVC_COST: Problem(
        HvcInstance, "solve_cost_hvc", lambda h: min_vertex_cover(h) + 1, False
    ),
}


def _problem(problem: str) -> Problem:
    if problem not in SOLVERS:
        raise StructuralError(f"unknown problem {problem!r}")
    return SOLVERS[problem]


def solve_instance(problem: str, inst, cap: int = DEFAULT_CAP, **known) -> SolveResult:
    """Solve an instance bundle exactly with the solver of ``problem``.

    ``known`` passes on what the caller has already computed, such as the
    ``opt`` of a cover-cost problem.
    """
    p = _problem(problem)
    if not isinstance(inst, p.bundle):
        raise StructuralError(
            f"{problem} expects a {p.bundle.__name__}, got {type(inst).__name__}"
        )
    return globals()[p.solver](inst, cap=cap, **known)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


# Most feasibility tests the oracle makes before it refuses.
ORACLE_STATE_LIMIT = 100_000


def oracle_value(problem: str, inst) -> Fraction:
    """Bottleneck-path optimum by one Dijkstra over the reconfiguration graph.

    Independent of the threshold solvers: states are core's canonical
    tuples and frozensets, moves come from ``KINDS[kind].neighbours``,
    feasibility from ``KINDS[kind].feasible``, and the optimum from a
    heap-based minimax path search from the start that stops when it pops
    the goal.  The maxmin problem runs it on negated sizes.  Pops come in
    nondecreasing order, so a state's distance is final when it is first
    reached, and each state reached is tested once.  More than
    ``ORACLE_STATE_LIMIT`` tests is refused with ``StructuralError``.
    """
    p = _problem(problem)
    instance, kind = getattr(inst, p.part), KINDS[p.kind]
    sign = -1 if p.maximize else 1
    # Each state reached -> least achievable maximum weight on a path to
    # it, or None when it is infeasible.
    dist = {inst.start: sign * kind.size(inst.start)}
    # (distance, order reached, state): the order breaks ties, so states are never compared.
    heap = [(dist[inst.start], 0, inst.start)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == inst.goal:
            return Fraction(sign * d, p.denominator(instance))
        for w in kind.neighbours(instance, u):
            if w in dist:
                continue
            if len(dist) > ORACLE_STATE_LIMIT:  # the start is untested, so this is test len(dist)
                raise StructuralError(f"oracle refused: more than {ORACLE_STATE_LIMIT} feasibility tests")
            if not kind.feasible(instance, w):
                dist[w] = None
                continue
            dist[w] = max(d, sign * kind.size(w))
            heapq.heappush(heap, (dist[w], len(dist), w))
    raise StructuralError("endpoints are not connected")


def sequence_objective(problem: str, instance, seq: ReconfigSequence) -> Fraction:
    """Recompute the objective of a witness sequence from scratch."""
    p = _problem(problem)
    sizes = map(KINDS[p.kind].size, seq.states)
    return Fraction((min if p.maximize else max)(sizes), p.denominator(instance))
