"""Exact optimum values and witness sequences via bottleneck search.

All four optimization problems (partial-assignment maxmin, multi-label
minmax, set-cover minmax, hypergraph-vertex-cover minmax) share one
engine, `_threshold_search`: scan thresholds in the direction of the
trivially feasible bound and run breadth-first reachability over the
implicit graph of feasible states obeying the threshold.  The first
feasible threshold is the exact bottleneck value.  The engine owns the
scan, the search, the state budget and the witness path; each solver
supplies only a state key, a neighbor expansion (a size test against the
threshold before the feasibility test) and the decoding of the result.
All objective values are exact rationals; no floating point enters any
solver path.  The problem table `SOLVERS` (bundle type, solver name,
objective denominator, sense) and the kind table `core.KINDS` drive
`solve_instance`, the oracle and `sequence_objective`.

Both exact minimum covers, opt of a set system and beta of a
hypergraph, come from one minimum hitting-set branch and bound
(`_min_hitting`): a cover hits every element's family of containing
sets, and a vertex cover hits every hyperedge.

A fully materialized bottleneck-path implementation (`oracle_value`) is
kept deliberately independent of the threshold engine: it enumerates the
feasible state space outright, derives adjacency from the step metric,
and runs one heap-based minimax path search (on negated sizes for the
maxmin problem).  It exists to check the threshold solvers on tiny
instances.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from collections import Counter, deque
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
    KIND_COVER,
    KIND_MULTI,
    KIND_PARTIAL,
    KIND_VERTEX_COVER,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    is_cover,
    is_vertex_cover,
    multi_size,
    partial_size,
    satisfies_multi,
    satisfies_partial,
    transpose,
)

DEFAULT_CAP = 200_000

PROBLEM_MAXPAR = "maxpar"
PROBLEM_MINLAB = "minlab"
PROBLEM_SC_COST = "sc-cost"
PROBLEM_HVC_COST = "hvc-cost"


def resolve_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("RFORGE_CAP")
    return int(env) if env else DEFAULT_CAP


@dataclass(frozen=True)
class SolveResult:
    """Exact optimum with a witness sequence achieving it."""

    value: Fraction
    witness: ReconfigSequence
    states_explored: int


def _threshold_search(thetas, start, goal, key, expand, cap: int | None):
    """First threshold in ``thetas`` at which BFS links start to goal.

    ``thetas`` runs from the bound both endpoints obey towards the
    trivially feasible one; ``expand(state, theta)`` yields the feasible
    neighbors obeying ``theta``.  States are deduplicated on
    ``key(state)``, and every state stored, over all thresholds, counts
    against the budget (``cap``, else ``RFORGE_CAP``, else
    ``DEFAULT_CAP``).  Returns the threshold, the parent-pointer path
    from start to goal and the number of states stored.
    """
    cap = resolve_cap(cap)
    start_key, goal_key = key(start), key(goal)
    used = 0
    for theta in thetas:
        if start_key == goal_key:
            return theta, [start], used
        seen = {start_key: (start, None)}
        used += 1
        if used > cap:
            raise _exhausted(cap)
        queue = deque([start_key])
        while queue:
            cur_key = queue.popleft()
            for state in expand(seen[cur_key][0], theta):
                k = key(state)
                if k in seen:
                    continue
                seen[k] = (state, cur_key)
                used += 1
                if used > cap:
                    raise _exhausted(cap)
                if k == goal_key:
                    path = []
                    while k is not None:
                        state, k = seen[k]
                        path.append(state)
                    path.reverse()
                    return theta, path, used
                queue.append(k)
    raise StructuralError("endpoints are not connected at any threshold")


def _exhausted(cap: int) -> BudgetExhaustedError:
    return BudgetExhaustedError(
        f"state budget exhausted: visited more than {cap} states "
        "(raise --cap or RFORGE_CAP)"
    )


# ---------------------------------------------------------------------------
# Partial 2CSP: maximize the minimum assigned count
# ---------------------------------------------------------------------------


def solve_maxpar(
    g: ConstraintGraph, f_start, f_goal, cap: int | None = None
) -> SolveResult:
    """Max over sequences of (min assigned count) / |V|, by descending threshold.

    Neighbors change one vertex to any other symbol or to unassigned.
    Thresholds descend from min(start, goal) sizes; everything is
    reachable at threshold 0 through the all-unassigned state, so the scan
    always terminates (unless the budget runs out first).
    """
    f_start, f_goal = tuple(f_start), tuple(f_goal)
    if not satisfies_partial(g, f_start) or not satisfies_partial(g, f_goal):
        raise StructuralError("infeasible endpoints: start/goal must satisfy the graph")
    n, s = g.n_vertices, g.n_symbols
    allowed = [sorted(g.allowed_symbols(v)) for v in range(n)]
    incident = g.incident
    tables, edges = g.tables, g.edges

    def key(f):
        return bytes(x + 1 for x in f)

    def edges_ok_at(f, v) -> bool:
        for e_idx in incident[v]:
            a, b = edges[e_idx]
            fa, fb = f[a], f[b]
            if fa != BOTTOM and fb != BOTTOM and tables[e_idx][fa * s + fb] != 1:
                return False
        return True

    def expand(f, theta):
        size = partial_size(f)
        for v in range(n):
            cur = f[v]
            for val in [BOTTOM] + allowed[v]:
                if val == cur:
                    continue
                new_size = size - (cur != BOTTOM) + (val != BOTTOM)
                if new_size < theta:
                    continue
                nf = f[:v] + (val,) + f[v + 1 :]
                if edges_ok_at(nf, v):
                    yield nf

    top = min(partial_size(f_start), partial_size(f_goal))
    theta, path, explored = _threshold_search(range(top, -1, -1), f_start, f_goal, key, expand, cap)
    return SolveResult(
        value=Fraction(theta, n),
        witness=ReconfigSequence(kind=KIND_PARTIAL, states=tuple(path)),
        states_explored=explored,
    )


# ---------------------------------------------------------------------------
# Label cover: minimize the maximum total label count
# ---------------------------------------------------------------------------


def solve_minlab(
    g: ConstraintGraph, f_start, f_goal, cap: int | None = None
) -> SolveResult:
    """Min over sequences of (max total label count) / (|V| + 1), ascending.

    Neighbors add or remove a single symbol at a single vertex.  States
    are satisfying multi assignments; with admissible sets present the
    per-vertex label sets stay inside them.  Everything is reachable at
    the threshold equal to the total admissible symbol count (grow both
    endpoints to the full assignment), so the scan terminates.
    """
    f_start = tuple(frozenset(a) for a in f_start)
    f_goal = tuple(frozenset(a) for a in f_goal)
    if not satisfies_multi(g, f_start) or not satisfies_multi(g, f_goal):
        raise StructuralError("infeasible endpoints: start/goal must satisfy the graph")
    n, s = g.n_vertices, g.n_symbols
    allowed = [sorted(g.allowed_symbols(v)) for v in range(n)]
    incident = g.incident
    edges = g.edges
    mask_bytes = (s + 7) // 8
    # row_masks[e][a] = bitmask of partner symbols b with table accepting (a, b).
    row_masks = []
    for e_idx in range(len(edges)):
        tab = g.tables[e_idx]
        row_masks.append(
            tuple(
                sum(1 << b for b in range(s) if tab[a * s + b])
                for a in range(s)
            )
        )
    # Admissible sets come from folded self-loops, which forbid an empty set.
    nonempty = g.admissible is not None

    def to_masks(f):
        return tuple(sum(1 << a for a in vals) for vals in f)

    def to_sets(masks):
        return tuple(frozenset(a for a in range(s) if m >> a & 1) for m in masks)

    def key(masks):
        return b"".join(m.to_bytes(mask_bytes, "little") for m in masks)

    def edges_ok_at(masks, v) -> bool:
        for e_idx in incident[v]:
            a, b = edges[e_idx]
            ma, mb = masks[a], masks[b]
            rows = row_masks[e_idx]
            if not any(rows[x] & mb for x in range(s) if ma >> x & 1):
                return False
        return True

    def expand(masks, theta):
        size = sum(m.bit_count() for m in masks)
        for v in range(n):
            for a in allowed[v]:
                nm = masks[v] ^ (1 << a)
                new_size = size + (1 if nm > masks[v] else -1)
                if new_size > theta or (nm == 0 and nonempty):
                    continue
                nxt = masks[:v] + (nm,) + masks[v + 1 :]
                if edges_ok_at(nxt, v):
                    yield nxt

    total = sum(len(a) for a in allowed)
    thetas = range(max(multi_size(f_start), multi_size(f_goal)), total + 1)
    theta, path, explored = _threshold_search(
        thetas, to_masks(f_start), to_masks(f_goal), key, expand, cap
    )
    return SolveResult(
        value=Fraction(theta, n + 1),
        witness=ReconfigSequence(kind=KIND_MULTI, states=tuple(to_sets(m) for m in path)),
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
# Cover reconfiguration costs
# ---------------------------------------------------------------------------


def _solve_cover_cost(
    n_items: int,
    feasible_mask,
    c_start: frozenset,
    c_goal: frozenset,
    denominator: int,
    kind: str,
    cap: int | None,
) -> SolveResult:
    start_mask = sum(1 << i for i in c_start)
    goal_mask = sum(1 << i for i in c_goal)
    key_bytes = (n_items + 7) // 8

    def key(mask):
        return mask.to_bytes(key_bytes, "little")

    def expand(mask, theta):
        size = mask.bit_count()
        for i in range(n_items):
            nm = mask ^ (1 << i)
            if nm > mask and size + 1 > theta:
                continue
            if feasible_mask(nm):
                yield nm

    thetas = range(max(start_mask.bit_count(), goal_mask.bit_count()), n_items + 1)
    theta, path, explored = _threshold_search(thetas, start_mask, goal_mask, key, expand, cap)
    states = tuple(frozenset(i for i in range(n_items) if m >> i & 1) for m in path)
    return SolveResult(
        value=Fraction(theta, denominator),
        witness=ReconfigSequence(kind=kind, states=states),
        states_explored=explored,
    )


def solve_cost_setcover(
    system: SetSystem, c_start, c_goal, cap: int | None = None
) -> SolveResult:
    """Min over cover sequences of (max cover size) / (opt + 1), ascending."""
    c_start, c_goal = frozenset(c_start), frozenset(c_goal)
    if not is_cover(system, c_start) or not is_cover(system, c_goal):
        raise StructuralError("infeasible endpoints: start/goal must cover the universe")
    opt = min_cover(system)
    full = (1 << system.n_elements) - 1
    masks = [sum(1 << e for e in s) for s in system.sets]

    def feasible(mask: int) -> bool:
        acc = 0
        probe = mask
        while probe:
            i = (probe & -probe).bit_length() - 1
            acc |= masks[i]
            probe &= probe - 1
        return acc == full

    return _solve_cover_cost(system.n_sets, feasible, c_start, c_goal, opt + 1, KIND_COVER, cap)


def solve_cost_hvc(h: Hypergraph, c_start, c_goal, cap: int | None = None) -> SolveResult:
    """Min over vertex-cover sequences of (max size) / (beta + 1), ascending."""
    c_start, c_goal = frozenset(c_start), frozenset(c_goal)
    if not is_vertex_cover(h, c_start) or not is_vertex_cover(h, c_goal):
        raise StructuralError("infeasible endpoints: start/goal must be vertex covers")
    beta = min_vertex_cover(h)
    edge_masks = [sum(1 << v for v in e) for e in h.hyperedges]

    def feasible(mask: int) -> bool:
        return all(mask & em for em in edge_masks)

    return _solve_cover_cost(
        h.n_vertices, feasible, c_start, c_goal, beta + 1, KIND_VERTEX_COVER, cap
    )


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


def solve_instance(problem: str, inst, cap: int | None = None) -> SolveResult:
    """Solve an instance bundle exactly with the solver of ``problem``."""
    p = _problem(problem)
    if not isinstance(inst, p.bundle):
        raise StructuralError(
            f"{problem} expects a {p.bundle.__name__}, got {type(inst).__name__}"
        )
    return globals()[p.solver](getattr(inst, p.part), inst.start, inst.goal, cap=cap)


# ---------------------------------------------------------------------------
# Gap classification
# ---------------------------------------------------------------------------


def decide_gap(value: Fraction, c: Fraction, s: Fraction, direction: str) -> str:
    """Classify a value against a (c, s) promise gap.

    ``max``-type asks value >= c (complete) versus value < s (sound);
    ``min``-type asks value <= c versus value > s.  Values inside the gap
    return "neither".
    """
    value, c, s = Fraction(value), Fraction(c), Fraction(s)
    if direction == "max":
        if not s <= c:
            raise StructuralError(f"max-type gap needs s <= c, got s={s}, c={c}")
        if value >= c:
            return "complete"
        return "sound" if value < s else "neither"
    if direction == "min":
        if not c <= s:
            raise StructuralError(f"min-type gap needs c <= s, got c={c}, s={s}")
        if value <= c:
            return "complete"
        return "sound" if value > s else "neither"
    raise StructuralError(f"direction must be 'max' or 'min', got {direction!r}")


# ---------------------------------------------------------------------------
# Independent materialized oracle
# ---------------------------------------------------------------------------


def _assignments(g: ConstraintGraph):
    options = [[BOTTOM] + sorted(g.allowed_symbols(v)) for v in range(g.n_vertices)]
    return math.prod(map(len, options)), itertools.product(*options)


def _label_sets(g: ConstraintGraph):
    symbols = [sorted(g.allowed_symbols(v)) for v in range(g.n_vertices)]

    def states():  # every label subset of every vertex, built only when iterated
        yield from itertools.product(*(
            [frozenset(c) for k in range(len(syms) + 1) for c in itertools.combinations(syms, k)]
            for syms in symbols
        ))

    return math.prod(2 ** len(syms) for syms in symbols), states()


def _subsets(n: int):
    return 2**n, (frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n))


# State kind -> (number of raw states, lazy iterator over them).
_RAW_STATES = {
    KIND_PARTIAL: _assignments,
    KIND_MULTI: _label_sets,
    KIND_COVER: lambda system: _subsets(system.n_sets),
    KIND_VERTEX_COVER: lambda h: _subsets(h.n_vertices),
}


def enumerate_feasible_states(problem: str, instance, raw_limit: int = 500_000):
    """All feasible states of an instance, by brute-force enumeration.

    The raw state space is counted, and refused above ``raw_limit``,
    before any state is built.
    """
    p = _problem(problem)
    raw, states = _RAW_STATES[p.kind](instance)
    if raw > raw_limit:
        raise StructuralError(f"raw state space {raw} exceeds limit {raw_limit}")
    feasible = KINDS[p.kind].feasible
    return [state for state in states if feasible(instance, state)]


def oracle_value(
    problem: str, instance, start, goal, state_limit: int = 4096
) -> Fraction:
    """Bottleneck-path optimum over the fully materialized state graph.

    Independent of the threshold solvers: states come from brute
    enumeration, adjacency from the pairwise step metric, and the optimum
    from a heap-based minimax path search.  The maxmin problem runs it on
    negated weights.
    """
    p = _problem(problem)
    states = enumerate_feasible_states(problem, instance)
    if len(states) > state_limit:
        raise StructuralError(f"{len(states)} feasible states exceed limit {state_limit}")
    kind = KINDS[p.kind]
    sign = -1 if p.maximize else 1
    weight = [sign * kind.size(state) for state in states]
    index = {state: i for i, state in enumerate(states)}
    start, goal = kind.canonical(start), kind.canonical(goal)
    if start not in index or goal not in index:
        raise StructuralError("infeasible endpoints")
    neighbors: list[list[int]] = [[] for _ in states]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if kind.step(states[i], states[j]) <= 1:
                neighbors[i].append(j)
                neighbors[j].append(i)

    s_idx, g_idx = index[start], index[goal]
    dist = [None] * len(states)  # least achievable maximum weight on a path
    dist[s_idx] = weight[s_idx]
    heap = [(dist[s_idx], s_idx)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == g_idx:
            return Fraction(sign * d, p.denominator(instance))
        for w_idx in neighbors[u]:
            cand = max(d, weight[w_idx])
            if dist[w_idx] is None or cand < dist[w_idx]:
                dist[w_idx] = cand
                heapq.heappush(heap, (cand, w_idx))
    raise StructuralError("endpoints are not connected")


def sequence_objective(problem: str, instance, seq: ReconfigSequence) -> Fraction:
    """Recompute the objective of a witness sequence from scratch."""
    p = _problem(problem)
    sizes = map(KINDS[p.kind].size, seq.states)
    return Fraction((min if p.maximize else max)(sizes), p.denominator(instance))
