"""Seeded property-check suites.

Each suite drives one lemma-level identity over a stream of generated
instances and reports the first counterexample verbatim.  The acceptance
test module runs the same suites, so CLI checks and the test suite cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, compress, islice

from . import generate, rng as rng_mod, serialize
from .amplify import amplify, build_expander, choose_rho, walk_hit_counts
from .approx import two_factor_cover
from .core import (
    BOTTOM,
    BudgetExhaustedError,
    ConstraintGraph,
    LabelCoverInstance,
    StructuralError,
    TableVerifier,
    VerifierInstance,
    is_full,
    multi_size,
    satisfies_partial,
    validate_sequence,
)
from .fglss import (
    build_fglss,
    completeness_sequence,
    enumerate_satisfying_partials,
    interpolate_proofs,
    plurality_decode,
    view_pins,
)
from .reductions import (
    cover_to_labels,
    labelcover_to_hvc,
    labelcover_to_setcover,
    lift_partial_sequence,
    p2csp_to_labelcover,
)
from .solve import (
    PROBLEM_HVC_COST,
    PROBLEM_MAXPAR,
    PROBLEM_MINLAB,
    PROBLEM_SC_COST,
    SOLVERS,
    _bits,
    min_cover,
    min_vertex_cover,
    oracle_value,
    sequence_objective,
    solve_instance,
    solve_maxpar,
    solve_minlab,
)
from .verifier import acceptance_rows, bit_lanes, degree, degrees, table_of

# State budget of every exact solve a suite runs.
CHECK_CAP = 100_000


@dataclass
class CheckReport:
    suite: str
    passed: bool
    trials: int
    violations: int
    counterexample: str | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.suite}: {self.trials} trials, {self.violations} violations"
        if self.notes:
            line += " [" + "; ".join(self.notes) + "]"
        return line


def _ce(payload) -> str:
    return serialize.canonical_dumps(payload).decode().rstrip("\n")


class _Tally:
    """Violations found so far and the counterexample of the first one found
    with a witness."""

    def __init__(self):
        self.violations = 0
        self.counterexample: str | None = None

    def add(self, payload=None) -> None:
        self.violations += 1
        if self.counterexample is None and payload is not None:
            self.counterexample = _ce(payload)

    def report(self, suite: str, trials: int, notes=(), passed: bool = True) -> CheckReport:
        ok = passed and self.violations == 0
        return CheckReport(suite, ok, trials, self.violations, self.counterexample, tuple(notes))


# ---------------------------------------------------------------------------
# Coverage equivalence of the set-cover gadget
# ---------------------------------------------------------------------------


# The subfamilies holding each of k sets, as masks over the 2^k subfamilies:
# the same few small tables serve every edge of every trial.
_holding = cache(bit_lanes)


def _subfamily_verdicts(g: ConstraintGraph, e_idx: int, own: list[int], blocks: list[int], size: int) -> tuple[int, int]:
    """(covering, satisfying) over the subfamilies of edge e_idx's own sets.

    ``own`` lists the pair indices of the sets at the edge's endpoints and
    ``blocks[j]`` the elements of the edge's ``size``-element block that
    own[j] meets.  Bit ``mask`` of covering is set iff the sets of the
    subfamily ``mask`` (own[j] for each bit j) cover the block, and of
    satisfying iff ``multi_edge_satisfied(g, e_idx, cover_to_labels(g,
    chosen))``.  With holds[j] the subfamilies holding own[j]: an element
    is covered by the subfamilies holding some set that meets it, and the
    edge is satisfied by those holding a set (v, a) and a set (w, b) whose
    pair the edge accepts.
    """
    v, w = g.edges[e_idx]
    s, table = g.n_symbols, g.tables[e_idx]
    holds = _holding(len(own))
    covering = (1 << (1 << len(own))) - 1
    for x in range(size):
        meets = 0
        for held, block in zip(holds, blocks):
            if block >> x & 1:
                meets |= held
        covering &= meets
    ends = [(g.pairs[i], held) for i, held in zip(own, holds)]
    at_w = [(b, held) for (u, b), held in ends if u == w]
    satisfying = 0
    for (u, a), held in ends:
        if u == v:
            for b, held_b in at_w:
                if table[a * s + b]:
                    satisfying |= held & held_b
    return covering, satisfying


def lemma_setcover(trials: int = 200, seed: int = 0) -> CheckReport:
    """Every subfamily covers an edge block iff the mapped labels satisfy the edge.

    Exhaustive, for each edge of each generated instance (asymmetric
    tables included), over the subfamilies of its two endpoints' sets.
    Two more checks make that the statement for every subfamily of the
    whole family: no set meets the block of an edge away from its vertex,
    and the whole family maps to as many labels as it has sets.  Each
    set's members are read once, into an int mask over the universe.
    """
    tally = _Tally()
    for t in range(trials):
        params = rng_mod.stream(seed, f"lemma-params:{t}")
        inst = generate.generate_labelcover(
            rng_mod.substream_seed(seed, f"lemma:{t}"),
            n_vertices=params.randrange(2, 4),
            alphabet_size=params.randrange(1, 4),
            density=0.9,
            accept_p=params.choice((0.4, 0.6, 0.8)),
        )
        g = inst.graph
        system = labelcover_to_setcover(inst).system
        m = system.n_sets
        if multi_size(cover_to_labels(g, range(m))) != m:
            tally.add()
        masks = [sum(map((1).__lshift__, members)) for members in system.sets]
        # Edge (v, w)'s block is 2^min(|A(v)|, |A(w)|) consecutive elements,
        # in edge order; the elements of vertices on no edge follow the last.
        first = 0
        for e_idx, (v, w) in enumerate(g.edges):
            size = 1 << min(len(g.allowed_symbols(v)), len(g.allowed_symbols(w)))
            full = (1 << size) - 1
            own, blocks = [], []
            for i, ((u, _), mask) in enumerate(zip(g.pairs, masks)):
                block = mask >> first & full
                if u == v or u == w:
                    own.append(i)
                    blocks.append(block)
                elif block:
                    tally.add({"instance": serialize.payload(inst), "set": i, "edge": e_idx, "foreign": True})
            first += size
            covering, satisfying = _subfamily_verdicts(g, e_idx, own, blocks, size)
            if covering != satisfying:
                wrong = covering ^ satisfying
                mask = (wrong & -wrong).bit_length() - 1
                tally.add(
                    {
                        "instance": serialize.payload(inst),
                        "subfamily": [i for j, i in enumerate(own) if mask >> j & 1],
                        "edge": e_idx,
                        "covered": bool(covering >> mask & 1),
                        "satisfied": bool(satisfying >> mask & 1),
                    }
                )
            if tally.counterexample is not None:
                break
        if tally.counterexample is not None:
            break
    return tally.report("lemma-setcover", trials)


# ---------------------------------------------------------------------------
# Cost equality through the reductions
# ---------------------------------------------------------------------------


def _with_edgeless_vertex(inst: LabelCoverInstance, rng) -> LabelCoverInstance:
    """``inst`` plus one vertex on no edge with a random nonempty admissible
    set; every other vertex admits the whole alphabet, and the endpoints
    give the new vertex a label from its set."""
    g = inst.graph
    s = g.n_symbols
    allowed = rng.sample(range(s), rng.randrange(1, s + 1))
    admissible = (frozenset(range(s)),) * g.n_vertices + (frozenset(allowed),)
    graph = ConstraintGraph(g.vertices + (f"v{g.n_vertices}",), 2, g.alphabet, g.edges, g.tables, admissible)
    start = inst.start + (frozenset({rng.choice(allowed)}),)
    goal = inst.goal + (frozenset({rng.choice(allowed)}),)
    return LabelCoverInstance(graph, start, goal)


def _cost_instance(seed: int, t: int) -> LabelCoverInstance:
    """Label-cover instance of trial ``t`` of the cost-equality suites.

    Every fifth trial, from the first, adds one edgeless vertex.
    """
    params = rng_mod.stream(seed, f"cost-params:{t}")
    inst = generate.generate_labelcover(
        rng_mod.substream_seed(seed, f"cost:{t}"),
        n_vertices=params.randrange(2, 4),
        alphabet_size=params.randrange(1, 3),
        density=0.9,
        accept_p=params.choice((0.5, 0.7, 0.9)),
        ensure_incident=True,
        distinct_endpoints=True,
    )
    if t % 5 == 0:
        inst = _with_edgeless_vertex(inst, rng_mod.stream(seed, f"cost-edgeless:{t}"))
    return inst


# Reduction from label cover and minimum-cover solver of each cover-cost
# problem, named so that a call goes through this module's globals.
_COST_REDUCTIONS = {
    PROBLEM_SC_COST: ("labelcover_to_setcover", "min_cover"),
    PROBLEM_HVC_COST: ("labelcover_to_hvc", "min_vertex_cover"),
}


def _cost_equality(trials: int, seed: int, problem: str) -> CheckReport:
    reduction, minimum = _COST_REDUCTIONS[problem]
    tally = _Tally()
    for t in range(trials):
        inst = _cost_instance(seed, t)
        g = inst.graph
        minlab = solve_instance(PROBLEM_MINLAB, inst, cap=CHECK_CAP)
        red = globals()[reduction](inst)
        opt = globals()[minimum](getattr(red, SOLVERS[problem].part))
        cost = solve_instance(problem, red, cap=CHECK_CAP, opt=opt)
        if opt != g.n_vertices:
            tally.add(
                {
                    "instance": serialize.payload(inst),
                    "reason": f"minimum cover {opt} != |V| = {g.n_vertices}",
                }
            )
            continue
        if minlab.value != cost.value:
            tally.add(
                {
                    "instance": serialize.payload(inst),
                    "minlab": str(minlab.value),
                    "cost": str(cost.value),
                }
            )
    return tally.report(f"cost-equality-{problem.removesuffix('-cost')}", trials)


def cost_equality_sc(trials: int = 50, seed: int = 0) -> CheckReport:
    """Exact rational equality of the label minmax and the reduced cover minmax."""
    return _cost_equality(trials, seed, PROBLEM_SC_COST)


def cost_equality_hvc(trials: int = 50, seed: int = 0) -> CheckReport:
    """Exact rational equality against the padded vertex-cover reduction."""
    return _cost_equality(trials, seed, PROBLEM_HVC_COST)


# ---------------------------------------------------------------------------
# Completeness of the singleton lift
# ---------------------------------------------------------------------------


def lift_completeness(trials: int = 30, seed: int = 0) -> CheckReport:
    """Full-assignment optima lift to label-cover optima of exactly 1.

    Instances are rejection-sampled until the partial-assignment optimum
    is 1 with distinct endpoints; the constructive half-step witness must
    validate with peak size |V| + 1, and the lifted instance must solve
    to exactly 1.
    """
    found = 0
    attempts = 0
    tally = _Tally()
    while found < trials and attempts < trials * 100:
        params = rng_mod.stream(seed, f"lift-params:{attempts}")
        inst = generate.generate_csp(
            rng_mod.substream_seed(seed, f"lift:{attempts}"),
            n_vertices=params.randrange(2, 4),
            alphabet_size=params.randrange(2, 4),
            density=0.8,
            accept_p=0.75,
            ensure_incident=True,
            distinct_endpoints=True,
        )
        attempts += 1
        if inst.start == inst.goal:
            continue
        res = solve_maxpar(inst, cap=CHECK_CAP)
        if res.value != 1:
            continue
        found += 1
        lifted = p2csp_to_labelcover(inst)
        half = lift_partial_sequence(inst.graph, res.witness)
        report = validate_sequence(inst.graph, half, start=lifted.start, goal=lifted.goal)
        peak = max(multi_size(f) for f in half.states)
        minlab = solve_minlab(lifted, cap=CHECK_CAP)
        if not report.ok or peak != inst.graph.n_vertices + 1 or minlab.value != 1:
            tally.add(
                {
                    "instance": serialize.payload(inst),
                    "witness_ok": report.ok,
                    "peak": peak,
                    "minlab": str(minlab.value),
                }
            )
    notes = [f"{attempts} instances sampled for {found} with optimum 1"]
    if found < trials:
        notes.append("not enough optimum-1 instances found")
    return tally.report("lift-completeness", found, notes, passed=found >= trials)


# ---------------------------------------------------------------------------
# Constraint-graph completeness and soundness machinery
# ---------------------------------------------------------------------------


def fglss_completeness(trials: int = 10, seed: int = 0) -> CheckReport:
    """A 1-bit step between everywhere-accepted proofs walks through full
    satisfying assignments only, with length 1 + 2 * degree."""
    tally = _Tally()
    for t in range(trials):
        params = rng_mod.stream(seed, f"fcomp-params:{t}")
        q = params.randrange(1, 3)
        r = params.randrange(1, 3)
        ell = params.randrange(q, 5)
        inst = generate.generate_verifier_with_accepted_pair(
            rng_mod.substream_seed(seed, f"fcomp:{t}"), r=r, q=q, ell=ell
        )
        v, start, goal = inst.verifier, inst.start, inst.goal
        g = build_fglss(v)
        seq = completeness_sequence(v, start, goal)
        star = next((i for i in range(v.ell) if start[i] != goal[i]), None)
        expect_len = 1 if star is None else 1 + 2 * degree(v, star)
        all_full = all(is_full(f) for f in seq.states)
        report = validate_sequence(g, seq)
        if not all_full or not report.ok or len(seq.states) != expect_len:
            tally.add(
                {
                    "verifier": serialize.payload(inst),
                    "sequence_ok": report.ok,
                    "length": len(seq.states),
                    "expected_length": expect_len,
                }
            )
    return tally.report("fglss-completeness", trials)


def _toy_verifiers(trials: int, seed: int):
    """Small verifiers whose satisfying-assignment spaces are enumerable.

    Always includes one deterministic 8-entry equality checker (an
    8-vertex graph) whose tight tables keep the enumeration small; the
    seeded rest stay at 2 or 4 vertices.
    """
    eq = bytes([1, 0, 0, 1])
    queries = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 3), (1, 2))
    out = [
        TableVerifier(r=3, q=2, ell=4, queries=queries, tables=(eq,) * 8)
    ]
    for t in range(trials):
        params = rng_mod.stream(seed, f"toy-params:{t}")
        q = params.randrange(1, 3)
        r = params.randrange(1, 3)
        ell = params.randrange(q, 4)
        out.append(
            generate.generate_verifier_with_accepted_pair(
                rng_mod.substream_seed(seed, f"toy:{t}"), r=r, q=q, ell=ell, accept_p=0.5
            ).verifier
        )
    return out


def fglss_popularity(trials: int = 6, seed: int = 0) -> CheckReport:
    """Plurality decoding laws over all satisfying partial assignments.

    For every satisfying assignment of every toy graph: each assigned
    entry accepts the decoded proof; the label sets voting on a position
    form a subset chain; the decoded acceptance probability is at least
    the assigned fraction.  Single-vertex mutations then exercise the
    interpolation dip bound, compared on exact entry counts.  Entry sets
    are int masks: the chain law ORs, over the assigned entries, the
    positions each symbol's view pins to 0 and to 1, which must not meet,
    and every proof's accepting set is a column of ``acceptance_rows``.
    The enumerated assignments are satisfying by construction and are
    not checked again; the sampled mutations are.
    """
    tally = _Tally()
    states_seen = 0
    for v in _toy_verifiers(trials, seed):
        g = build_fglss(v)
        two_r = v.n_entries
        sampler = rng_mod.stream(seed, f"popularity-pairs:{v.r}:{v.ell}")
        pins = view_pins(v)
        degrees_of = degrees(v)
        # accepting[w]: the entries accepting proof w, as a mask.
        accepting = [sum(bit << rnd for rnd, bit in enumerate(col)) for col in zip(*acceptance_rows(v))]
        for f in enumerate_satisfying_partials(g):
            states_seen += 1
            proof = plurality_decode(v, f)
            problems = []
            accepted = accepting[int(proof, 2)]
            assigned = zeros = ones = 0
            for rnd, a in enumerate(f):
                if a != BOTTOM:
                    assigned |= 1 << rnd
                    zero, one = pins[rnd][a]
                    zeros |= zero
                    ones |= one
            if assigned & ~accepted:
                problems += [f"assigned entry {rnd} rejects the decoded proof" for rnd in _bits(assigned & ~accepted)]
            if zeros & ones:
                problems += [f"incomparable label sets vote on position {i}" for i in _bits(zeros & ones)]
            if accepted.bit_count() < assigned.bit_count():
                problems.append("acceptance below the assigned fraction")
            if problems:
                tally.add(
                    {
                        "verifier": serialize.payload(VerifierInstance(v)),
                        "assignment": [None if a == BOTTOM else a for a in f],
                        "problems": problems,
                    }
                )
                break
            # Dip bound on a sampled single-vertex mutation of f, on integers:
            # each flipped position i may cost its degree(i) entries.
            if sampler.random() < 0.25:
                rnd = sampler.randrange(two_r)
                alt = sampler.randrange(g.n_symbols)
                mutated = f[:rnd] + (alt,) + f[rnd + 1 :]
                if mutated != f and satisfies_partial(g, mutated):
                    proof2 = plurality_decode(v, mutated)
                    base = accepted.bit_count()
                    for inter in interpolate_proofs(v, proof, proof2).states:
                        floor = base - sum(degrees_of[i] for i in range(v.ell) if inter[i] != proof[i])
                        if accepting[int(inter, 2)].bit_count() < floor:
                            tally.add(
                                {
                                    "verifier": serialize.payload(VerifierInstance(v)),
                                    "from": proof,
                                    "to": proof2,
                                    "interpolant": inter,
                                }
                            )
                            break
    return tally.report("fglss-popularity", trials, [f"{states_seen} satisfying assignments enumerated"])


# ---------------------------------------------------------------------------
# Expander walks and amplification
# ---------------------------------------------------------------------------


def expander_bounds(trials: int = 12, seed: int = 0) -> CheckReport:
    """Exact walk probabilities sit inside the spectral sandwich bounds.

    Walk counts come from one ``walk_hit_counts`` pass per rho and are
    compared with each (subset size, rho) sandwich scaled to the walks.
    """
    graphs = [build_expander(n, n - 1, 0.9, seed) for n in range(4, 9)]
    graphs.append(build_expander(16, 16, 0.2, seed))
    for n, d in ((16, 4), (32, 4), (64, 4)):
        graphs.append(build_expander(n, d, 0.95, seed))
    tally = _Tally()
    checked = 0
    rng = rng_mod.stream(seed, "expander-subsets")
    rhos = range(1, 5)
    for x in graphs:
        subsets = [frozenset(), frozenset(range(x.n)), frozenset({0})]
        for _ in range(trials):
            k = rng.randrange(x.n + 1)
            subsets.append(frozenset(rng.sample(range(x.n), k)))
        counts = {rho: walk_hit_counts(x, subsets, rho) for rho in rhos}
        spread = 2 * Fraction(x.lam) / x.d
        sandwich = {}  # (subset size, rho) -> (lower, upper) bound on the walk count
        for size in {len(subset) for subset in subsets}:
            mu = Fraction(size, x.n)
            for rho in rhos:
                walks = x.n * x.d ** (rho - 1)
                sandwich[size, rho] = (max(Fraction(0), mu - spread) ** rho * walks, (mu + spread) ** rho * walks)
        for i, subset in enumerate(subsets):
            for rho in rhos:
                checked += 1
                lower, upper = sandwich[len(subset), rho]
                if not lower <= counts[rho][i] <= upper:
                    tally.add({"n": x.n, "d": x.d, "lambda": x.lam, "subset": sorted(subset), "rho": rho})
    return tally.report("expander-bounds", checked, [f"{len(graphs)} graphs"])


def _claim_verifier(seed: int, t: int) -> VerifierInstance:
    """r=4 verifier over an 8-bit proof; start and goal are one planted always-accepted proof."""
    rng = rng_mod.stream(seed, f"claim-verifier:{t}")
    ell = 8
    planted = "".join(rng.choice("01") for _ in range(ell))
    queries = []
    tables = []
    for rnd in range(16):
        positions = (rnd % ell, (rnd + 1 + rnd // ell) % ell)
        if positions[0] == positions[1]:
            positions = (positions[0], (positions[1] + 1) % ell)
        view = {i: int(planted[i]) for i in positions}
        queries.append(positions)
        tables.append(table_of(positions, lambda read: rng.random() < 0.25 or read == view))
    v = TableVerifier(r=4, q=2, ell=ell, queries=tuple(queries), tables=tuple(tables))
    return VerifierInstance(v, planted, planted)


def claim_accept(trials: int = 3, seed: int = 0) -> CheckReport:
    """Both amplification directions, by exact enumeration of all proofs.

    Uses the deterministic degree-16 graph on 16 vertices (exact
    lambda 2, ratio 1/8 < eps/4 for eps = 3/5) and rho chosen for
    delta = 11/20.  Probability-1 proofs must amplify to exactly 1;
    every proof with acceptance below 1 - eps must amplify below delta.
    Also checks the amplified acceptance equals the walk-restriction
    probability of the base acceptance set, and sweeps all largest
    relevant vertex subsets directly.  Each proof is read once: its base
    and amplified acceptance are column sums of one ``acceptance_rows``
    pass per verifier, and one ``walk_hit_counts`` pass over the base
    columns gives its walk count.  The sweep compares the integer walk
    counts of all its subsets, counted in one more pass.  Every
    probability is compared on integers; a fraction is built only for a
    counterexample.
    """
    eps = Fraction(3, 5)
    delta = Fraction(11, 20)
    x = build_expander(16, 16, 0.15, seed)
    rho = choose_rho(eps, delta)
    tally = _Tally()
    notes = [f"rho={rho}", f"ratio={x.ratio}"]
    if not Fraction(x.lam) / x.d < eps / 4:
        return CheckReport("claim-accept", False, 0, 1, _ce({"reason": "ratio too large"}), tuple(notes))
    walks = x.n * x.d ** (rho - 1)
    low_seen = 0
    for t in range(trials):
        inst = _claim_verifier(seed, t)
        v, planted = inst.verifier, inst.start
        amped = amplify(v, x, rho)
        n_base, n_amp = v.n_entries, amped.n_entries
        proofs = [format(word, f"0{v.ell}b") for word in range(2**v.ell)]
        # Proof w's accepting entries are column w of acceptance_rows.
        rows = acceptance_rows(v)
        walk_counts = walk_hit_counts(x, (compress(range(n_base), col) for col in zip(*rows)), rho)
        counts = list(map(sum, zip(*rows)))
        amp_counts = list(map(sum, zip(*acceptance_rows(amped))))
        del rows  # only the count lists stay alive into the sweep
        for proof, accepted, amp_accepted, walked in zip(proofs, counts, amp_counts, walk_counts):
            problems = []
            if amp_accepted * walks != walked * n_amp:
                problems.append("amplified acceptance != walk probability")
            if accepted == n_base and amp_accepted != n_amp:
                problems.append("probability-1 proof lost acceptance")
            if accepted * eps.denominator < (eps.denominator - eps.numerator) * n_base:
                low_seen += 1
                if not amp_accepted * delta.denominator < delta.numerator * n_amp:
                    problems.append("low-acceptance proof not driven below delta")
            if problems:
                base, amp = Fraction(accepted, n_base), Fraction(amp_accepted, n_amp)
                tally.add(
                    {"trial": t, "proof": proof, "base": str(base), "amplified": str(amp), "problems": problems}
                )
        if counts[int(planted, 2)] != n_base:
            tally.add()
    # All subsets of the largest size with |S|/n < 1 - eps; smaller subsets
    # are dominated by monotonicity of the walk event.
    k_max = 0
    while Fraction(k_max + 1, x.n) < 1 - eps:
        k_max += 1
    # count / walks < delta iff count is below the least count at delta; the
    # sweep stops at the first subset that is not.
    at_delta = -(-delta.numerator * walks // delta.denominator)
    sweep_counts = walk_hit_counts(x, combinations(range(x.n), k_max), rho)
    swept = len(sweep_counts)
    if max(sweep_counts, default=0) >= at_delta:
        swept = next(j for j, count in enumerate(sweep_counts, 1) if count >= at_delta)
        subset = next(islice(combinations(range(x.n), k_max), swept - 1, None))
        tally.add({"subset": list(subset), "rho": rho})
    notes.append(f"{low_seen} low-acceptance proofs exercised")
    notes.append(f"{swept} subsets of size {k_max} swept")
    return tally.report("claim-accept", trials, notes)


# ---------------------------------------------------------------------------
# Approximation and oracle agreement
# ---------------------------------------------------------------------------


def approx_ratio(trials: int = 60, seed: int = 0) -> CheckReport:
    """Peak identity and the factor-2 bound against the exact solver."""
    tally = _Tally()
    compared = 0
    for t in range(trials):
        params = rng_mod.stream(seed, f"approx-params:{t}")
        sub = rng_mod.substream_seed(seed, f"approx:{t}")
        if t % 2 == 0:
            problem, inst = PROBLEM_SC_COST, generate.generate_setcover(
                sub, n_elements=params.randrange(3, 7), n_sets=params.randrange(3, 7)
            )
        else:
            problem, inst = PROBLEM_HVC_COST, generate.generate_hypergraph(
                sub, n_vertices=params.randrange(3, 7), n_edges=params.randrange(2, 6), max_edge_size=3
            )
        instance = getattr(inst, SOLVERS[problem].part)
        seq = two_factor_cover(inst)
        report = validate_sequence(instance, seq, start=inst.start, goal=inst.goal)
        peak = max(len(c) for c in seq.states)
        problems = []
        if not report.ok:
            problems.append(f"approx sequence invalid at {report.index}")
        if peak != len(inst.start | inst.goal):
            problems.append("peak differs from |start ∪ goal|")
        try:
            exact = solve_instance(problem, inst, cap=CHECK_CAP)
            compared += 1
            if sequence_objective(problem, instance, seq) > 2 * exact.value:
                problems.append("approximation ratio above 2")
        except BudgetExhaustedError:
            pass
        if problems:
            tally.add(
                {"instance": serialize.payload(inst), "problems": problems}
            )
    return tally.report("approx-ratio", trials, [f"{compared} exact comparisons"])


# Oracle-agreement draws, taken in turn: a problem and a small bundle of it.
_ORACLE_DRAWS = (
    (PROBLEM_MAXPAR, lambda sub, params: generate.generate_csp(
        sub, n_vertices=2, alphabet_size=params.randrange(1, 3), density=0.9
    )),
    (PROBLEM_MINLAB, lambda sub, params: generate.generate_labelcover(
        sub, n_vertices=2, alphabet_size=params.randrange(1, 3), density=1.0
    )),
    (PROBLEM_SC_COST, lambda sub, params: generate.generate_setcover(
        sub, n_elements=params.randrange(2, 5), n_sets=params.randrange(2, 5)
    )),
    (PROBLEM_HVC_COST, lambda sub, params: generate.generate_hypergraph(
        sub, n_vertices=params.randrange(2, 5), n_edges=params.randrange(1, 4)
    )),
)


def oracle_agreement(trials: int = 40, seed: int = 0) -> CheckReport:
    """Threshold solvers equal the independent bottleneck oracle exactly.

    Instances are drawn tiny, with at most 16 raw states: 2 vertices with
    at most 2 symbols, or at most 4 sets or vertices.  A draw that a
    solver or the oracle refuses is redrawn.
    """
    tally = _Tally()
    done = 0
    attempt = 0
    while done < trials and attempt < trials * 20:
        params = rng_mod.stream(seed, f"oracle-params:{attempt}")
        sub = rng_mod.substream_seed(seed, f"oracle:{attempt}")
        problem, draw = _ORACLE_DRAWS[attempt % 4]
        attempt += 1
        try:
            inst = draw(sub, params)
            res = solve_instance(problem, inst, cap=CHECK_CAP)
            instance = getattr(inst, SOLVERS[problem].part)
            expected = oracle_value(problem, inst)
        except StructuralError:
            continue
        done += 1
        witness_obj = sequence_objective(problem, instance, res.witness)
        if res.value != expected or witness_obj != res.value:
            tally.add(
                {
                    "instance": serialize.payload(inst),
                    "problem": problem,
                    "solver": str(res.value),
                    "oracle": str(expected),
                    "witness_objective": str(witness_obj),
                }
            )
    notes = [f"{done} instances with <= 20 states"]
    return tally.report("oracle-agreement", done, notes, passed=done >= trials)


SUITES = {
    "lemma-setcover": lemma_setcover,
    "cost-equality-sc": cost_equality_sc,
    "cost-equality-hvc": cost_equality_hvc,
    "lift-completeness": lift_completeness,
    "fglss-completeness": fglss_completeness,
    "fglss-popularity": fglss_popularity,
    "expander-bounds": expander_bounds,
    "claim-accept": claim_accept,
    "approx-ratio": approx_ratio,
    "oracle-agreement": oracle_agreement,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> CheckReport:
    if name not in SUITES:
        raise StructuralError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed)
    return fn(trials=trials, seed=seed)
