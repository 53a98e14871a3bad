"""Expander construction, exact walk probabilities, amplification."""

import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count, product
from operator import mul
from pathlib import Path

import pytest

import rforge.amplify as amplify_module
from rforge.amplify import (
    MAX_RANDOMNESS,
    ExpanderGraph,
    _config_model_rotation,
    _estimate_lambda,
    amplify,
    build_expander,
    choose_rho,
    degree_report,
    walk_hit_counts,
    walk_hit_prob,
)
from rforge.core import StructuralError, TableVerifier
from rforge.generate import generate_verifier, generate_verifier_with_accepted_pair
from rforge.verifier import accept_prob, accepting_set, degrees, reads, row_of


def test_package_attribute_is_the_module():
    # The package re-exports no function named after a submodule, so the
    # dotted import binds the module itself.
    assert amplify_module.build_expander is build_expander
    assert amplify_module.amplify is amplify


def test_package_root_re_exports_nothing():
    # Each name has one import path, its module: importing one module
    # loads only it (and what it imports), and the root binds no name.
    script = (
        "import inspect, sys\n"
        "import rforge.core\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'rforge'))\n"
        "print(sorted(k for k, x in vars(rforge).items() if inspect.isfunction(x) or inspect.isclass(x)))\n"
    )
    src = str(Path(amplify_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["['rforge', 'rforge.core']", "[]"]


def is_psd(m) -> bool:
    """Exact positive-semidefiniteness of a symmetric rational matrix (LDL^T).

    A negative pivot, or a zero pivot with a nonzero entry beside it,
    refutes it; a positive pivot leaves a Schur complement that must be
    PSD in turn.
    """
    m = [list(row) for row in m]
    for k, row_k in enumerate(m):
        pivot = row_k[k]
        if pivot < 0 or (pivot == 0 and any(row_k[k + 1 :])):
            return False
        if pivot == 0:
            continue
        for row_i in m[k + 1 :]:
            f = row_i[k] / pivot
            if f:
                for j in range(k + 1, len(m)):
                    row_i[j] -= f * row_k[j]
    return True


def multiplicities(x: ExpanderGraph) -> list[list[int]]:
    """Dense n x n matrix whose (v, w) entry counts v's ports leading to w,
    read off the rotation map (a self-loop counts both of its ports)."""
    m = [[0] * x.n for _ in range(x.n)]
    for v in range(x.n):
        for p in range(x.d):
            m[v][x.step(v, p)] += 1
    return m


def dense_walk_hit_count(m, subset, rho) -> int:
    """Walks of rho vertices that stay in subset, by a transfer-matrix pass
    over every vertex with the multiplicity matrix m: a reference for
    ``walk_hit_counts`` that needs no symmetry of m."""
    members = set(subset)
    inside = [int(v in members) for v in range(len(m))]
    for _ in range(rho - 1):
        inside = [sum(map(mul, inside, column)) if v in members else 0 for v, column in enumerate(zip(*m))]
    return sum(inside)


def lambda_at_most(x: ExpanderGraph, mu) -> bool:
    """Whether every adjacency eigenvalue but the top one has |lambda| <= mu, exactly.

    With M = A - (d/n) J, which keeps those eigenvalues and sends the top
    one (all-ones eigenvector) to 0, that holds iff mu I - M and mu I + M
    are both positive semidefinite.
    """
    mu = Fraction(mu)
    shift = Fraction(x.d, x.n)
    m = [[count - shift for count in row] for row in multiplicities(x)]
    return all(
        is_psd([[sign * m[i][j] + (mu if i == j else 0) for j in range(x.n)] for i in range(x.n)])
        for sign in (1, -1)
    )


def always_accepting(r, q, ell):
    n = 2**r
    return TableVerifier(
        r=r,
        q=q,
        ell=ell,
        queries=tuple(tuple((k + j) % ell for j in range(q)) for k in range(n)),
        tables=tuple(bytes([1] * 2**q) for _ in range(n)),
    )


class TestBuildExpander:
    def test_complete_graph_fallback(self):
        for n in range(4, 9):
            x = build_expander(n, n - 1, 0.9, seed=0)
            assert x.lam == 1.0
            assert x.ratio == pytest.approx(1 / (n - 1))
            assert lambda_at_most(x, 1) and not lambda_at_most(x, 1 - Fraction(1, 10**9))

    def test_complete_plus_matching(self):
        x = build_expander(16, 16, 0.15, seed=0)
        assert x.lam == 2.0 and x.ratio == 0.125
        assert lambda_at_most(x, 2) and not lambda_at_most(x, 2 - Fraction(1, 10**9))

    def test_random_regular_certified(self):
        x = build_expander(16, 4, 0.9, seed=42)
        assert x.ratio < 0.9
        # The estimate must bound the true spectral value from above, and
        # by no more than its slack and convergence tolerance allow.
        assert lambda_at_most(x, x.lam)
        assert not lambda_at_most(x, (Fraction(x.lam) - Fraction(1, 10**6)) / (1 + Fraction(1, 1000)))

    def test_exact_reference_against_known_spectra(self):
        # The 4-cycle has eigenvalues 2, 0, 0, -2; K_4 minus a perfect
        # matching is that cycle, so its lambda is exactly 2.
        rotation = ((1, 0), (3, 1), (0, 0), (2, 1), (3, 0), (1, 1), (2, 0), (0, 1))
        cycle = ExpanderGraph(n=4, d=2, rotation=rotation, lam=2.0)
        assert lambda_at_most(cycle, 2) and not lambda_at_most(cycle, Fraction(199, 100))
        # Two disjoint triangles: a second eigenvalue equal to d.
        triangles = tuple(
            (base + (v + (1 if p == 0 else -1)) % 3, 1 - p) for base in (0, 3) for v in range(3) for p in range(2)
        )
        split = ExpanderGraph(n=6, d=2, rotation=triangles, lam=2.0)
        assert lambda_at_most(split, 2) and not lambda_at_most(split, Fraction(3, 2))

    @pytest.mark.parametrize("seed", [55, 93, 189])
    def test_estimate_bounds_graphs_a_power_iteration_missed(self, seed):
        # A deflated power iteration stopped below the true |lambda_2| on
        # these graphs (seed 93: 3.341433 against 3.341474); the Lanczos
        # estimate must sit at or above it, within its outward slack.
        x = build_expander(32, 4, 0.95, seed)
        assert lambda_at_most(x, x.lam)
        assert not lambda_at_most(x, Fraction(x.lam) * (1 - Fraction(1, 10**5)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_estimate_on_tiny_graphs(self, n):
        # Down to n = 2, where the space orthogonal to the all-ones vector
        # is one-dimensional; disconnected draws have lambda = d.
        for seed in range(6):
            rotation = _config_model_rotation(n, 4, random.Random(seed))
            est = _estimate_lambda(rotation, n, 4, seed)
            x = ExpanderGraph(n=n, d=4, rotation=rotation, lam=est)
            assert lambda_at_most(x, est)
            if est > 1e-6:
                assert not lambda_at_most(x, Fraction(est) * (1 - Fraction(1, 10**5)))

    def test_degree_two_rejected(self):
        with pytest.raises(StructuralError):
            build_expander(8, 2, 0.9, seed=0)

    def test_odd_total_rejected(self):
        with pytest.raises(StructuralError):
            build_expander(5, 3, 0.9, seed=0)

    def test_infeasible_target(self):
        with pytest.raises(StructuralError):
            build_expander(8, 4, 1e-6, seed=0, attempts=3)

    def test_rotation_involution_checked(self):
        x = build_expander(8, 4, 0.95, seed=1)
        for v in range(x.n):
            for p in range(x.d):
                w, pp = x.rotation[v * x.d + p]
                assert x.rotation[w * x.d + pp] == (v, p)


class TestWalkHitProb:
    def test_full_and_empty(self):
        x = build_expander(8, 4, 0.95, seed=2)
        assert walk_hit_prob(x, range(8), 3) == 1
        assert walk_hit_prob(x, (), 3) == 0

    def test_k4_half_set(self):
        x = build_expander(4, 3, 0.9, seed=0)
        # start inside (2/4), one step staying inside (1/3)
        assert walk_hit_prob(x, {0, 1}, 2) == Fraction(1, 6)

    def test_single_vertex_walk_is_density(self):
        x = build_expander(8, 4, 0.95, seed=3)
        assert walk_hit_prob(x, {1, 2, 5}, 1) == Fraction(3, 8)

    def test_walk_sandwich_small_graphs(self):
        import random

        rng = random.Random(9)
        graphs = [build_expander(n, n - 1, 0.9, seed=0) for n in (4, 6, 8)]
        graphs.append(build_expander(32, 4, 0.95, seed=5))
        graphs.append(build_expander(64, 4, 0.95, seed=6))
        for x in graphs:
            lam = Fraction(x.lam)
            for _ in range(6):
                k = rng.randrange(x.n + 1)
                subset = frozenset(rng.sample(range(x.n), k))
                mu = Fraction(len(subset), x.n)
                for rho in range(1, 5):
                    p = walk_hit_prob(x, subset, rho)
                    lower = max(Fraction(0), mu - 2 * lam / x.d) ** rho
                    upper = (mu + 2 * lam / x.d) ** rho
                    assert lower <= p <= upper


def multigraph(n, d, seed):
    """Configuration-model multigraph with at least one self-loop and one multi-edge."""
    for s in count(seed):
        x = ExpanderGraph(n=n, d=d, rotation=_config_model_rotation(n, d, random.Random(s)), lam=float(d))
        ends = [[x.step(v, p) for p in range(d)] for v in range(n)]
        loop = any(v in ends[v] for v in range(n))
        multi = any(ends[v].count(w) > 1 for v in range(n) for w in ends[v] if w != v)
        if loop and multi:
            return x


def brute_walk_hit_prob(x, members, rho):
    """Share of all n * d^(rho-1) (start, port sequence) walks that stay in members."""
    hits = 0
    for start in range(x.n):
        for ports in product(range(x.d), repeat=rho - 1):
            walk = [start]
            for p in ports:
                walk.append(x.step(walk[-1], p))
            hits += all(w in members for w in walk)
    return Fraction(hits, x.n * x.d ** (rho - 1))


class TestWalkOracle:
    # Each case builds a fresh subset iterable for an n-vertex graph.
    SUBSETS = {
        "empty": lambda n: [],
        "full": lambda n: range(n),
        "unsorted-duplicates": lambda n: [n - 1, 3, 0, 3, n - 1, 5],
        "range": lambda n: range(1, n, 3),
        "generator": lambda n: (v for v in range(n) if v % 3 != 1),
        "random-duplicates": lambda n: random.Random(n).choices(range(n), k=n // 2),
    }

    @pytest.mark.parametrize("n, d", [(10, 4), (16, 4), (12, 6)])
    def test_matches_brute_force_walks(self, n, d):
        x = multigraph(n, d, seed=n * d)
        m = multiplicities(x)
        for rho in range(1, 5):
            walks = n * d ** (rho - 1)
            brute = [brute_walk_hit_prob(x, set(make(n)), rho) for make in self.SUBSETS.values()]
            assert [walk_hit_prob(x, make(n), rho) for make in self.SUBSETS.values()] == brute
            dense = [dense_walk_hit_count(m, make(n), rho) for make in self.SUBSETS.values()]
            assert dense == [p * walks for p in brute]
            # One lane per subset, the subsets themselves read from a generator.
            batched = walk_hit_counts(x, (make(n) for make in self.SUBSETS.values()), rho)
            assert batched == dense
            assert walk_hit_counts(x, [], rho) == []
        for v in range(n):  # one member: its self-loops are the only walks
            assert walk_hit_prob(x, [v], 3) == brute_walk_hit_prob(x, {v}, 3)

    def test_rejects_bad_arguments(self):
        x = multigraph(10, 4, seed=0)
        with pytest.raises(StructuralError):
            walk_hit_prob(x, [0, 1], 0)
        with pytest.raises(StructuralError):
            walk_hit_counts(x, [[0, 1]], 0)
        for subset in ([0, 10], [-1, 2], (v for v in (3, 10))):
            with pytest.raises(StructuralError):
                walk_hit_prob(x, subset, 2)
        for subset in ([0, 10], [-1, 2], (v for v in (3, 10))):
            with pytest.raises(StructuralError):
                walk_hit_counts(x, [[1], subset], 2)


def hand_built_multigraph():
    """3 vertices, degree 4: a loop at 0, a double edge 0-1, a double edge 1-2, a loop at 2."""
    rotation = (
        ((0, 1), (0, 0), (1, 0), (1, 1))
        + ((0, 2), (0, 3), (2, 0), (2, 1))
        + ((1, 2), (1, 3), (2, 3), (2, 2))
    )
    return ExpanderGraph(n=3, d=4, rotation=rotation, lam=4.0)


class TestWalkHitCounts:
    GRAPHS = {
        "complete-4": lambda: build_expander(4, 3, 0.9, seed=0),
        "complete-7": lambda: build_expander(7, 6, 0.9, seed=0),
        "complete-plus-matching-8": lambda: build_expander(8, 8, 0.3, seed=0),
        "complete-plus-matching-16": lambda: build_expander(16, 16, 0.2, seed=0),
        "random-16": lambda: build_expander(16, 4, 0.95, seed=3),
        "random-32": lambda: build_expander(32, 4, 0.95, seed=4),
        "random-64": lambda: build_expander(64, 4, 0.95, seed=5),
        "hand-built-multigraph": hand_built_multigraph,
    }

    @pytest.mark.parametrize("name", GRAPHS)
    def test_equals_per_subset_count_and_brute_force(self, name):
        x = self.GRAPHS[name]()
        m = multiplicities(x)
        rng = random.Random(name)
        drawn = [rng.sample(range(x.n), rng.randrange(x.n + 1)) for _ in range(6)]
        subsets = [(), range(x.n)] + drawn + [[v] for v in range(x.n)]
        for rho in range(1, 5):
            walks = x.n * x.d ** (rho - 1)
            counts = walk_hit_counts(x, subsets, rho)
            assert counts == [dense_walk_hit_count(m, s, rho) for s in subsets]
            if walks <= 4096:
                brute = [brute_walk_hit_prob(x, set(s), rho) * walks for s in subsets[: 2 + len(drawn) + 1]]
                assert counts[: len(brute)] == brute

    def test_full_lane_beside_empty_lane(self):
        # The full set's count is every walk, 2^16 at rho = 4: a lane one
        # bit too narrow would carry it into the empty lane beside it.
        # Lanes are 1, 2, 4 or 8 bytes wide, or wider past 2^64 walks
        # (rho = 16 and 17 here), and each width is read back exactly.
        x = build_expander(16, 16, 0.2, seed=0)
        m = multiplicities(x)
        for rho in (1, 2, 3, 4, 7, 8, 15, 16, 17):
            walks = x.n * x.d ** (rho - 1)
            assert walk_hit_counts(x, [range(16), (), range(16), ()], rho) == [walks, 0, walks, 0]
            subsets = [range(1, 16), range(0, 16, 2), [3, 5, 8, 13]]
            assert walk_hit_counts(x, subsets, rho) == [dense_walk_hit_count(m, s, rho) for s in subsets]


class TestChooseRho:
    def test_forced_arithmetic(self):
        # 2/eps = 2 and delta just above exp(-2): the product sits just
        # below 4, so the ceiling is exactly 4.
        assert choose_rho(Fraction(1), Fraction(13534, 100000)) == 4

    def test_log_two_case(self):
        assert choose_rho(Fraction(1, 2), Fraction(1, 2)) == 3  # ceil(4 ln 2)

    def test_near_ties_beyond_float_precision(self):
        # e^-2 = 0.13533528323661269189...: delta on either side of it, at
        # 16 digits, puts 2 ln(1/delta) on either side of 4
        assert choose_rho(Fraction(1), Fraction(1353352832366127, 10**16)) == 4
        assert choose_rho(Fraction(1), Fraction(1353352832366126, 10**16)) == 5
        # e^(-1/6) = 0.84648172489061413...: 6 ln(1/delta) is just below 1,
        # and the float estimate of the ceiling is 2
        assert choose_rho(Fraction(1, 3), Fraction(169296344978123, 200000000000000)) == 1

    def test_agrees_with_decimal_logarithm(self):
        with localcontext() as ctx:
            ctx.prec = 50
            for eb in range(1, 8):
                for ea in range(1, eb + 1):
                    for db in range(2, 13):
                        for da in range(1, db):
                            x = 2 * Decimal(eb) / Decimal(ea) * (Decimal(db) / Decimal(da)).ln()
                            assert choose_rho(Fraction(ea, eb), Fraction(da, db)) == math.ceil(x)

    def test_domain(self):
        with pytest.raises(StructuralError):
            choose_rho(Fraction(1, 2), Fraction(1))
        with pytest.raises(StructuralError):
            choose_rho(Fraction(0), Fraction(1, 2))
        with pytest.raises(StructuralError):
            choose_rho(Fraction(3, 2), Fraction(1, 2))


class TestAmplify:
    def test_no_literal_masks_outlive_the_call(self):
        # Four entries reading disjoint 4-position blocks: a walk through all
        # four reads 16 positions, whose literal masks take about 300 KB.
        # Dropping the amplified verifier must free them; a fresh interpreter
        # keeps masks that earlier tests made out of the count.
        script = (
            "import gc, tracemalloc\n"
            "from rforge.amplify import amplify, build_expander\n"
            "from rforge.core import TableVerifier\n"
            "blocks = tuple(tuple(range(4 * k, 4 * k + 4)) for k in range(4))\n"
            "v = TableVerifier(r=2, q=4, ell=16, queries=blocks, tables=(bytes([1] * 16),) * 4)\n"
            "x = build_expander(4, 4, 0.99, 0)\n"
            "tracemalloc.start()\n"
            "assert amplify(v, x, 4).q == 16\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = str(Path(amplify_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 150_000

    def test_rho_one_is_identity_on_acceptance(self):
        v = TableVerifier(
            r=2,
            q=1,
            ell=2,
            queries=((0,), (1,), (0,), (1,)),
            tables=(bytes([1, 1]), bytes([1, 0]), bytes([0, 1]), bytes([1, 1])),
        )
        x = build_expander(4, 4, 0.95, seed=3)
        amped = amplify(v, x, 1)
        for word in range(4):
            p = format(word, "02b")
            assert accept_prob(amped, p) == accept_prob(v, p)

    def test_always_accepting_stays_one(self):
        v = always_accepting(r=2, q=2, ell=3)
        x = build_expander(4, 4, 0.95, seed=4)
        amped = amplify(v, x, 3)
        for word in range(8):
            assert accept_prob(amped, format(word, "03b")) == 1

    def test_acceptance_equals_walk_probability(self):
        import random

        rng = random.Random(11)
        for trial in range(4):
            r, q, ell = 2, 2, 3
            queries = tuple(tuple(sorted(rng.sample(range(ell), q))) for _ in range(4))
            tables = tuple(bytes(rng.randrange(2) for _ in range(4)) for _ in range(4))
            v = TableVerifier(r=r, q=q, ell=ell, queries=queries, tables=tables)
            x = build_expander(4, 4, 0.95, seed=trial)
            for rho in (1, 2, 3):
                amped = amplify(v, x, rho)
                for word in range(2**ell):
                    proof = format(word, f"0{ell}b")
                    assert accept_prob(amped, proof) == walk_hit_prob(
                        x, accepting_set(v, proof), rho
                    )

    def test_vertex_set_mismatch(self):
        v = always_accepting(r=2, q=1, ell=2)
        x = build_expander(8, 4, 0.95, seed=0)
        with pytest.raises(StructuralError):
            amplify(v, x, 2)

    def test_degree_must_be_power_of_two(self):
        v = always_accepting(r=2, q=1, ell=2)
        x = build_expander(4, 3, 0.9, seed=0)
        with pytest.raises(StructuralError):
            amplify(v, x, 2)

    def test_tables_are_the_and_of_row_lookups(self):
        # Each amplified entry against its definition: its positions are
        # the walk entries' positions in order of first read, and row k
        # accepts iff every walk entry's table accepts the read at its own
        # positions, one row_of lookup per entry.  Walks that read a
        # position twice (merged duplicates) must occur.
        verifiers = [
            generate_verifier_with_accepted_pair(seed, r=2, q=q, ell=4, accept_p=0.5).verifier
            for seed in range(3)
            for q in (1, 2, 3)
        ]
        verifiers.append(generate_verifier(7).verifier)
        merged_away = 0
        for t, v in enumerate(verifiers):
            x = build_expander(v.n_entries, 4, 0.95, seed=t)
            for rho in (1, 2, 3):
                amped = amplify(v, x, rho)
                assert amped.n_entries == v.n_entries * 4 ** (rho - 1)
                for rnd, (merged, table) in enumerate(zip(amped.queries, amped.tables)):
                    walk = [rnd >> (amped.r - v.r)]
                    for k in reversed(range(rho - 1)):
                        walk.append(x.step(walk[-1], rnd >> (2 * k) & 3))
                    along = [i for rk in walk for i in v.queries[rk]]
                    assert merged == tuple(dict.fromkeys(along))
                    merged_away += len(along) - len(merged)
                    expected = [
                        all(v.tables[rk][row_of(dict(zip(merged, read)), v.queries[rk])] for rk in walk)
                        for read in reads(len(merged))
                    ]
                    assert list(table) == expected
        assert merged_away > 0

    def test_randomness_ceiling_refuses_before_enumerating(self):
        # Two port bits per step: the first rho past the ceiling is refused
        # before any of its entries is enumerated.
        v = always_accepting(r=1, q=1, ell=1)
        x = build_expander(2, 4, 0.9, seed=0)
        rho = (MAX_RANDOMNESS - v.r) // 2 + 2
        with pytest.raises(StructuralError, match=f"r={v.r + 2 * (rho - 1)} random bits, ceiling is {MAX_RANDOMNESS}"):
            amplify(v, x, rho)


class TestDegreeReport:
    def test_rho_one_keeps_regular_degrees(self):
        v = TableVerifier(
            r=1,
            q=2,
            ell=4,
            queries=((0, 1), (2, 3)),
            tables=(bytes([1] * 4),) * 2,
        )
        x = build_expander(2, 4, 1.1, seed=7, attempts=200)
        amped = amplify(v, x, 1)
        rep = degree_report(amped)
        assert rep.regular == 1 and rep.degrees == degrees(v)

    def test_union_bound_on_query_probability(self):
        v = TableVerifier(
            r=2,
            q=2,
            ell=4,
            queries=((0, 1), (2, 3), (0, 2), (1, 3)),
            tables=(bytes([1] * 4),) * 4,
        )
        x = build_expander(4, 4, 0.95, seed=8)
        for rho in (1, 2, 3):
            amped = amplify(v, x, rho)
            rep = degree_report(amped)
            delta_reg = 2  # the base verifier is 2-regular
            for i, d in enumerate(rep.degrees):
                assert Fraction(d, 2**amped.r) <= Fraction(rho * delta_reg, 2**v.r)

    def test_exact_degree_table_against_walk_enumeration(self):
        v = TableVerifier(
            r=2,
            q=2,
            ell=4,
            queries=((0, 1), (1, 2), (2, 3), (3, 0)),
            tables=(bytes([1] * 4),) * 4,
        )
        x = build_expander(4, 4, 0.95, seed=9)
        rho = 2
        amped = amplify(v, x, rho)
        # independent walk enumeration via the rotation map
        expected = [0] * v.ell
        for start in range(4):
            for port in range(4):
                walk = (start, x.step(start, port))
                positions = set()
                for rk in walk:
                    positions.update(v.queries[rk])
                for i in positions:
                    expected[i] += 1
        assert list(degree_report(amped).degrees) == expected
