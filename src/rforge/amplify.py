"""Expander graphs, exact random-walk probabilities, and acceptance amplification.

The amplifier re-runs a base verifier along the vertices of a random walk
on a d-regular expander whose vertex set is the verifier's randomness
space, ANDing the decisions.  With a spectral ratio below a quarter of
the base soundness gap, the rejection probability of a bad proof decays
geometrically in the walk length.  The ratio of a random expander is a
Lanczos estimate with outward slack, not a proof (the complete-graph
constructions carry exact eigenvalues).  Walk counts are exact integers,
for many subsets in one lane-packed pass (``walk_hit_counts``) that reads
each vertex's neighbours off the rotation map.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add, itemgetter, mul

from .core import StructuralError, TableVerifier
from .verifier import accept_mask, degrees, literals
from . import rng as rng_mod

# Lanczos settings for the spectral estimate: test the Ritz values every few
# steps, stop when they settle or the Krylov space closes.
_LANCZOS_CHECK_EVERY = 4
_LANCZOS_TOL = 1e-12
_KRYLOV_CLOSED = 1e-12
_OUTWARD_REL_SLACK = 1e-6
_OUTWARD_ABS_SLACK = 1e-9

# Most positions an amplified entry may read; its table has 2^positions rows.
MAX_POSITIONS = 20

# Most random bits an amplified verifier may use; it has 2^r entries.
MAX_RANDOMNESS = 18


@dataclass(frozen=True)
class ExpanderGraph:
    """d-regular multigraph given by a rotation map, with its spectral value.

    ``rotation[v * d + p]`` is the (vertex, port) pair reached by leaving
    vertex v on port p; the map is an involution.  ``lam`` stands for the
    second-largest adjacency eigenvalue magnitude: exact for the
    complete-graph constructions, an estimate with outward slack (see
    ``_estimate_lambda``) for the random ones.
    """

    n: int
    d: int
    rotation: tuple[tuple[int, int], ...]
    lam: float

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise StructuralError("expander needs n >= 1 and d >= 1")
        if not 0 <= self.lam <= self.d:  # NaN fails every comparison
            raise StructuralError(f"lambda must be a finite number in [0, d], got {self.lam!r}")
        if len(self.rotation) != self.n * self.d:
            raise StructuralError("rotation map must have n*d entries")
        for v in range(self.n):
            for p in range(self.d):
                w, pp = self.rotation[v * self.d + p]
                if not (0 <= w < self.n and 0 <= pp < self.d):
                    raise StructuralError("rotation map leaves the graph")
                if self.rotation[w * self.d + pp] != (v, p):
                    raise StructuralError("rotation map is not an involution")

    @property
    def ratio(self) -> float:
        return self.lam / self.d

    def step(self, v: int, port: int) -> int:
        return self.rotation[v * self.d + port][0]


def _complete_rotation(n: int, d: int) -> list[tuple[int, int]]:
    # K_n at stride d: vertex v's port p < n - 1 leads to the p-th other
    # vertex in index order; ports n - 1 to d - 1 are left to the caller.
    rot: list[tuple[int, int]] = [(0, 0)] * (n * d)
    for v in range(n):
        for p in range(n - 1):
            w = p if p < v else p + 1
            rot[v * d + p] = (w, v if v < w else v - 1)
    return rot


def _complete_plus_matching_rotation(n: int) -> tuple[tuple[int, int], ...]:
    # K_n plus the perfect matching v <-> v + n/2, giving degree n with lambda = 2.
    rot = _complete_rotation(n, n)
    for v in range(n):
        rot[v * n + n - 1] = ((v + n // 2) % n, n - 1)
    return tuple(rot)


def _config_model_rotation(n: int, d: int, seeded) -> tuple[tuple[int, int], ...]:
    # Configuration model: pair all n*d stubs uniformly; multi-edges and
    # self-loops are kept (the walk semantics only needs the rotation map).
    stubs = [(v, p) for v in range(n) for p in range(d)]
    seeded.shuffle(stubs)
    rot: list[tuple[int, int]] = [(0, 0)] * (n * d)
    it = iter(stubs)
    for (v1, p1), (v2, p2) in zip(it, it):
        rot[v1 * d + p1] = (v2, p2)
        rot[v2 * d + p2] = (v1, p1)
    return tuple(rot)


def _estimate_lambda(rotation: tuple[tuple[int, int], ...], n: int, d: int, seed: int) -> float:
    """Estimate of the second adjacency eigenvalue magnitude, padded outward.

    Lanczos iteration (Lanczos 1950) on the adjacency operator restricted
    to the vectors orthogonal to the all-ones eigenvector, from one seeded
    Gaussian start.  The extreme eigenvalues of the tridiagonal matrix it
    builds (Ritz values, see ``_ritz_extremes``) approach the operator's
    extreme eigenvalues from inside, and in floating point without
    reorthogonalisation they still converge to them (Paige 1980).
    The iteration stops when the larger magnitude settles to 1e-12
    relative, when the Krylov space closes (beta about 0), or after
    n - 1 steps, the dimension of that space; the value is then padded
    with a small outward slack.  Stopping when the value settles is not a
    proof: the result is an estimate, not a certificate.
    """
    if n == 1:
        return 0.0
    # (A x)[v] sums x over v's d neighbours: one gather per port.
    ports = [itemgetter(*[w for w, _ in rotation[p::d]]) for p in range(d)]
    r = rng_mod.stream(seed, "start:0")
    x = [r.gauss(0.0, 1.0) for _ in range(n)]
    mean = sum(x) / n
    x = [t - mean for t in x]
    norm = math.hypot(*x)
    q_prev, q = [0.0] * n, [t / norm for t in x]
    alphas: list[float] = []
    betas: list[float] = []
    beta = est = 0.0
    for k in range(1, n):
        y = ports[0](q)
        for gather in ports[1:]:
            y = map(add, y, gather(q))
        y = list(y)
        # Removing the mean keeps rounding from growing an all-ones component.
        mean = sum(y) / n
        w = [t - mean - beta * s for t, s in zip(y, q_prev)]
        alpha = sum(map(mul, w, q))
        w = [t - alpha * s for t, s in zip(w, q)]
        alphas.append(alpha)
        beta = math.hypot(*w)
        closed = beta <= _KRYLOV_CLOSED * d or k == n - 1
        if closed or k % _LANCZOS_CHECK_EVERY == 0:
            low, high = _ritz_extremes(alphas, betas, d)
            last, est = est, max(-low, high)
            if closed or abs(est - last) <= _LANCZOS_TOL * est:
                break
        betas.append(beta)
        q_prev, q = q, [t / beta for t in w]
    # No eigenvalue of a d-regular graph exceeds d, so d always bounds lambda.
    return min(float(d), est * (1.0 + _OUTWARD_REL_SLACK) + _OUTWARD_ABS_SLACK)


def _ritz_extremes(alphas: list[float], betas: list[float], d: int) -> tuple[float, float]:
    """Least and greatest eigenvalue of the symmetric tridiagonal matrix T
    with diagonal ``alphas`` and off-diagonal ``betas``, each rounded outward.

    Bisection on definiteness: x lies above every eigenvalue of T iff
    T - xI is negative definite, iff every pivot of its LDL^T
    factorisation is negative (Sylvester's law of inertia), so a test
    stops at the first pivot that is not.  The least eigenvalue of T is
    the greatest of -T negated.  Both lie in [-d, d] up to rounding, so
    each search starts from [-d - 1, d + 1].
    """
    squares = [0.0] + [b * b for b in betas]

    def greatest(diagonal: list[float]) -> float:
        lo, hi = -d - 1.0, d + 1.0
        mid = (lo + hi) / 2
        while lo < mid < hi:
            pivot = 1.0
            for a, b2 in zip(diagonal, squares):
                pivot = a - mid - b2 / pivot
                if pivot >= 0.0:
                    lo = mid
                    break
            else:
                hi = mid
            mid = (lo + hi) / 2
        return hi

    return -greatest([-a for a in alphas]), greatest(alphas)


def build_expander(n: int, d: int, target_ratio: float, seed: int, attempts: int = 64) -> ExpanderGraph:
    """Build a d-regular multigraph on n vertices with spectral ratio < target.

    Deterministic complete-graph constructions are used when they apply
    (n <= d + 1): K_n for d = n - 1 has lambda exactly 1, and K_n plus a
    perfect matching for d = n (n even) has lambda exactly 2.  Otherwise
    seeded configuration-model graphs are drawn and their lambda estimated
    (``_estimate_lambda``) until one beats the target or the attempt
    budget runs out.
    """
    if d < 3:
        raise StructuralError(f"degree must be >= 3, got {d}")
    if (n * d) % 2 != 0:
        raise StructuralError("n * d must be even")
    if d == n - 1:
        name, rotation, lam = "complete graph", tuple(_complete_rotation(n, d)), 1.0
    elif d == n and n % 2 == 0:
        name, rotation, lam = "complete-plus-matching graph", _complete_plus_matching_rotation(n), 2.0
    else:
        name = None
    if name is not None:
        if lam / d < target_ratio:
            return ExpanderGraph(n=n, d=d, rotation=rotation, lam=lam)
        raise StructuralError(f"{name} on {n} vertices has ratio {lam / d}, target {target_ratio} infeasible")
    for attempt in range(attempts):
        seeded = rng_mod.stream(seed, f"expander:{n}:{d}:{attempt}")
        rotation = _config_model_rotation(n, d, seeded)
        lam = _estimate_lambda(rotation, n, d, rng_mod.substream_seed(seed, f"spectral:{attempt}"))
        if lam / d < target_ratio:
            return ExpanderGraph(n=n, d=d, rotation=rotation, lam=lam)
    raise StructuralError(
        f"no (n={n}, d={d}) graph with ratio < {target_ratio} found in {attempts} attempts"
    )


def walk_hit_prob(x: ExpanderGraph, subset, rho: int) -> Fraction:
    """Exact probability that all rho vertices of a uniform walk land in subset.

    The walk has rho vertices and rho - 1 steps: a uniform start vertex
    followed by uniform port choices, so each of the n * d^(rho - 1)
    walks is equally likely (see ``walk_hit_counts``).
    """
    return Fraction(walk_hit_counts(x, (subset,), rho)[0], x.n * x.d ** (rho - 1))


def walk_hit_counts(x: ExpanderGraph, subsets, rho: int) -> list[int]:
    """Number of rho-vertex walks, (start vertex, rho - 1 ports), that stay
    in each subset: one transfer-matrix pass over integer walk counts.

    Lane j of each packed int, ``size`` whole bytes wide, belongs to the
    j-th subset.  inside[v] holds, in every lane, the walks so far that
    stayed in the lane's subset and sit at v.  A step adds up v's
    neighbours' ints times their multiplicities and ANDs the sum with v's
    member mask widened to whole lanes.  No lane carries into the next,
    since no count exceeds the n * d^(rho - 1) walks in all.  The subsets
    are read once, in order, so they may come from a generator; each one
    fills a row of member flags, and v's lanes are the flag column of v.
    ``size`` is a power of two, so that lanes of up to 8 bytes are read
    back in one ``struct.unpack``.
    """
    if rho < 1:
        raise StructuralError(f"walk needs at least one vertex, got rho={rho}")
    n = x.n
    size = 1 << (((n * x.d ** (rho - 1)).bit_length() + 7) // 8 - 1).bit_length()
    # flags[j * n + v] is 1 iff the j-th subset holds v.
    flags = bytearray()
    zeros = bytes(n)
    for subset in subsets:
        row = len(flags)
        flags += zeros
        for v in subset:
            if not 0 <= v < n:
                raise StructuralError("subset leaves the vertex set")
            flags[row + v] = 1
    n_lanes = len(flags) // n
    # inside[v], little-endian: bit 0 of each lane whose subset holds v.
    inside = []
    for v in range(n):
        lanes = bytearray(size * n_lanes)
        lanes[::size] = flags[v::n]
        inside.append(int.from_bytes(lanes, "little"))
    if rho > 1:
        lane = (1 << (8 * size)) - 1
        masks = [m * lane for m in inside]
        # v's ports by the vertex they lead to (a self-loop counts both of its
        # ports); the rotation map is an involution, so they also count the
        # ports into v.
        d = x.d
        neighbours = [Counter(w for w, _ in x.rotation[v * d : (v + 1) * d]).items() for v in range(n)]
        for _ in range(rho - 1):
            inside = [sum(c * inside[w] for w, c in around) & mask for around, mask in zip(neighbours, masks)]
    data = sum(inside).to_bytes(size * n_lanes, "little")
    if size <= 8:
        return list(struct.unpack(f"<{n_lanes}{_LANE_FORMATS[size]}", data))
    return [int.from_bytes(data[at : at + size], "little") for at in range(0, len(data), size)]


# struct format of a little-endian lane of each size in bytes up to 8.
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _exp_exceeds(y: Fraction, r: Fraction) -> bool:
    """Whether e^y > r, for rational y > 0.

    Taylor partial sums of e^y bound it from below; after the term
    y^i / i! the rest is at most that term times q / (1 - q), with
    q = y / (i + 1) < 1.  e^y is irrational, so it never equals r and
    one of the two bounds settles the comparison.
    """
    term = total = Fraction(1)
    i = 0
    while True:
        i += 1
        term *= y / i
        total += term
        if total > r:
            return True
        q = y / (i + 1)
        if q < 1 and total + term * q / (1 - q) < r:
            return False


def choose_rho(eps: Fraction, delta: Fraction) -> int:
    """ceil((2 / eps) * ln(1 / delta)), exactly.

    That is the least k >= 1 with e^(k eps / 2) > 1 / delta (never equal,
    see ``_exp_exceeds``).  A float estimate of k is moved by one until
    exact comparisons bracket it.
    """
    eps = Fraction(eps)
    delta = Fraction(delta)
    if not 0 < eps <= 1:
        raise StructuralError(f"eps must lie in (0, 1], got {eps}")
    if not 0 < delta < 1:
        raise StructuralError(f"delta must lie in (0, 1), got {delta}")
    bound = 1 / delta
    log_bound = math.log(delta.denominator) - math.log(delta.numerator)
    k = max(1, math.ceil(2 * Fraction(log_bound) / eps))
    while k > 1 and _exp_exceeds((k - 1) * eps / 2, bound):
        k -= 1
    while not _exp_exceeds(k * eps / 2, bound):
        k += 1
    return k


def amplify(v: TableVerifier, x: ExpanderGraph, rho: int) -> TableVerifier:
    """Walk-amplified verifier: run v on every vertex of a rho-vertex walk.

    Randomness encodes (start vertex, rho - 1 port choices); the degree
    must be a power of two so port choices are whole bits.  The query
    tuple concatenates the walk entries' tuples with duplicate positions
    merged (each position read once, fanned out to every decision table);
    the decision is the AND of the walk entries' decisions.  Each table is
    built as an int mask over its rows, one ``accept_mask`` per walk entry
    over the ``literals`` of the merged positions.
    """
    if rho < 1:
        raise StructuralError(f"rho must be >= 1, got {rho}")
    if x.n != v.n_entries:
        raise StructuralError(
            f"expander has {x.n} vertices, verifier randomness space has {v.n_entries}"
        )
    if x.d & (x.d - 1) != 0:
        raise StructuralError(f"expander degree must be a power of two, got {x.d}")
    port_bits = x.d.bit_length() - 1
    new_r = v.r + (rho - 1) * port_bits
    if new_r > MAX_RANDOMNESS:
        raise StructuralError(f"amplified verifier needs r={new_r} random bits, ceiling is {MAX_RANDOMNESS}")
    queries: list[tuple[int, ...]] = []
    tables: list[bytes] = []
    literals_of = cache(literals)  # for this call only: 16 positions' masks take 300 KB
    for rnd in range(2**new_r):
        # The start vertex, then the ports from the most significant down.
        walk = [rnd >> (new_r - v.r)]
        for k in reversed(range(rho - 1)):
            walk.append(x.step(walk[-1], rnd >> (k * port_bits) & (x.d - 1)))
        # Positions in order of first read along the walk.
        merged = tuple(dict.fromkeys(i for rk in walk for i in v.queries[rk]))
        m = len(merged)
        if m > MAX_POSITIONS:
            raise StructuralError(f"amplified entry reads {m} positions, ceiling is {MAX_POSITIONS}")
        # Bit k of a mask is row k of the merged table.
        accepted, by_position = literals_of(m)
        at = dict(zip(merged, by_position))
        for rk in walk:
            accepted = accept_mask(v.tables[rk], [at[i] for i in v.queries[rk]], accepted)
        queries.append(merged)
        tables.append(format(accepted, f"0{1 << m}b")[::-1].encode().translate(_ROW_BYTES))
    q_max = max(len(i) for i in queries)
    return TableVerifier(r=new_r, q=q_max, ell=v.ell, queries=tuple(queries), tables=tuple(tables))


# The 0/1 digits of a mask's binary form as decision-table bytes.
_ROW_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class DegreeReport:
    """Per-position query degrees, their maximum, and the common degree if regular."""

    degrees: tuple[int, ...]
    max_degree: int
    regular: int | None


def degree_report(v: TableVerifier) -> DegreeReport:
    counts = degrees(v)
    return DegreeReport(
        degrees=counts,
        max_degree=max(counts),
        regular=counts[0] if len(set(counts)) == 1 else None,
    )
