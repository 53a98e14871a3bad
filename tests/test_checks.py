"""Check-suite harness: registry, summaries, and the negative controls."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice
from types import SimpleNamespace

import pytest

from rforge import checks
from rforge.amplify import walk_hit_prob
from rforge.core import (
    ConstraintGraph,
    LabelCoverInstance,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    multi_edge_satisfied,
)
from rforge.generate import generate_labelcover
from rforge.reductions import cover_to_labels


def test_registry_names():
    assert set(checks.SUITES) == {
        "lemma-setcover",
        "cost-equality-sc",
        "cost-equality-hvc",
        "lift-completeness",
        "fglss-completeness",
        "fglss-popularity",
        "expander-bounds",
        "claim-accept",
        "approx-ratio",
        "oracle-agreement",
    }


# Every suite's summary line, notes included, at two seeds: its kernels may
# change, but not what it checks, counts or reports.
PINNED_SUMMARIES = {
    ("lemma-setcover", 7): "PASS lemma-setcover: 200 trials, 0 violations",
    ("cost-equality-sc", 7): "PASS cost-equality-sc: 50 trials, 0 violations",
    ("cost-equality-hvc", 7): "PASS cost-equality-hvc: 50 trials, 0 violations",
    ("lift-completeness", 7): "PASS lift-completeness: 30 trials, 0 violations [30 instances sampled for 30 with optimum 1]",
    ("fglss-completeness", 7): "PASS fglss-completeness: 10 trials, 0 violations",
    ("fglss-popularity", 7): "PASS fglss-popularity: 6 trials, 0 violations [1317 satisfying assignments enumerated]",
    ("expander-bounds", 7): "PASS expander-bounds: 540 trials, 0 violations [9 graphs]",
    ("claim-accept", 7): "PASS claim-accept: 3 trials, 0 violations "
    "[rho=2; ratio=0.125; 357 low-acceptance proofs exercised; 8008 subsets of size 6 swept]",
    ("approx-ratio", 7): "PASS approx-ratio: 60 trials, 0 violations [60 exact comparisons]",
    ("oracle-agreement", 7): "PASS oracle-agreement: 40 trials, 0 violations [40 instances with <= 20 states]",
    ("lemma-setcover", 1): "PASS lemma-setcover: 200 trials, 0 violations",
    ("cost-equality-sc", 1): "PASS cost-equality-sc: 50 trials, 0 violations",
    ("cost-equality-hvc", 1): "PASS cost-equality-hvc: 50 trials, 0 violations",
    ("lift-completeness", 1): "PASS lift-completeness: 30 trials, 0 violations [32 instances sampled for 30 with optimum 1]",
    ("fglss-completeness", 1): "PASS fglss-completeness: 10 trials, 0 violations",
    ("fglss-popularity", 1): "PASS fglss-popularity: 6 trials, 0 violations [1465 satisfying assignments enumerated]",
    ("expander-bounds", 1): "PASS expander-bounds: 540 trials, 0 violations [9 graphs]",
    ("claim-accept", 1): "PASS claim-accept: 3 trials, 0 violations "
    "[rho=2; ratio=0.125; 443 low-acceptance proofs exercised; 8008 subsets of size 6 swept]",
    ("approx-ratio", 1): "PASS approx-ratio: 60 trials, 0 violations [60 exact comparisons]",
    ("oracle-agreement", 1): "PASS oracle-agreement: 40 trials, 0 violations [40 instances with <= 20 states]",
}


@pytest.mark.parametrize("suite, seed", PINNED_SUMMARIES)
def test_summary_lines_are_pinned(suite, seed):
    assert checks.run_suite(suite, seed=seed).summary() == PINNED_SUMMARIES[suite, seed]


def test_unknown_suite_rejected():
    with pytest.raises(StructuralError, match="unknown suite"):
        checks.run_suite("nope")


def test_run_suite_threads_trials_and_seed():
    rep = checks.run_suite("lemma-setcover", trials=3, seed=9)
    assert rep.trials == 3 and rep.passed


def corrupted_setcover(monkeypatch):
    """Make lemma-setcover reduce with the smallest element of the first
    nonempty set dropped.  The start may then cover no longer, so no
    bundle can hold the corrupted system; the suite reads only the system."""
    reduce = checks.labelcover_to_setcover

    def corrupted(lc):
        inst = reduce(lc)
        sets = list(inst.system.sets)
        victim = next(i for i, members in enumerate(sets) if members)
        sets[victim] = frozenset(sorted(sets[victim])[1:])
        return SimpleNamespace(system=SetSystem(inst.system.elements, tuple(sets), inst.system.set_labels))

    monkeypatch.setattr(checks, "labelcover_to_setcover", corrupted)


def test_corrupted_gadget_fails_with_counterexample(monkeypatch):
    # negative control: the harness must notice a broken gadget and report
    # the offending instance verbatim
    corrupted_setcover(monkeypatch)
    rep = checks.lemma_setcover(trials=10, seed=4)
    assert not rep.passed
    assert rep.violations == 1
    payload = json.loads(rep.counterexample)
    assert payload["instance"]["type"] == "labelcover_instance"
    assert "FAIL" in rep.summary()


def admissible_block_graph():
    # Over {a, b}: v0 admits {a}, v1 and v3 admit {a, b}, and v2 admits
    # {b} on no edge.  Edge 0's block has 2 elements, edge 1's has 4 from
    # offset 2, and v2's element comes last: 7 elements, not 4 per edge.
    return ConstraintGraph(
        ("v0", "v1", "v2", "v3"),
        2,
        ("a", "b"),
        ((0, 1), (1, 3)),
        (bytes([1, 0, 1, 1]), bytes([1, 0, 0, 1])),
        (frozenset({0}), frozenset({0, 1}), frozenset({1}), frozenset({0, 1})),
    )


def test_lemma_setcover_reads_admissible_blocks(monkeypatch):
    graph = admissible_block_graph()
    f = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({0}))
    inst = LabelCoverInstance(graph, f, f)
    assert len(checks.labelcover_to_setcover(inst).system.elements) == 7
    monkeypatch.setattr(checks.generate, "generate_labelcover", lambda *args, **kwargs: inst)
    assert checks.lemma_setcover(trials=1).passed
    corrupted_setcover(monkeypatch)
    assert not checks.lemma_setcover(trials=1).passed


def test_subfamily_verdicts_match_the_labels():
    # The lemma suite's per-edge masks against the definitions: a
    # subfamily covers the block iff its sets' blocks OR to all of it, and
    # it satisfies the edge iff its labels do; no bit past the last
    # subfamily is set.  The graphs: 200 generated label covers, the
    # admissible-block graph, and one with a self-loop and asymmetric tables.
    graphs = [
        generate_labelcover(t, n_vertices=2 + t % 3, alphabet_size=1 + t % 4, density=0.9, accept_p=0.3 + t % 5 / 10)
        .graph
        for t in range(200)
    ]
    graphs.append(admissible_block_graph())
    loop = (bytes([0, 1, 0, 0, 0, 0, 1, 0, 0]), bytes([0, 0, 1, 1, 0, 0, 0, 0, 0]))
    graphs.append(ConstraintGraph(("v0", "v1"), 2, ("a", "b", "c"), ((0, 0), (0, 1)), loop))
    checked = covered = 0
    for g in graphs:
        for e_idx, edge in enumerate(g.edges):
            own = [i for i, (v, _) in enumerate(g.pairs) if v in edge]
            blocks = [1 << (3 * j % 4) | 1 << (j % 4) for j in range(len(own))]
            covering, satisfying = checks._subfamily_verdicts(g, e_idx, own, blocks, 4)
            assert covering >> 2 ** len(own) == satisfying >> 2 ** len(own) == 0
            for mask in range(2 ** len(own)):
                chosen = [i for j, i in enumerate(own) if mask >> j & 1]
                ored = 0
                for j in range(len(own)):
                    if mask >> j & 1:
                        ored |= blocks[j]
                assert bool(covering >> mask & 1) == (ored == 0b1111)
                assert bool(satisfying >> mask & 1) == multi_edge_satisfied(g, e_idx, cover_to_labels(g, chosen))
                checked += 1
                covered += ored == 0b1111
    assert checked > 2000 and covered > 100


def test_expander_bounds_fails_when_lambda_reads_zero(monkeypatch):
    # Negative control: with lambda 0 the sandwich collapses to mu^rho,
    # which no walk on K_4 meets for the subset {0} at rho = 2.
    build_expander = checks.build_expander
    monkeypatch.setattr(checks, "build_expander", lambda *args: replace(build_expander(*args), lam=0.0))
    rep = checks.expander_bounds(trials=2, seed=0)
    assert not rep.passed
    payload = json.loads(rep.counterexample)
    assert (payload["n"], payload["d"], payload["lambda"]) == (4, 3, 0.0)
    assert "FAIL" in rep.summary()


@pytest.mark.parametrize("shrink", [0, 0.2], ids=["lambda-zero", "lambda-fifth"])
def test_expander_bounds_flags_what_the_probability_sandwich_flags(monkeypatch, shrink):
    # The suite compares integer walk counts with each sandwich scaled to
    # the walks.  With lambda read too small, so that some pairs fail, it
    # must flag exactly the (subset, rho) pairs the probability form flags.
    build_expander, walk_hit_counts = checks.build_expander, checks.walk_hit_counts
    passes = []

    def shrunk(*args):
        x = build_expander(*args)
        return replace(x, lam=x.lam * shrink)

    def recorded(x, subsets, rho):
        passes.append((x, list(subsets), rho))
        return walk_hit_counts(x, passes[-1][1], rho)

    monkeypatch.setattr(checks, "build_expander", shrunk)
    monkeypatch.setattr(checks, "walk_hit_counts", recorded)
    rep = checks.expander_bounds(trials=4, seed=0)
    expected = 0
    for x, subsets, rho in passes:
        spread = 2 * Fraction(x.lam) / x.d
        for subset in subsets:
            mu = Fraction(len(subset), x.n)
            p = walk_hit_prob(x, subset, rho)
            expected += not max(Fraction(0), mu - spread) ** rho <= p <= (mu + spread) ** rho
    assert rep.trials == sum(len(subsets) for _, subsets, _ in passes) == 9 * 7 * 4
    assert expected > 0 and rep.violations == expected


def test_a_set_meeting_a_foreign_block_fails(monkeypatch):
    # v0's set gains an element of the block of edge (1, 2), away from v0.
    graph = ConstraintGraph(("v0", "v1", "v2"), 2, ("a",), ((0, 1), (1, 2)), (b"\x01", b"\x01"))
    f = (frozenset({0}),) * 3
    inst = LabelCoverInstance(graph, f, f)
    monkeypatch.setattr(checks.generate, "generate_labelcover", lambda *args, **kwargs: inst)
    assert checks.lemma_setcover(trials=1).passed
    reduce = checks.labelcover_to_setcover

    def foreign(lc):
        inst = reduce(lc)
        sets = (inst.system.sets[0] | {2},) + inst.system.sets[1:]
        return SetCoverInstance(SetSystem(inst.system.elements, sets, inst.system.set_labels), inst.start, inst.goal)

    monkeypatch.setattr(checks, "labelcover_to_setcover", foreign)
    rep = checks.lemma_setcover(trials=1)
    assert not rep.passed
    assert json.loads(rep.counterexample)["foreign"]


def test_a_set_with_no_label_fails(monkeypatch):
    # An empty extra set maps to no label, so the family is one set larger
    # than its labels.
    reduce = checks.labelcover_to_setcover

    def extra(lc):
        inst = reduce(lc)
        system = SetSystem(inst.system.elements, inst.system.sets + (frozenset(),), inst.system.set_labels + ("x",))
        return SetCoverInstance(system, inst.start, inst.goal)

    monkeypatch.setattr(checks, "labelcover_to_setcover", extra)
    assert not checks.lemma_setcover(trials=3).passed


def test_reports_are_deterministic():
    a = checks.run_suite("oracle-agreement", trials=6, seed=12)
    b = checks.run_suite("oracle-agreement", trials=6, seed=12)
    assert a == b


def test_a_flipped_amplified_row_fails_claim_accept(monkeypatch):
    # Negative control: row 0 of the first amplified entry is read by every
    # proof that is 0 at that entry's positions, and each of them must be
    # reported, the all-zeros proof first.
    amplify = checks.amplify
    flipped = []

    def one_row_flipped(v, x, rho):
        amped = amplify(v, x, rho)
        first = amped.tables[0]
        flipped.append(amped)
        return replace(amped, tables=(bytes([1 - first[0]]) + first[1:],) + amped.tables[1:])

    monkeypatch.setattr(checks, "amplify", one_row_flipped)
    rep = checks.claim_accept(trials=1, seed=0)
    assert not rep.passed
    (amped,) = flipped
    assert rep.violations == 2 ** (amped.ell - len(amped.queries[0]))
    payload = json.loads(rep.counterexample)
    assert payload["trial"] == 0 and payload["proof"] == "0" * amped.ell
    assert "amplified acceptance != walk probability" in payload["problems"]


def test_a_subset_at_delta_fails_the_sweep(monkeypatch):
    # Negative control: the sweep's batched walk counts put the 101st subset
    # of size 6 at the least count not below delta = 11/20 of the 16 * 16
    # walks; the sweep must stop there and report it.
    target = next(islice(combinations(range(16), 6), 100, None))
    walk_hit_counts = checks.walk_hit_counts

    def one_subset_at_delta(x, subsets, rho):
        subsets = list(subsets)
        at_delta = -(-11 * x.n * x.d ** (rho - 1) // 20)
        counts = walk_hit_counts(x, subsets, rho)
        return [at_delta if tuple(sorted(s)) == target else c for s, c in zip(subsets, counts)]

    monkeypatch.setattr(checks, "walk_hit_counts", one_subset_at_delta)
    rep = checks.claim_accept(trials=0, seed=0)
    assert not rep.passed
    assert rep.violations == 1
    assert json.loads(rep.counterexample) == {"subset": list(target), "rho": 2}
    assert "101 subsets of size 6 swept" in rep.notes


def test_the_sweep_counts_every_subset_in_one_pass(monkeypatch):
    # With no trials, the only walk counts are the sweep's: all C(16, 6)
    # six-vertex subsets, counted in a single walk_hit_counts call.
    walk_hit_counts = checks.walk_hit_counts
    calls = []

    def recorded(x, subsets, rho):
        calls.append(list(subsets))
        return walk_hit_counts(x, calls[-1], rho)

    monkeypatch.setattr(checks, "walk_hit_counts", recorded)
    rep = checks.claim_accept(trials=0, seed=0)
    assert rep.passed
    assert [len(subsets) for subsets in calls] == [8008]
    assert calls[0] == list(combinations(range(16), 6))
