"""Acceptance suite: one test per criterion, each at its stated scale.

Every test prints a single PASS/FAIL line (run pytest with -s to see them
all); tolerances are zero everywhere, since all compared quantities are
exact rationals or exact counts.
"""

from rforge import checks, serialize
from rforge.cli import main as cli_main
from rforge.core import TableVerifier, VerifierInstance


def _report(criterion: str, rep) -> None:
    print(f"{'PASS' if rep.passed else 'FAIL'} {criterion}: {rep.summary()}")
    if not rep.passed and rep.counterexample:
        print(f"  counterexample: {rep.counterexample}")
    assert rep.passed


def test_criterion_1_gadget_coverage_equivalence():
    # >= 200 seeded instances, |V| <= 3, |Sigma| <= 3, asymmetric tables
    # included; exhaustive over all subfamilies per instance.
    rep = checks.lemma_setcover(trials=200, seed=101)
    _report("criterion-1 coverage equivalence", rep)


def test_criterion_2_cost_equality_setcover():
    # exact rational equality on >= 50 reduced instances, 1e5-state budget
    rep = checks.cost_equality_sc(trials=50, seed=102)
    _report("criterion-2 cost equality (set cover)", rep)


def test_criterion_3_cost_equality_hypergraph_vc():
    rep = checks.cost_equality_hvc(trials=50, seed=103)
    _report("criterion-3 cost equality (hypergraph vertex cover)", rep)


def test_criterion_4_lift_completeness():
    # >= 30 instances with full-assignment optimum exactly 1: the lifted
    # instance solves to exactly 1 and the half-step witness validates.
    rep = checks.lift_completeness(trials=30, seed=104)
    _report("criterion-4 singleton-lift completeness", rep)


def test_criterion_5_walkthrough_completeness(tmp_path):
    # >= 10 toy verifiers with probability-1 adjacent proof pairs.
    rep = checks.fglss_completeness(trials=10, seed=105)
    _report("criterion-5a constraint-graph completeness", rep)
    # End-to-end: the staged pipeline of an always-accepting verifier with a
    # known 1-bit step reports cost exactly 1 at every stage.
    v = TableVerifier(
        r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([1, 1]), bytes([1, 1]))
    )
    ver = tmp_path / "v.json"
    serialize.save(VerifierInstance(v, "0", "1"), ver)
    out_dir = tmp_path / "stages"
    code = cli_main(
        ["pipeline", "--in", str(ver), "--out-dir", str(out_dir), "--no-amplify"]
    )
    assert code == 0
    report = (out_dir / "report.md").read_text()
    ok = all(
        marker in report
        for marker in (
            "| fglss | maxpar | 1/1",
            "| labelcover | minlab | 1/1",
            "| setcover | cost | 1/1",
            "| hvc | cost | 1/1",
        )
    )
    print(f"{'PASS' if ok else 'FAIL'} criterion-5b end-to-end pipeline cost 1 at every stage")
    assert ok


def test_criterion_6_decoding_soundness_machinery():
    # Exhaustive over all satisfying partial assignments of toy graphs
    # (up to 8 vertices, q <= 2): decoded-proof acceptance per assigned
    # entry, the subset-chain law, the acceptance floor, and the
    # interpolation dip bound with exact per-position probabilities.
    rep = checks.fglss_popularity(trials=6, seed=106)
    _report("criterion-6 decoding laws (exhaustive)", rep)


def test_criterion_7_walk_sandwich():
    # rho <= 4, n <= 64, estimated lambda; exact walk probabilities inside
    # the sandwich bounds, zero violations.
    rep = checks.expander_bounds(trials=12, seed=107)
    _report("criterion-7 expander walk sandwich", rep)


def test_criterion_8_amplification_both_directions():
    # lambda/d = 1/8 < eps/4 exactly, rho from the ceiling formula; exact
    # enumeration of all proofs plus the full largest-subset sweep.
    rep = checks.claim_accept(trials=2, seed=108)
    _report("criterion-8 amplification directions", rep)


def test_criterion_9_two_factor_approximation():
    # peak identity holds unconditionally; ratio <= 2 wherever the exact
    # solver completes.
    rep = checks.approx_ratio(trials=60, seed=109)
    _report("criterion-9 2-factor approximation", rep)


def test_criterion_10_oracle_agreement():
    # threshold solvers equal the materialized bottleneck oracle on
    # instances with <= 20 feasible states, exact equality.
    rep = checks.oracle_agreement(trials=40, seed=110)
    _report("criterion-10 oracle agreement", rep)
