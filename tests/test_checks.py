"""Check-suite harness: registry, summaries, and the negative control."""

import json

import pytest

from rforge import checks
from rforge.core import SetCoverInstance, SetSystem, StructuralError


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


def test_unknown_suite_rejected():
    with pytest.raises(StructuralError, match="unknown suite"):
        checks.run_suite("nope")


def test_run_suite_threads_trials_and_seed():
    rep = checks.run_suite("lemma-setcover", trials=3, seed=9)
    assert rep.trials == 3 and rep.passed


def test_corrupted_gadget_fails_with_counterexample(monkeypatch):
    # negative control: the harness must notice a broken gadget and report
    # the offending instance verbatim
    reduce = checks.labelcover_to_setcover

    def corrupted(g, start, goal):
        inst = reduce(g, start, goal)
        sets = list(inst.system.sets)
        victim = next(i for i, members in enumerate(sets) if members)
        sets[victim] = frozenset(sorted(sets[victim])[1:])
        system = SetSystem(inst.system.elements, tuple(sets), inst.system.set_labels)
        return SetCoverInstance(system, inst.start, inst.goal)

    monkeypatch.setattr(checks, "labelcover_to_setcover", corrupted)
    rep = checks.lemma_setcover(trials=10, seed=4)
    assert not rep.passed
    assert rep.violations == 1
    payload = json.loads(rep.counterexample)
    assert payload["instance"]["type"] == "labelcover_instance"
    assert "FAIL" in rep.summary()


def test_reports_are_deterministic():
    a = checks.run_suite("oracle-agreement", trials=6, seed=12)
    b = checks.run_suite("oracle-agreement", trials=6, seed=12)
    assert a == b
