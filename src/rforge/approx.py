"""The 2-factor approximation for minmax cover reconfiguration.

Insert everything the goal needs, then discard everything the start no
longer needs.  Every intermediate state is a superset of the start cover
or of the goal cover, hence itself a cover, and the peak size is exactly
|start ∪ goal| <= |start| + |goal|, which is at most twice the optimum
plus lower-order terms.  It takes a set-cover or vertex-cover bundle, whose
covers were checked when the bundle was built.
"""

from __future__ import annotations

from .core import BUNDLES, KIND_COVER, KIND_VERTEX_COVER, ReconfigSequence, StructuralError


def two_factor_cover(inst) -> ReconfigSequence:
    """Greedy insert-then-discard reconfiguration between a bundle's two covers.

    Works for set-cover and vertex-cover bundles.  "Any order" is resolved
    to ascending index order so the output is deterministic.
    """
    kind = BUNDLES.get(type(inst), (None, None))[1]
    if kind not in (KIND_COVER, KIND_VERTEX_COVER):
        raise StructuralError("approx expects a set-cover or vertex-cover instance")
    c_start, c_goal = inst.start, inst.goal
    current = set(c_start)
    states = [frozenset(current)]
    for i in sorted(c_goal - c_start):
        current.add(i)
        states.append(frozenset(current))
    for i in sorted(c_start - c_goal):
        current.discard(i)
        states.append(frozenset(current))
    return ReconfigSequence(kind=kind, states=tuple(states))
