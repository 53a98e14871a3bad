"""The 2-factor approximation for minmax cover reconfiguration.

Insert everything the goal needs, then discard everything the start no
longer needs.  Every intermediate state is a superset of the start cover
or of the goal cover, hence itself a cover, and the peak size is exactly
|start ∪ goal| <= |start| + |goal|, which is at most twice the optimum
plus lower-order terms.
"""

from __future__ import annotations

from .core import KINDS, KIND_COVER, KIND_VERTEX_COVER, ReconfigSequence, StructuralError


def two_factor_cover(instance, c_start, c_goal) -> ReconfigSequence:
    """Greedy insert-then-discard reconfiguration between two covers.

    Works for set systems (covers) and hypergraphs (vertex covers).  "Any
    order" is resolved to ascending index order so the output is
    deterministic.
    """
    c_start, c_goal = frozenset(c_start), frozenset(c_goal)
    kind = next(
        (k for k in (KIND_COVER, KIND_VERTEX_COVER) if isinstance(instance, KINDS[k].instance_type)),
        None,
    )
    if kind is None:
        raise StructuralError(f"expected a set system or hypergraph, got {type(instance).__name__}")
    feasible = KINDS[kind].feasible
    if not feasible(instance, c_start) or not feasible(instance, c_goal):
        raise StructuralError("infeasible endpoints")
    current = set(c_start)
    states = [frozenset(current)]
    for i in sorted(c_goal - c_start):
        current.add(i)
        states.append(frozenset(current))
    for i in sorted(c_start - c_goal):
        current.discard(i)
        states.append(frozenset(current))
    return ReconfigSequence(kind=kind, states=tuple(states))
