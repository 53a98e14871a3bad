"""Generator determinism and feasibility certificates."""

from rforge import serialize
from rforge.core import is_cover, is_vertex_cover, satisfies_multi, satisfies_partial
from rforge.generate import (
    generate_csp,
    generate_hypergraph,
    generate_labelcover,
    generate_setcover,
    generate_verifier,
    generate_verifier_with_accepted_pair,
)
from rforge.verifier import accept_prob


def test_same_seed_same_bytes():
    a = serialize.dump_bytes(generate_csp(17))
    b = serialize.dump_bytes(generate_csp(17))
    assert a == b
    assert a != serialize.dump_bytes(generate_csp(18))


def test_csp_endpoints_satisfy():
    for seed in range(8):
        inst = generate_csp(seed, n_vertices=3, alphabet_size=3, density=0.6)
        assert satisfies_partial(inst.graph, inst.start)
        assert satisfies_partial(inst.graph, inst.goal)


def test_density_zero_is_edgeless():
    inst = generate_csp(1, density=0.0)
    assert inst.graph.edges == ()


def test_ensure_incident_covers_every_vertex():
    inst = generate_csp(2, n_vertices=4, density=0.1, ensure_incident=True)
    touched = {v for e in inst.graph.edges for v in e}
    assert touched == set(range(4))


def test_labelcover_endpoints_satisfy():
    for seed in range(8):
        inst = generate_labelcover(seed, n_vertices=3, alphabet_size=2)
        assert satisfies_multi(inst.graph, inst.start)
        assert satisfies_multi(inst.graph, inst.goal)


def test_setcover_endpoints_cover():
    for seed in range(8):
        inst = generate_setcover(seed)
        assert is_cover(inst.system, inst.start)
        assert is_cover(inst.system, inst.goal)


def test_hypergraph_endpoints_cover():
    for seed in range(8):
        inst = generate_hypergraph(seed)
        assert is_vertex_cover(inst.hypergraph, inst.start)
        assert is_vertex_cover(inst.hypergraph, inst.goal)


def test_verifier_start_proof_fully_accepted():
    for seed in range(5):
        inst = generate_verifier(seed)
        assert accept_prob(inst.verifier, inst.start) == 1
        assert accept_prob(inst.verifier, inst.goal) == 1


def test_accepted_pair_is_adjacent_and_accepted():
    for seed in range(8):
        inst = generate_verifier_with_accepted_pair(seed)
        v, start, goal = inst.verifier, inst.start, inst.goal
        assert sum(a != b for a, b in zip(start, goal)) == 1
        assert accept_prob(v, start) == 1
        assert accept_prob(v, goal) == 1
