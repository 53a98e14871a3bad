"""Inputs, operation lists and correctness gates of the three workloads.

An operation is one ``rforge`` command line, run through ``rforge.cli.main``
in a forked child.  ``build_inputs`` writes a workload's input files and
returns its operation list; ``gate`` judges a finished operation from the
files it wrote.

The benchmark seed draws the pipeline's verifiers from a pool of
generator seeds and relabels the generated solve instances.  Solve times
at the solve workload's sizes are heavy-tailed and about 45% of
default-parameter verifiers hang in ``hvc-cost``, so drawing generator
seeds freely would make the timings measure which instances were drawn.
The relabeling (vertex, symbol, set and edge orders; vertex labels only for
hypergraphs) keeps an instance's structure but gives every seed different
input bytes and, except for hypergraphs, a different search order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from pathlib import Path

from rforge import cli, generate, serialize
from rforge.core import (
    BOTTOM,
    ConstraintGraph,
    Hypergraph,
    HvcInstance,
    LabelCoverInstance,
    P2cspInstance,
    SetCoverInstance,
    SetSystem,
    validate_sequence,
)
from rforge.solve import sequence_objective

# Wall-clock ceiling per operation, in seconds.  The README seed-7 pipeline
# hangs in hvc-cost; every other pipeline operation finishes in under 1 s,
# so the ceiling sits more than four times above the slowest one.
CEILING_S = {"pipeline": 4.0, "solve": 10.0, "checks": 10.0}

# Generator seeds of default-parameter verifiers with the README example's
# shape (r=2, so 3,072-element universes and hypergraphs of 35k-43k
# vertices) whose pipeline completed when this benchmark was written: all
# such seeds in 0-89.  Each benchmark seed draws PIPELINE_DRAW of them.
# The other r=2 seeds in 0-89 hang in hvc-cost (2, 3, 7, 17, 19, 23, 24,
# 27, 33, 34, 39, 41, 47, 48, 54, 63, 65, 67, 70, 75, 76, 79, 80, 86, 87),
# the defect the README seed-7 operation carries into every pass.  Drawn,
# each would cost a ceiling per pass and make the timings count hangs.
PIPELINE_POOL = (0, 4, 8, 12, 31, 32, 37, 43, 44, 45, 46, 50, 60, 61, 62, 68, 71, 72, 74, 85, 89)
PIPELINE_DRAW = 12
README_SEED = 7

# Generated solve instances: (problem, generator, sizes, generator seeds).
# Solve times at these sizes are heavy-tailed (0 to several seconds), so
# the seeds are the first four whose solve took 0.05-1 s and explored at
# least 1,000 states when this benchmark was written: the time goes to the
# threshold scan, not to the branch and bound for opt or beta, whose cost
# swings with the vertex order the relabeling draws.  At 8 vertices and 3
# symbols no csp seed in 0-59 takes longer than 0.02 s, so maxpar uses 4
# symbols at density 0.5.
SOLVE_GENERATED = (
    ("maxpar", "csp", {"n_vertices": 8, "alphabet_size": 4, "density": 0.5}, (4, 9, 13, 14)),
    ("minlab", "labelcover", {"n_vertices": 6, "alphabet_size": 5}, (1, 7, 8, 9)),
    ("sc-cost", "setcover", {"n_elements": 60, "n_sets": 26}, (0, 2, 5, 13)),
    ("hvc-cost", "hypergraph", {"n_vertices": 30, "n_edges": 50, "max_edge_size": 4}, (6, 12, 17, 21)),
)

# Seeds per check suite in one pass; more seeds average out how much a
# suite's run time depends on its seed.
CHECK_SEEDS = 5


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _op(op_id, argv, seed, inputs=(), **gate):
    return {"id": op_id, "argv": argv, "seed": seed, "inputs": [str(p) for p in inputs], "gate": gate}


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _relabel_graph(g: ConstraintGraph, rng: random.Random):
    """Permute vertices, symbols and edge order of a binary constraint graph."""
    n, s = g.n_vertices, g.n_symbols
    vp, sp, ep = _perm(rng, n), _perm(rng, s), _perm(rng, len(g.edges))
    vertices, alphabet = [""] * n, [""] * s
    for i in range(n):
        vertices[vp[i]] = g.vertices[i]
    for a in range(s):
        alphabet[sp[a]] = g.alphabet[a]
    edges, tables = [], []
    for e in ep:
        v, w = g.edges[e]
        table = bytearray(s * s)
        for a in range(s):
            for b in range(s):
                table[sp[a] * s + sp[b]] = g.tables[e][a * s + b]
        edges.append((vp[v], vp[w]))
        tables.append(bytes(table))
    admissible = None
    if g.admissible is not None:
        admissible = [frozenset()] * n
        for i in range(n):
            admissible[vp[i]] = frozenset(sp[a] for a in g.admissible[i])
        admissible = tuple(admissible)
    graph = ConstraintGraph(tuple(vertices), 2, tuple(alphabet), tuple(edges), tuple(tables), admissible)

    def state(f, symbol):
        out = [None] * n
        for i in range(n):
            out[vp[i]] = symbol(f[i])
        return tuple(out)

    return graph, state, sp


def relabel_csp(inst: P2cspInstance, rng: random.Random) -> P2cspInstance:
    graph, state, sp = _relabel_graph(inst.graph, rng)
    symbol = lambda a: a if a == BOTTOM else sp[a]
    return P2cspInstance(graph, state(inst.start, symbol), state(inst.goal, symbol))


def relabel_labelcover(inst: LabelCoverInstance, rng: random.Random) -> LabelCoverInstance:
    graph, state, sp = _relabel_graph(inst.graph, rng)
    symbol = lambda labels: frozenset(sp[a] for a in labels)
    return LabelCoverInstance(graph, state(inst.start, symbol), state(inst.goal, symbol))


def relabel_setcover(inst: SetCoverInstance, rng: random.Random) -> SetCoverInstance:
    sys_ = inst.system
    ep, sp = _perm(rng, sys_.n_elements), _perm(rng, sys_.n_sets)
    elements, sets, labels = [""] * sys_.n_elements, [frozenset()] * sys_.n_sets, [""] * sys_.n_sets
    for e in range(sys_.n_elements):
        elements[ep[e]] = sys_.elements[e]
    for i in range(sys_.n_sets):
        sets[sp[i]] = frozenset(ep[e] for e in sys_.sets[i])
        labels[sp[i]] = sys_.set_labels[i]
    system = SetSystem(tuple(elements), tuple(sets), tuple(labels))
    return SetCoverInstance(system, frozenset(sp[i] for i in inst.start), frozenset(sp[i] for i in inst.goal))


def relabel_hypergraph(inst: HvcInstance, rng: random.Random) -> HvcInstance:
    """Permute vertex labels only: reordering vertices or hyperedges swings
    the branch and bound for beta by up to 7x on these instances."""
    h = inst.hypergraph
    vertices = list(h.vertices)
    rng.shuffle(vertices)
    return HvcInstance(Hypergraph(tuple(vertices), h.hyperedges, h.uniformity), inst.start, inst.goal)


# Relabeling per generator kind; the generator is looked up on the module
# at call time, so a traced run sees the call.
_RELABEL = {
    "csp": relabel_csp,
    "labelcover": relabel_labelcover,
    "setcover": relabel_setcover,
    "hypergraph": relabel_hypergraph,
}


# ---------------------------------------------------------------------------
# Inputs and operation lists
# ---------------------------------------------------------------------------


def _quiet_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rforge {' '.join(argv)} exited {code}")


def build_inputs(workload: str, seed: int, into: Path, smoke: bool = False) -> list[dict]:
    """Write the workload's inputs under ``into`` and return its operations."""
    if workload == "pipeline":
        return _pipeline_inputs(seed, into, smoke)
    if workload == "solve":
        return _solve_inputs(seed, into, smoke)
    if workload == "checks":
        return _checks_inputs(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _pipeline_op(op_id, path, seed):
    argv = ["pipeline", "--in", str(path), "--out-dir", "{opdir}/stages", "--no-amplify"]
    return _op(op_id, argv, seed, [path], kind="pipeline")


def _pipeline_inputs(seed, into, smoke):
    drawn = random.Random(derive_seed(seed, "pipeline")).sample(PIPELINE_POOL, 1 if smoke else PIPELINE_DRAW)
    ops = []
    for g in [README_SEED] + sorted(drawn):
        path = into / f"v{g}.json"
        _quiet_cli(["gen", "--kind", "verifier", "--out", str(path), "--seed", str(g)])
        ops.append(_pipeline_op("readme-seed7" if g == README_SEED else f"verifier-{g}", path, g))
    return ops


def _solve_op(op_id, problem, path, seed):
    argv = ["solve", problem, "--in", str(path), "--out", "{opdir}/result.json"]
    return _op(op_id, argv, seed, [path], kind="solve", problem=problem)


def _solve_inputs(seed, into, smoke):
    readme = into / "readme"
    readme.mkdir(exist_ok=True)
    _quiet_cli(["gen", "--kind", "verifier", "--out", str(readme / "00_verifier.json"), "--seed", str(README_SEED)])
    stages = ("00_verifier", "02_fglss", "03_normalized", "04_labelcover", "05_setcover")
    for step, src, dst in zip(("fglss", "normalize", "p2l", "l2sc"), stages, stages[1:]):
        _quiet_cli(["reduce", step, "--in", str(readme / f"{src}.json"), "--out", str(readme / f"{dst}.json")])
    ops = [
        _solve_op(f"readme-{stage}", problem, readme / f"{stage}.json", README_SEED)
        for problem, stage in (("maxpar", "02_fglss"), ("minlab", "04_labelcover"), ("sc-cost", "05_setcover"))
    ]
    for problem, kind, sizes, seeds in SOLVE_GENERATED:
        make = getattr(generate, f"generate_{kind}")
        for g in seeds[:1] if smoke else seeds:
            relabel_seed = derive_seed(seed, kind, g)
            inst = _RELABEL[kind](make(g, **sizes), random.Random(relabel_seed))
            path = into / f"{kind}{g}.json"
            serialize.save(inst, path)
            ops.append(_solve_op(f"{kind}-{g}", problem, path, relabel_seed))
    return ops


def _checks_inputs(seed, smoke):
    from rforge.checks import SUITES

    ops = []
    for suite in SUITES:
        for j in range(1 if smoke else CHECK_SEEDS):
            s = derive_seed(seed, suite, j) % 1_000_000
            ops.append(_op(f"{suite}-{j}", ["check", "--suite", suite, "--seed", str(s)], s, kind="check"))
    return ops


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

_SOLVE_PARTS = {
    P2cspInstance: lambda i: i.graph,
    LabelCoverInstance: lambda i: i.graph,
    SetCoverInstance: lambda i: i.system,
    HvcInstance: lambda i: i.hypergraph,
}


def gate(op: dict, opdir: Path, stdout: str) -> tuple[str, str]:
    """Outcome (``exact``, ``budget`` or ``wrong``) of an operation that exited 0."""
    kind = op["gate"]["kind"]
    if kind == "check":
        return ("exact", "") if stdout.startswith("PASS ") else ("wrong", stdout.strip()[:200])
    if kind == "solve":
        return _gate_solve(op, opdir)
    return _gate_pipeline(opdir / "stages")


def _gate_solve(op, opdir):
    inst = serialize.load(op["inputs"][0])
    res = serialize.load(opdir / "result.json")
    part = _SOLVE_PARTS[type(inst)](inst)
    report = validate_sequence(part, res.witness, start=inst.start, goal=inst.goal)
    if not report.ok:
        return "wrong", f"witness invalid at state {report.index}: {report.reason}"
    objective = sequence_objective(op["gate"]["problem"], part, res.witness)
    if objective != res.value:
        return "wrong", f"witness objective {objective} != reported value {res.value}"
    return "exact", ""


# Report rows that carry a solver value; each must be exact.
_VALUE_ROWS = {("fglss", "maxpar"), ("labelcover", "minlab"), ("setcover", "cost"), ("hvc", "cost")}


def _gate_pipeline(stages: Path):
    report = (stages / "report.md").read_text()
    values = {}
    for line in report.splitlines()[2:]:
        stage, metric, value = (c.strip() for c in line.strip("|").split("|"))
        if (stage, metric) in _VALUE_ROWS:
            if value == "budget-exhausted":
                return "budget", f"{stage} {metric} budget-exhausted"
            values[stage] = value.split(" ")[0]
    if "fglss" not in values or "labelcover" not in values:
        return "wrong", "report lacks the maxpar or minlab row"
    costs = {values[s] for s in ("labelcover", "setcover", "hvc") if s in values}
    if len(costs) > 1:
        return "wrong", f"cost identity broken: {values}"
    return "exact", ""


def stage_digests(stages: Path) -> dict[str, str]:
    """sha256 of every file a pipeline operation wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(stages.iterdir())}


def input_digests(op: dict) -> list[str]:
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in op["inputs"]]
