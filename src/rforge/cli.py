"""Command-line interface.

Subcommands: gen, reduce {fglss,normalize,p2l,l2sc,l2hvc}, solve
{maxpar,minlab,sc-cost,hvc-cost}, approx, amplify, check, pipeline,
report.  Exit codes: 0 success, 1 property violation, 2 usage or
structural error, 3 state budget exhausted.  All randomness derives from
--seed.  ``--cap`` sets the state budget of solve, pipeline and report
(default ``solve.DEFAULT_CAP``); no environment variable is read.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import checks, generate, serialize
from .amplify import ExpanderGraph, amplify, build_expander, choose_rho, degree_report
from .approx import two_factor_cover
from .core import (
    BudgetExhaustedError,
    ConstraintGraph,
    HvcInstance,
    LabelCoverInstance,
    P2cspInstance,
    RforgeError,
    SetCoverInstance,
    StructuralError,
    VerifierInstance,
    normalize_self_loops,
)
from .fglss import build_fglss, embed_proof
from .reductions import labelcover_to_hvc, labelcover_to_setcover, p2csp_to_labelcover
from .solve import (
    DEFAULT_CAP,
    PROBLEM_HVC_COST,
    PROBLEM_MAXPAR,
    PROBLEM_MINLAB,
    PROBLEM_SC_COST,
    SOLVERS,
    min_cover,
    min_vertex_cover,
    sequence_objective,
    solve_instance,
)
from .verifier import accept_prob


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text}") from exc


def _int_at_least(low: int, name: str):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"not a {name} integer: {text}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_cap = _int_at_least(0, "non-negative")


def _fmt_value(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator} (~{float(value):.6f})"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _graph_shape(a) -> dict:
    return {"n_vertices": a.vertices, "alphabet_size": a.alphabet, "density": a.density}


_GENERATORS = {
    "csp": lambda a: generate.generate_csp(a.seed, **_graph_shape(a)),
    "labelcover": lambda a: generate.generate_labelcover(a.seed, **_graph_shape(a)),
    "setcover": lambda a: generate.generate_setcover(a.seed, n_elements=a.elements, n_sets=a.sets),
    "hypergraph": lambda a: generate.generate_hypergraph(
        a.seed, n_vertices=a.vertices, n_edges=a.edges, max_edge_size=a.max_edge_size
    ),
    "verifier": lambda a: generate.generate_verifier(a.seed, **_graph_shape(a)),
}


def _cmd_gen(args) -> int:
    serialize.save(_GENERATORS[args.kind](args), args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def _proved(inst: VerifierInstance) -> VerifierInstance:
    """``inst``, refused unless it carries both proofs."""
    if inst.start is None or inst.goal is None:
        raise StructuralError("verifier file carries no start/goal proofs")
    return inst


def _fglss_instance(inst: VerifierInstance) -> P2cspInstance:
    v = _proved(inst).verifier
    return P2cspInstance(build_fglss(v), embed_proof(v, inst.start), embed_proof(v, inst.goal))


def _normalized(obj):
    if isinstance(obj, ConstraintGraph):
        return normalize_self_loops(obj)
    return P2cspInstance(normalize_self_loops(obj.graph), obj.start, obj.goal)


class _Step(NamedTuple):
    """A reduction: the input types it accepts, named in its type error, the reduction and its stage file."""

    accepts: tuple[type, ...]
    expects: str
    reduce: Callable
    stage_file: str


# Traced functions are called through this module's globals, never stored,
# so a call goes through their current binding; ``main`` likewise looks up
# ``_cmd_<command>`` by name on every call.
_STEPS = {
    "fglss": _Step((VerifierInstance,), "a verifier file", _fglss_instance, "02_fglss.json"),
    "normalize": _Step(
        (ConstraintGraph, P2cspInstance), "a constraint graph or assignment instance", _normalized,
        "03_normalized.json",
    ),
    "p2l": _Step(
        (P2cspInstance,), "a partial-assignment instance",
        lambda inst: p2csp_to_labelcover(inst), "04_labelcover.json",
    ),
    "l2sc": _Step(
        (LabelCoverInstance,), "a label-cover instance",
        lambda inst: labelcover_to_setcover(inst), "05_setcover.json",
    ),
    "l2hvc": _Step(
        (LabelCoverInstance,), "a label-cover instance",
        lambda inst: labelcover_to_hvc(inst), "06_hvc.json",
    ),
}


def _cmd_reduce(args) -> int:
    step = _STEPS[args.step]
    obj = serialize.load(getattr(args, "in"))
    if not isinstance(obj, step.accepts):
        raise StructuralError(f"{args.step} expects {step.expects}")
    serialize.save(step.reduce(obj), args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# solve / approx
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    res = solve_instance(args.problem, serialize.load(getattr(args, "in")), cap=args.cap)
    if args.out:
        serialize.save(res, args.out)
        print(f"wrote {args.out}")
    print(f"value = {_fmt_value(res.value)}; states explored = {res.states_explored}")
    return 0


def _cmd_approx(args) -> int:
    obj = serialize.load(getattr(args, "in"))
    seq = two_factor_cover(obj)
    problem = next(p for p in (PROBLEM_SC_COST, PROBLEM_HVC_COST) if isinstance(obj, SOLVERS[p].bundle))
    cost = sequence_objective(problem, getattr(obj, SOLVERS[problem].part), seq)
    if args.out:
        serialize.save(seq, args.out)
        print(f"wrote {args.out}")
    print(f"peak = {max(len(c) for c in seq.states)}; cost = {_fmt_value(cost)}")
    return 0


# ---------------------------------------------------------------------------
# amplify
# ---------------------------------------------------------------------------


def _resolve_rho(args, default: int | None = None) -> int:
    """--rho, else the rho that --eps and --delta call for, else ``default``."""
    if args.rho is not None:
        return args.rho
    if args.eps is None and args.delta is None and default is not None:
        return default
    if args.eps is None or args.delta is None:
        raise StructuralError("give either --rho or both --eps and --delta")
    return choose_rho(args.eps, args.delta)


def _cmd_amplify(args) -> int:
    inst = serialize.load_verifier(getattr(args, "in"))
    rho = _resolve_rho(args)
    x = build_expander(inst.verifier.n_entries, args.expander_d, args.target_ratio, args.seed)
    amped = amplify(inst.verifier, x, rho)
    serialize.save(VerifierInstance(amped, inst.start, inst.goal), args.out)
    if args.expander_out:
        serialize.save(x, args.expander_out)
        print(f"wrote {args.expander_out}")
    rep = degree_report(amped)
    print(
        f"wrote {args.out} (rho={rho}, ratio={x.ratio:.6f}, "
        f"r={amped.r}, q={amped.q}, max degree={rep.max_degree})"
    )
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    report = checks.run_suite(args.suite, trials=args.trials, seed=args.seed)
    print(report.summary())
    if report.counterexample:
        print(f"counterexample: {report.counterexample}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# pipeline / report
# ---------------------------------------------------------------------------


# Most random bits (r) and queries (q) of a verifier the pipeline accepts.
PIPELINE_MAX_R = 4
PIPELINE_MAX_Q = 3


def _solve_or_note(problem: str, inst, cap, **known):
    try:
        return _fmt_value(solve_instance(problem, inst, cap=cap, **known).value)
    except BudgetExhaustedError:
        return "budget-exhausted"


def _verifier_rows(label: str, inst: VerifierInstance, cap: int):
    v = inst.verifier
    rep = degree_report(v)
    yield label, "r/q/ell", f"{v.r}/{v.q}/{v.ell}"
    yield label, "max-degree", str(rep.max_degree)
    if label == "verifier":
        yield label, "regular", str(rep.regular)
    for end, proof in (("start", inst.start), ("goal", inst.goal)):
        if proof is not None:
            yield label, f"accept({end})", str(accept_prob(v, proof))


def _fglss_rows(inst: P2cspInstance, cap: int):
    g = inst.graph
    yield "fglss", "vertices/edges/alphabet", f"{g.n_vertices}/{len(g.edges)}/{g.n_symbols}"
    yield "fglss", "maxpar", _solve_or_note(PROBLEM_MAXPAR, inst, cap)


def _normalized_rows(inst: P2cspInstance, cap: int):
    g = inst.graph
    adm = sum(len(a) for a in g.admissible) if g.admissible else g.n_vertices * g.n_symbols
    yield "normalized", "vertices/edges/admissible", f"{g.n_vertices}/{len(g.edges)}/{adm}"


def _labelcover_rows(inst: LabelCoverInstance, cap: int):
    yield "labelcover", "minlab", _solve_or_note(PROBLEM_MINLAB, inst, cap)


def _setcover_rows(inst: SetCoverInstance, cap: int):
    yield "setcover", "universe/sets", f"{inst.system.n_elements}/{inst.system.n_sets}"
    opt = min_cover(inst.system)
    yield "setcover", "opt", str(opt)
    yield "setcover", "cost", _solve_or_note(PROBLEM_SC_COST, inst, cap, opt=opt)


def _hvc_rows(inst: HvcInstance, cap: int):
    h = inst.hypergraph
    yield "hvc", "vertices/hyperedges/uniformity", f"{h.n_vertices}/{len(h.hyperedges)}/{h.uniformity}"
    beta = min_vertex_cover(h)
    yield "hvc", "beta", str(beta)
    yield "hvc", "cost", _solve_or_note(PROBLEM_HVC_COST, inst, cap, opt=beta)


# Every file a pipeline run can write into --out-dir besides its report, in
# pipeline order: the type the file holds, and its report rows as a function
# of what it holds and the state budget.  The row functions call traced
# functions through this module's globals.
_STAGES = {
    "00_verifier.json": (VerifierInstance, partial(_verifier_rows, "verifier")),
    "01_expander.json": (ExpanderGraph, lambda x, cap: ()),
    "01_amplified_verifier.json": (VerifierInstance, partial(_verifier_rows, "amplified")),
    "02_fglss.json": (P2cspInstance, _fglss_rows),
    "03_normalized.json": (P2cspInstance, _normalized_rows),
    "04_labelcover.json": (LabelCoverInstance, _labelcover_rows),
    "05_setcover.json": (SetCoverInstance, _setcover_rows),
    "06_hvc.json": (HvcInstance, _hvc_rows),
}


def _pipeline_rows(stages: dict, cap: int) -> list[tuple[str, str, str]]:
    """Report rows of the stages in a {stage file: what it holds} dict."""
    return [row for name, (_, rows) in _STAGES.items() if name in stages for row in rows(stages[name], cap)]


def _render_report(rows, fmt: str) -> str:
    if fmt == "json":
        return serialize.canonical_dumps([{"stage": s, "metric": m, "value": v} for s, m, v in rows]).decode()
    csv = fmt == "csv"
    head = "stage,metric,value" if csv else "| stage | metric | value |\n| --- | --- | --- |"
    row = "{},{},{}" if csv else "| {} | {} | {} |"
    return "\n".join([head, *(row.format(*r) for r in rows)]) + "\n"


def _cmd_pipeline(args) -> int:
    proved = _proved(serialize.load_verifier(getattr(args, "in")))
    v = proved.verifier
    if v.r > PIPELINE_MAX_R or v.q > PIPELINE_MAX_Q:
        raise StructuralError(
            f"verifier too large for the pipeline (r={v.r} q={v.q}, "
            f"ceilings r<={PIPELINE_MAX_R} q<={PIPELINE_MAX_Q})"
        )
    out_dir = Path(args.out_dir)
    with serialize.writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        # ``report --dir`` reads every stage file present, so none may be
        # left from an earlier run into the same directory.
        for name in _STAGES:
            (out_dir / name).unlink(missing_ok=True)
    stages = {}

    def stage(step: str, name: str, fn):
        """Run ``step``, write what it made to stage file ``name`` and keep it."""
        try:
            made = fn()
        except RforgeError as exc:
            raise type(exc)(f"[stage {step}] {exc}") from exc
        serialize.save(made, out_dir / name)
        stages[name] = made
        return made

    inst = stage("verifier", "00_verifier.json", lambda: proved)
    if not args.no_amplify:
        rho = _resolve_rho(args, default=2)
        x = stage(
            "amplify", "01_expander.json",
            lambda: build_expander(v.n_entries, args.expander_d, args.target_ratio, args.seed),
        )
        inst = stage(
            "amplify", "01_amplified_verifier.json",
            lambda: VerifierInstance(amplify(v, x, rho), proved.start, proved.goal),
        )
    for step in ("fglss", "normalize", "p2l"):
        inst = stage(step, _STEPS[step].stage_file, lambda: _STEPS[step].reduce(inst))
    if inst.graph.n_symbols <= args.max_gadget_alphabet:
        sc = stage("l2sc", _STEPS["l2sc"].stage_file, lambda: _STEPS["l2sc"].reduce(inst))
        # The hypergraph is the padded transpose of the set-cover stage in hand.
        stage(
            "l2hvc", _STEPS["l2hvc"].stage_file,
            lambda: labelcover_to_hvc(inst, setcover=sc),
        )
    else:
        alphabet = inst.graph.n_symbols
        print(f"skipping cover stages: alphabet {alphabet} exceeds --max-gadget-alphabet {args.max_gadget_alphabet}")
    report = _render_report(_pipeline_rows(stages, args.cap), args.format)
    report_path = out_dir / f"report.{args.format}"
    with serialize.writing(report_path):
        report_path.write_text(report)
    print(report, end="")
    print(f"wrote {report_path}")
    return 0


def _load_stage(path: Path, holds: type):
    """What stage file ``path`` holds, refused unless it is a ``holds``."""
    try:
        made = serialize.load(path)
    except StructuralError as exc:
        raise StructuralError(f"{path}: {exc}") from exc
    if not isinstance(made, holds):
        raise StructuralError(f"{path}: expected a {serialize.TAGS[holds]} file, got {serialize.TAGS[type(made)]!r}")
    return made


def _cmd_report(args) -> int:
    paths = {name: Path(args.dir) / name for name in _STAGES}
    stages = {name: _load_stage(path, _STAGES[name][0]) for name, path in paths.items() if path.exists()}
    rows = _pipeline_rows(stages, args.cap)
    if not rows:
        raise StructuralError(f"no pipeline stage files in {args.dir}")
    sys.stdout.write(_render_report(rows, args.format))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_amplify_args(p: argparse.ArgumentParser) -> None:
    """The options of ``amplify`` that ``pipeline`` shares."""
    p.add_argument("--rho", type=_positive_int, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--expander-d", type=int, default=4)
    p.add_argument("--target-ratio", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rforge",
        description="Reconfiguration instances, exact bottleneck solvers, and gap-preserving reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--kind", required=True, choices=list(_GENERATORS))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=3)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--density", type=float, default=0.8)
    p.add_argument("--elements", type=int, default=5)
    p.add_argument("--sets", type=int, default=5)
    p.add_argument("--edges", type=int, default=4)
    p.add_argument("--max-edge-size", type=int, default=3)

    p = sub.add_parser("reduce", help="run one reduction step")
    p.add_argument("step", choices=list(_STEPS))
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("problem", choices=list(SOLVERS))
    p.add_argument("--in", required=True)
    p.add_argument("--out")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)

    p = sub.add_parser("approx", help="2-factor cover reconfiguration")
    p.add_argument("--in", required=True)
    p.add_argument("--out")

    p = sub.add_parser("amplify", help="expander-walk acceptance amplification")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    _add_amplify_args(p)
    p.add_argument("--expander-out")

    p = sub.add_parser("check", help="run a property-check suite")
    p.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pipeline", help="stage every reduction from a verifier file")
    p.add_argument("--in", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--no-amplify", action="store_true")
    _add_amplify_args(p)
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.add_argument("--max-gadget-alphabet", type=int, default=12)
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")

    p = sub.add_parser("report", help="regenerate a pipeline report from its directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except RforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
