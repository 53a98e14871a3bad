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
from pathlib import Path
from typing import Callable, NamedTuple

from . import checks, generate, serialize
from .amplify import amplify, build_expander, choose_rho, degree_report
from .approx import two_factor_cover
from .core import (
    BudgetExhaustedError,
    ConstraintGraph,
    LabelCoverInstance,
    P2cspInstance,
    RforgeError,
    StructuralError,
    normalize_self_loops,
)
from .fglss import build_fglss, embed_proof
from .reductions import (
    labelcover_to_hvc,
    labelcover_to_setcover,
    p2csp_to_labelcover,
)
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


# Generator of each --kind; a verifier comes with its start and goal proofs.
_GENERATORS = {
    "csp": lambda a: generate.generate_csp(
        a.seed, n_vertices=a.vertices, alphabet_size=a.alphabet, density=a.density
    ),
    "labelcover": lambda a: generate.generate_labelcover(
        a.seed, n_vertices=a.vertices, alphabet_size=a.alphabet, density=a.density
    ),
    "setcover": lambda a: generate.generate_setcover(a.seed, n_elements=a.elements, n_sets=a.sets),
    "hypergraph": lambda a: generate.generate_hypergraph(
        a.seed, n_vertices=a.vertices, n_edges=a.edges, max_edge_size=a.max_edge_size
    ),
    "verifier": lambda a: generate.generate_verifier(
        a.seed, n_vertices=a.vertices, alphabet_size=a.alphabet, density=a.density
    ),
}


def _cmd_gen(args) -> int:
    made = _GENERATORS[args.kind](args)
    if isinstance(made, tuple):
        v, pi_start, pi_goal = made
        serialize.save(v, args.out, pi_start=pi_start, pi_goal=pi_goal)
    else:
        serialize.save(made, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def _proved_verifier(path):
    v, pi_start, pi_goal = serialize.load_verifier(path)
    if pi_start is None or pi_goal is None:
        raise StructuralError("verifier file carries no start/goal proofs")
    return v, pi_start, pi_goal


def _fglss_instance(proved) -> P2cspInstance:
    v, pi_start, pi_goal = proved
    return P2cspInstance(build_fglss(v), embed_proof(v, pi_start), embed_proof(v, pi_goal))


def _normalized(obj):
    if isinstance(obj, ConstraintGraph):
        return normalize_self_loops(obj)
    return P2cspInstance(normalize_self_loops(obj.graph), obj.start, obj.goal)


def _lifted(inst: P2cspInstance) -> LabelCoverInstance:
    if inst.graph.has_self_loops():
        raise StructuralError("p2l needs a loop-free graph; run reduce normalize first")
    return p2csp_to_labelcover(inst.graph, inst.start, inst.goal)


class _Step(NamedTuple):
    """A reduction: the input types it accepts, named in its type error,
    the reduction, its pipeline stage file, and how ``reduce`` reads its input."""

    accepts: tuple[type, ...]
    expects: str
    reduce: Callable
    stage_file: str
    load: Callable = lambda path: serialize.load(path)


# Traced functions are called through this module's globals, never stored,
# so a call goes through their current binding.  ``fglss`` takes a
# (verifier, pi_start, pi_goal) tuple.
_STEPS = {
    "fglss": _Step((tuple,), "a verifier file", _fglss_instance, "02_fglss.json", _proved_verifier),
    "normalize": _Step(
        (ConstraintGraph, P2cspInstance), "a constraint graph or assignment instance", _normalized,
        "03_normalized.json",
    ),
    "p2l": _Step((P2cspInstance,), "a partial-assignment instance", _lifted, "04_labelcover.json"),
    "l2sc": _Step(
        (LabelCoverInstance,), "a label-cover instance",
        lambda inst: labelcover_to_setcover(inst.graph, inst.start, inst.goal), "05_setcover.json",
    ),
    "l2hvc": _Step(
        (LabelCoverInstance,), "a label-cover instance",
        lambda inst: labelcover_to_hvc(inst.graph, inst.start, inst.goal), "06_hvc.json",
    ),
}


def _cmd_reduce(args) -> int:
    step = _STEPS[args.step]
    obj = step.load(getattr(args, "in"))
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
    problem = next(
        (p for p in (PROBLEM_SC_COST, PROBLEM_HVC_COST) if isinstance(obj, SOLVERS[p].bundle)), None
    )
    if problem is None:
        raise StructuralError("approx expects a set-cover or vertex-cover instance")
    instance = getattr(obj, SOLVERS[problem].part)
    seq = two_factor_cover(instance, obj.start, obj.goal)
    cost = sequence_objective(problem, instance, seq)
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
    v, pi_start, pi_goal = serialize.load_verifier(getattr(args, "in"))
    rho = _resolve_rho(args)
    x = build_expander(v.n_entries, args.expander_d, args.target_ratio, args.seed)
    amped = amplify(v, x, rho)
    serialize.save(amped, args.out, pi_start=pi_start, pi_goal=pi_goal)
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


def _pipeline_rows(out_dir: Path, cap: int) -> list[tuple[str, str, str]]:
    """Recompute the report rows from the staged files (deterministic)."""
    rows: list[tuple[str, str, str]] = []

    def staged(name: str):
        path = out_dir / name
        return serialize.load(path) if path.exists() else None

    for name, label in (("00_verifier.json", "verifier"), ("01_amplified_verifier.json", "amplified")):
        if not (out_dir / name).exists():
            continue
        v, pi_start, pi_goal = serialize.load_verifier(out_dir / name)
        rep = degree_report(v)
        rows.append((label, "r/q/ell", f"{v.r}/{v.q}/{v.ell}"))
        rows.append((label, "max-degree", str(rep.max_degree)))
        if label == "verifier":
            rows.append((label, "regular", str(rep.regular)))
        for end, proof in (("start", pi_start), ("goal", pi_goal)):
            if proof is not None:
                rows.append((label, f"accept({end})", str(accept_prob(v, proof))))
    inst = staged("02_fglss.json")
    if inst is not None:
        g = inst.graph
        rows.append(("fglss", "vertices/edges/alphabet", f"{g.n_vertices}/{len(g.edges)}/{g.n_symbols}"))
        rows.append(("fglss", "maxpar", _solve_or_note(PROBLEM_MAXPAR, inst, cap)))
    inst = staged("03_normalized.json")
    if inst is not None:
        g = inst.graph
        adm = sum(len(a) for a in g.admissible) if g.admissible else g.n_vertices * g.n_symbols
        rows.append(("normalized", "vertices/edges/admissible", f"{g.n_vertices}/{len(g.edges)}/{adm}"))
    inst = staged("04_labelcover.json")
    if inst is not None:
        rows.append(("labelcover", "minlab", _solve_or_note(PROBLEM_MINLAB, inst, cap)))
    inst = staged("05_setcover.json")
    if inst is not None:
        rows.append(("setcover", "universe/sets", f"{inst.system.n_elements}/{inst.system.n_sets}"))
        opt = min_cover(inst.system)
        rows.append(("setcover", "opt", str(opt)))
        rows.append(("setcover", "cost", _solve_or_note(PROBLEM_SC_COST, inst, cap, opt=opt)))
    inst = staged("06_hvc.json")
    if inst is not None:
        h = inst.hypergraph
        rows.append(("hvc", "vertices/hyperedges/uniformity", f"{h.n_vertices}/{len(h.hyperedges)}/{h.uniformity}"))
        beta = min_vertex_cover(h)
        rows.append(("hvc", "beta", str(beta)))
        rows.append(("hvc", "cost", _solve_or_note(PROBLEM_HVC_COST, inst, cap, opt=beta)))
    return rows


def _render_report(rows, fmt: str) -> str:
    if fmt == "json":
        payload = [{"stage": s, "metric": m, "value": v} for s, m, v in rows]
        return serialize.canonical_dumps(payload).decode()
    if fmt == "csv":
        lines = ["stage,metric,value"]
        lines += [f"{s},{m},{v}" for s, m, v in rows]
        return "\n".join(lines) + "\n"
    lines = ["| stage | metric | value |", "| --- | --- | --- |"]
    lines += [f"| {s} | {m} | {v} |" for s, m, v in rows]
    return "\n".join(lines) + "\n"


class _StageError(RforgeError):
    """Wraps a stage failure so the report names the failing stage."""

    def __init__(self, stage: str, cause: RforgeError):
        super().__init__(f"[stage {stage}] {cause}")
        self.exit_code = cause.exit_code


def _stage(name: str, fn, path: Path, **proofs):
    """Run stage ``name`` and write what it made to ``path``."""
    try:
        made = fn()
    except RforgeError as exc:
        raise _StageError(name, exc) from exc
    serialize.save(made, path, **proofs)
    return made


# Every file a pipeline run can write into --out-dir besides its report.
_STAGE_FILES = ("00_verifier.json", "01_expander.json", "01_amplified_verifier.json") + tuple(
    step.stage_file for step in _STEPS.values()
)


def _cmd_pipeline(args) -> int:
    v, pi_start, pi_goal = _proved_verifier(getattr(args, "in"))
    if v.r > PIPELINE_MAX_R or v.q > PIPELINE_MAX_Q:
        raise StructuralError(
            f"verifier too large for the pipeline (r={v.r} q={v.q}, "
            f"ceilings r<={PIPELINE_MAX_R} q<={PIPELINE_MAX_Q})"
        )
    out_dir = Path(args.out_dir)
    with serialize.writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        # The report reads every stage file present, so none may be left
        # from an earlier run into the same directory.
        for name in _STAGE_FILES:
            (out_dir / name).unlink(missing_ok=True)
    serialize.save(v, out_dir / "00_verifier.json", pi_start=pi_start, pi_goal=pi_goal)
    work = v
    if not args.no_amplify:
        rho = _resolve_rho(args, default=2)
        x = _stage(
            "amplify",
            lambda: build_expander(v.n_entries, args.expander_d, args.target_ratio, args.seed),
            out_dir / "01_expander.json",
        )
        work = _stage(
            "amplify", lambda: amplify(v, x, rho), out_dir / "01_amplified_verifier.json",
            pi_start=pi_start, pi_goal=pi_goal,
        )
    inst = (work, pi_start, pi_goal)
    for name in ("fglss", "normalize", "p2l"):
        inst = _stage(name, lambda: _STEPS[name].reduce(inst), out_dir / _STEPS[name].stage_file)
    if inst.graph.n_symbols <= args.max_gadget_alphabet:
        for name in ("l2sc", "l2hvc"):
            _stage(name, lambda: _STEPS[name].reduce(inst), out_dir / _STEPS[name].stage_file)
    else:
        print(
            f"skipping cover stages: alphabet {inst.graph.n_symbols} exceeds "
            f"--max-gadget-alphabet {args.max_gadget_alphabet}"
        )
    rows = _pipeline_rows(out_dir, args.cap)
    report = _render_report(rows, args.format)
    report_path = out_dir / f"report.{args.format}"
    with serialize.writing(report_path):
        report_path.write_text(report)
    print(report, end="")
    print(f"wrote {report_path}")
    return 0


def _cmd_report(args) -> int:
    rows = _pipeline_rows(Path(args.dir), args.cap)
    if not rows:
        raise StructuralError(f"no pipeline stage files in {args.dir}")
    sys.stdout.write(_render_report(rows, args.format))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="run one reduction step")
    p.add_argument("step", choices=list(_STEPS))
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("problem", choices=list(SOLVERS))
    p.add_argument("--in", required=True)
    p.add_argument("--out")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("approx", help="2-factor cover reconfiguration")
    p.add_argument("--in", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("amplify", help="expander-walk acceptance amplification")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--expander-d", type=int, default=4)
    p.add_argument("--target-ratio", type=float, default=0.9)
    p.add_argument("--expander-out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_amplify)

    p = sub.add_parser("check", help="run a property-check suite")
    p.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("pipeline", help="stage every reduction from a verifier file")
    p.add_argument("--in", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--no-amplify", action="store_true")
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--expander-d", type=int, default=4)
    p.add_argument("--target-ratio", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.add_argument("--max-gadget-alphabet", type=int, default=12)
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="regenerate a pipeline report from its directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
