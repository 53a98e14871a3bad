"""rforge benchmark: one workload, timed end to end, or per layer when traced.

    python3 perfbench/run.py --workload {pipeline,solve,checks} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root; the package is imported from ``src``.  Set-up
(importing rforge and writing the workload's inputs) runs in fresh
interpreters and is timed as ``setup_s``.  Operations then run one at a
time, each in a forked child with a wall-clock ceiling, in passes over the
workload's fixed operation list until ``--seconds`` is used up.  A failed
operation (ceiling, non-zero exit, budget exhausted, failed correctness
gate) is charged the ceiling in every timing.  Metrics are medians over
passes (``wall_s``, ``peak_rss_mb``), over operation samples (``op_p50_s``,
``op_tail_s``) or over set-ups (``setup_s``).

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run first repeats the untraced passes for half the time,
then wraps rforge's public functions (see ``tracing.py``) and reports
per-layer self times and counts per pass (plus one traced set-up) for the
other half, together with the tracing overhead.  Every operation is
printed as a ``ledger`` line before the result.  ``--smoke`` cuts each
operation list to a few operations and the run to one pass (per half), for
the benchmark's own test.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# Seconds a run may end past --seconds when it starts one more pass.
PASS_SLACK = 1.0


def _import_rforge():
    # One worker thread per numeric library: operations run one at a time.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "rforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rforge package under {src}")
    sys.path.insert(0, str(src))
    import rforge.cli  # noqa: F401


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {exc}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _setup_child(args) -> int:
    """Fresh-interpreter role: import rforge, write inputs, print the time taken."""
    _import_rforge()
    import tracing
    import workloads

    into = Path(args.setup_into)
    into.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.bind(into / "setup_trace.jsonl", f"{args.workload}/setup")
    ops = workloads.build_inputs(args.workload, args.seed, into, smoke=args.smoke)
    elapsed = time.perf_counter() - T_START
    (into / "ops.json").write_text(json.dumps(ops))
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _setup(args, into: Path, repeats: int) -> tuple[list[dict], list[float]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(into),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up of {args.workload} failed")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return json.loads((into / "ops.json").read_text()), times


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------


def _child(argv, opdir: Path, tracer, op_name: str) -> None:
    code = 70
    try:
        out = os.open(opdir / "stdout.txt", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(opdir / "stderr.txt", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(out, 1)
        os.dup2(err, 2)
        if tracer is not None:
            tracer.bind(opdir / "trace.jsonl", op_name)
        from rforge import cli

        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def run_op(argv, opdir: Path, ceiling: float, tracer, op_name: str) -> dict:
    """Run one rforge command in a forked child; kill it at the ceiling."""
    # The child's collector then ignores the parent's heap, as it would in
    # a fresh rforge process, and does not copy its pages on write.
    gc.collect()
    gc.freeze()
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(argv, opdir, tracer, op_name)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], ceiling)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(pidfd)
    killed_at = None
    if not ready:
        os.kill(pid, signal.SIGKILL)
        killed_at = time.perf_counter()
    _, status, usage = os.wait4(pid, 0)
    return {
        "latency": time.perf_counter() - t0,
        "killed_at": killed_at,
        "code": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Run:
    """Every operation of one benchmark run, across passes."""

    def __init__(self, workload: str, ops: list[dict], work: Path):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.ops = ops
        self.work = work
        self.ceiling = workloads.CEILING_S[workload]
        self.input_sha = {op["id"]: workloads.input_digests(op) for op in ops}
        self.stage_sha: dict[str, dict] = {}
        self.records: list[dict] = []

    def run_pass(self, pass_no: int, tracer=None) -> list[dict]:
        import tracing

        records = []
        for op in self.ops:
            opdir = self.work / "ops" / op["id"]
            shutil.rmtree(opdir, ignore_errors=True)
            opdir.mkdir(parents=True)
            argv = [a.replace("{opdir}", str(opdir)) for a in op["argv"]]
            name = f"{self.workload}/{pass_no}/{op['id']}"
            res = run_op(argv, opdir, self.ceiling, tracer, name)
            outcome, detail = self._outcome(op, opdir, res)
            rec = {
                "workload": self.workload,
                "pass": pass_no,
                "op": op["id"],
                "seed": op["seed"],
                "inputs_sha256": self.input_sha[op["id"]],
                "outcome": outcome,
                "latency_s": res["latency"],
                "charged_s": res["latency"] if outcome == "exact" else self.ceiling,
                "rss_mb": res["rss_mb"],
                "traced": tracer is not None,
            }
            if detail:
                rec["detail"] = detail
            if tracer is not None:
                spans = tracing.read_spans(opdir / "trace.jsonl", res["killed_at"])
                rec["layers"] = tracing.layer_totals(spans)
                open_chain = tracing.open_at_kill(spans)
                if open_chain:
                    rec["open_span"] = open_chain
            print("ledger " + json.dumps({k: v for k, v in rec.items() if k != "layers"}))
            records.append(rec)
        self.records += records
        return records

    def _outcome(self, op, opdir, res) -> tuple[str, str]:
        if res["killed_at"] is not None:
            return "ceiling", f"killed after {self.ceiling} s"
        if res["code"] == 3:
            return "budget", "exit 3"
        if res["code"] != 0:
            err = (opdir / "stderr.txt").read_text().strip().splitlines()
            return f"exit-{res['code']}", err[-1][:200] if err else ""
        stdout = (opdir / "stdout.txt").read_text()
        outcome, detail = self.workloads.gate(op, opdir, stdout)
        if outcome == "exact" and op["gate"]["kind"] == "pipeline":
            digests = self.workloads.stage_digests(opdir / "stages")
            first = self.stage_sha.setdefault(op["id"], digests)
            if digests != first:
                changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
                return "wrong", f"stage files differ from the first pass: {changed}"
        return outcome, detail


def run_passes(run: Run, seconds: float, first_pass: int, tracer=None) -> list[list[dict]]:
    """At least one pass; another only if it would end by ``seconds`` plus PASS_SLACK."""
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run.run_pass(first_pass + len(passes), tracer))
        now = time.perf_counter()
        if now - start + (now - t) > seconds + PASS_SLACK:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it, or the maximum.

    Returns (value, percentile, samples above it).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(passes: list[list[dict]], setup_times: list[float]) -> tuple[dict, list[str]]:
    charged = [r["charged_s"] for p in passes for r in p]
    tail_value, tail_pct, above = tail(charged)
    values = {
        "wall_s": statistics.median(sum(r["charged_s"] for r in p) for p in passes),
        "op_p50_s": statistics.median(charged),
        "op_tail_s": tail_value,
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
        "setup_s": statistics.median(setup_times),
    }
    failed = sum(r["outcome"] != "exact" for p in passes for r in p)
    notes = [
        f"op_tail_s is p{tail_pct:.1f} of {len(charged)} operation samples ({above} above it)",
        f"fail_ratio = {failed / len(charged):.6g} ({failed} of {len(charged)} operations failed)",
        f"passes = {len(passes)} of {len(passes[0])} operations; setup_s over {len(setup_times)} set-ups",
    ]
    return values, notes


def per_layer(traced: list[list[dict]], setup_spans: list[dict]) -> dict:
    import tracing

    totals: dict[str, float] = defaultdict(float)
    for rec in (r for p in traced for r in p):
        for key, value in rec["layers"].items():
            totals[key] += value
    totals = defaultdict(float, {key: value / len(traced) for key, value in totals.items()})
    for key, value in tracing.layer_totals(setup_spans).items():
        totals[key] += value
    totals["solve.exact_ratio"] = totals["solve.returned"] / max(totals["solve.started"], 1)
    return totals


def emit(spec_metrics: list[dict], values: dict, records: list[dict], notes: list[str]) -> None:
    metrics = {}
    for m in spec_metrics:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value!r} {m['unit']}")
    for note in notes:
        print(note)
    result = {
        "correct": not any(r["outcome"] == "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r["outcome"] != "exact" for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "solve", "checks"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into:
        return _setup_child(args)

    spec = _spec()
    _import_rforge()
    import tracing

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        ops, setup_times = _setup(args, work / "inputs", repeats)
        run = Run(args.workload, ops, work)
        seconds = 0 if args.smoke else args.seconds
        if not args.trace:
            passes = run_passes(run, seconds, 0)
            values, notes = end_to_end(passes, setup_times)
            emit(spec["end_to_end"], values, run.records, notes)
            return 0
        plain = run_passes(run, seconds / 2, 0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_passes(run, seconds / 2, len(plain), tracer)
        setup_spans = tracing.read_spans(work / "inputs" / "setup_trace.jsonl", None)
        values = per_layer(traced, setup_spans)
        plain_wall = end_to_end(plain, setup_times)[0]["wall_s"]
        traced_wall = end_to_end(traced, setup_times)[0]["wall_s"]
        notes = [f"trace overhead: wall_s traced {traced_wall:.6g} s - untraced {plain_wall:.6g} s "
                 f"= {traced_wall - plain_wall:.6g} s"]
        emit(spec["per_layer"], values, run.records, notes)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass


if __name__ == "__main__":
    sys.exit(main())
