"""Command-line interface: files, chains, pipeline, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rforge
from rforge import checks, cli, serialize, solve
from rforge.checks import CheckReport
from rforge.cli import main
from rforge.core import (
    HvcInstance,
    LabelCoverInstance,
    P2cspInstance,
    SetCoverInstance,
    StructuralError,
    TableVerifier,
    VerifierInstance,
)
from rforge.generate import generate_csp, generate_hypergraph, generate_labelcover, generate_setcover

# One small instance bundle per solve problem, of the type that problem takes.
BUNDLE_OF_PROBLEM = {
    "maxpar": generate_csp,
    "minlab": generate_labelcover,
    "sc-cost": generate_setcover,
    "hvc-cost": generate_hypergraph,
}


def run(*argv):
    return main([str(a) for a in argv])


def run_bounded(*argv, seconds=60, script=None):
    """Run the CLI (or ``script`` with argv) in a child process killed after ``seconds``."""
    src = str(Path(rforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    head = ["-m", "rforge.cli"] if script is None else ["-c", script]
    argv = [sys.executable, *head, *map(str, argv)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=seconds, env=env)


def toy_verifier_file(path):
    """Always-accepting one-position checker with a 1-bit start/goal step."""
    v = TableVerifier(
        r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([1, 1]), bytes([1, 1]))
    )
    serialize.save(VerifierInstance(v, "0", "1"), path)
    return path


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "--kind", "csp", "--out", a, "--seed", 5) == 0
        assert run("gen", "--kind", "csp", "--out", b, "--seed", 5) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_density_zero_edgeless(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("gen", "--kind", "csp", "--out", out, "--seed", 1, "--density", 0) == 0
        inst = serialize.load(out)
        assert isinstance(inst, P2cspInstance) and inst.graph.edges == ()

    def test_density_one_is_complete(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("gen", "--kind", "csp", "--out", out, "--seed", 1, "--vertices", 4, "--density", 1) == 0
        assert len(serialize.load(out).graph.edges) == 6

    @pytest.mark.parametrize("density", ["nan", "2", "-0.1"])
    def test_density_outside_the_unit_interval_is_refused(self, tmp_path, capsys, density):
        out = tmp_path / "c.json"
        assert run("gen", "--kind", "csp", "--out", out, "--seed", 1, "--density", density) == 2
        assert "density must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("accept_p", [float("nan"), 1.5, -0.1])
    def test_accept_p_outside_the_unit_interval_is_refused(self, accept_p):
        with pytest.raises(StructuralError, match="accept_p must lie in"):
            generate_csp(1, accept_p=accept_p)

    @pytest.mark.parametrize("kind", ["labelcover", "setcover", "hypergraph", "verifier"])
    def test_all_kinds(self, tmp_path, kind):
        out = tmp_path / f"{kind}.json"
        assert run("gen", "--kind", kind, "--out", out, "--seed", 2) == 0
        assert out.exists()

    def test_generated_verifier_accepts_start(self, tmp_path):
        out = tmp_path / "v.json"
        assert run("gen", "--kind", "verifier", "--out", out, "--seed", 3) == 0
        from rforge.verifier import accept_prob

        inst = serialize.load_verifier(out)
        assert accept_prob(inst.verifier, inst.start) == 1

    # sha256 of each file.  The csp, labelcover and verifier files were
    # captured while assignments still came from a filtered product of all
    # s^n of them: the pruned search must list the same assignments in the
    # same order, or the endpoint draws change.  The setcover and hypergraph
    # files, the solve benchmark's inputs, were captured while each
    # generator had its own greedy cover routine.
    PINNED = {
        "csp-8x4-4": (["csp", 4, "--vertices", 8, "--alphabet", 4, "--density", 0.5],
                      "5c33dd3a34f224f51a434b7f6e95cd4e2b75237baf1b678d8aa8bf82bf0fd6a8"),
        "csp-8x4-9": (["csp", 9, "--vertices", 8, "--alphabet", 4, "--density", 0.5],
                      "389efec5e9526952b791ce6b129b309125b5bd51cac49a3ccad1722f0695a360"),
        "csp-8x4-13": (["csp", 13, "--vertices", 8, "--alphabet", 4, "--density", 0.5],
                       "8d181bc495cea8b059f86154a410bd4ec9d455a036057febd66f0f8ce91e306e"),
        "csp-8x4-14": (["csp", 14, "--vertices", 8, "--alphabet", 4, "--density", 0.5],
                       "e0655ed5eb78a481f79438bc720f90f7765970347899021cc0bb7beca8555940"),
        "labelcover-6x5-1": (["labelcover", 1, "--vertices", 6, "--alphabet", 5],
                             "3b6a99d529258b9b30d24ec4e6e3ad708b2772ae73c7ae064f1c7316be9f2895"),
        "labelcover-6x5-7": (["labelcover", 7, "--vertices", 6, "--alphabet", 5],
                             "7ac733ce1dd26bd03172339c73778d145f59459f6f4aa568e6b50d7f39ef7272"),
        "labelcover-6x5-8": (["labelcover", 8, "--vertices", 6, "--alphabet", 5],
                             "7a64db966fa8c72089f23f4b1bfc86d9aabaa88410a1cca95dc8ef682c350f4b"),
        "labelcover-6x5-9": (["labelcover", 9, "--vertices", 6, "--alphabet", 5],
                             "301bf1e7d13cc2a3aafe546b43d4dea0dea489df19dbee0a93daaa07514636c5"),
        "readme-csp": (["csp", 7, "--vertices", 3, "--alphabet", 2, "--density", 0.8],
                       "64cdda1ded8497a85d6bbcfa87cbe39161c8a2efea9a52ee0e6ad087fdd3a9c2"),
        "readme-verifier": (["verifier", 7],
                            "85ae7ecbd4b1a289d8455155d2db0a52d3f033bbe7b79280df4433da4072a39c"),
        "setcover-60x26-0": (["setcover", 0, "--elements", 60, "--sets", 26],
                             "c5af747627694f5d93592dc22da17c880bddfa3886f76d616a1d147b560c04ae"),
        "setcover-60x26-2": (["setcover", 2, "--elements", 60, "--sets", 26],
                             "9d684417e446c069c5c1a5ac1a9afcccb5d6ac8ddadc81d961a48076f5bc3360"),
        "setcover-60x26-5": (["setcover", 5, "--elements", 60, "--sets", 26],
                             "7714311226fa8beb289b6d8fdc07e7206882f12d83dac2d22ee260af39101b16"),
        "setcover-60x26-13": (["setcover", 13, "--elements", 60, "--sets", 26],
                              "5c4991092eb45b65f0aa8ec0fd6c0c4d57c105c9d715b9ed22ff490784427d73"),
        "hypergraph-30x50x4-6": (["hypergraph", 6, "--vertices", 30, "--edges", 50, "--max-edge-size", 4],
                                 "8809ce141e61eea7f07e9570bf537e5a586cd8127f7d4dfbe34dd5f207c49e3d"),
        "hypergraph-30x50x4-12": (["hypergraph", 12, "--vertices", 30, "--edges", 50, "--max-edge-size", 4],
                                  "7896d8304b9e2027d12bbd25ba42c3333a67c139bab594a07f6565f5be06ce55"),
        "hypergraph-30x50x4-17": (["hypergraph", 17, "--vertices", 30, "--edges", 50, "--max-edge-size", 4],
                                  "55dbbd16b7837e8fd3adfd10b9657f5ef22a8286276fe97753a142b185fe7d44"),
        "hypergraph-30x50x4-21": (["hypergraph", 21, "--vertices", 30, "--edges", 50, "--max-edge-size", 4],
                                  "bce3f280d947c930f908302b8258ced9fb9f4b68dd232cdbab784b1340207b9f"),
    }

    @pytest.mark.parametrize("argv, sha", PINNED.values(), ids=PINNED.keys())
    def test_gen_bytes_are_pinned(self, tmp_path, argv, sha):
        kind, seed, *sizes = argv
        out = tmp_path / "out.json"
        assert run("gen", "--kind", kind, "--out", out, "--seed", seed, *sizes) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    def test_too_large_to_enumerate_exits_2(self, tmp_path, capsys):
        # 4^10 satisfying assignments: the search exceeds its node budget
        out = tmp_path / "big.json"
        argv = ["gen", "--kind", "csp", "--vertices", 10, "--alphabet", 4, "--density", 0, "--out", out]
        assert run(*argv) == 2
        assert "too large to enumerate" in capsys.readouterr().err
        assert not out.exists()

    def test_thousand_vertex_csp_is_written(self, tmp_path):
        # one satisfying assignment, found 1,200 vertices deep
        out = tmp_path / "csp.json"
        argv = ["gen", "--kind", "csp", "--vertices", 1200, "--alphabet", 1, "--density", 0, "--out", out]
        assert run(*argv) == 0
        inst = serialize.load(out)
        assert inst.graph.n_vertices == 1200 and inst.start == inst.goal == (0,) * 1200

    def test_pruned_search_enumerates_past_the_raw_space(self, tmp_path):
        # 4^9 raw assignments, but the pruned search visits few nodes
        out = tmp_path / "csp.json"
        assert run("gen", "--kind", "csp", "--vertices", 9, "--alphabet", 4, "--out", out) == 0
        inst = serialize.load(out)
        assert isinstance(inst, P2cspInstance) and inst.graph.n_vertices == 9


class TestReduceChain:
    def test_full_chain_and_solves(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        fglss = tmp_path / "fglss.json"
        norm = tmp_path / "norm.json"
        lc = tmp_path / "lc.json"
        sc = tmp_path / "sc.json"
        hvc = tmp_path / "hvc.json"
        assert run("reduce", "fglss", "--in", ver, "--out", fglss) == 0
        assert run("reduce", "normalize", "--in", fglss, "--out", norm) == 0
        assert run("reduce", "p2l", "--in", norm, "--out", lc) == 0
        assert run("reduce", "l2sc", "--in", lc, "--out", sc) == 0
        assert run("reduce", "l2hvc", "--in", lc, "--out", hvc) == 0
        assert isinstance(serialize.load(lc), LabelCoverInstance)
        assert isinstance(serialize.load(sc), SetCoverInstance)
        assert isinstance(serialize.load(hvc), HvcInstance)
        res = tmp_path / "res.json"
        assert run("solve", "maxpar", "--in", fglss, "--out", res) == 0
        assert str(serialize.load(res).value) == "1"
        assert run("solve", "minlab", "--in", lc, "--out", res) == 0
        assert str(serialize.load(res).value) == "1"
        assert run("solve", "sc-cost", "--in", sc, "--out", res) == 0
        assert str(serialize.load(res).value) == "1"
        assert run("solve", "hvc-cost", "--in", hvc, "--out", res) == 0
        assert str(serialize.load(res).value) == "1"
        seq = tmp_path / "seq.json"
        assert run("approx", "--in", sc, "--out", seq) == 0

    @pytest.mark.parametrize(
        "step, message",
        [
            ("fglss", "fglss expects a verifier file"),
            ("normalize", "normalize expects a constraint graph or assignment instance"),
            ("p2l", "p2l expects a partial-assignment instance"),
            ("l2sc", "l2sc expects a label-cover instance"),
            ("l2hvc", "l2hvc expects a label-cover instance"),
        ],
    )
    def test_wrong_input_exits_2(self, tmp_path, capsys, step, message):
        # fglss reads a p2csp file, the others a set-cover file
        src = tmp_path / "in.json"
        if step == "fglss":
            serialize.save(generate_csp(0), src)
        else:
            serialize.save(generate_setcover(0), src)
        capsys.readouterr()
        assert run("reduce", step, "--in", src, "--out", tmp_path / "out.json") == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_p2l_requires_loop_free(self, tmp_path, capsys):
        ver = toy_verifier_file(tmp_path / "v.json")
        fglss = tmp_path / "fglss.json"
        run("reduce", "fglss", "--in", ver, "--out", fglss)
        capsys.readouterr()
        assert run("reduce", "p2l", "--in", fglss, "--out", tmp_path / "x.json") == 2
        # The label-cover bundle refuses the looped graph when it tests its start.
        assert capsys.readouterr().err == (
            "error: start: multi-assignment semantics is undefined on self-loops; apply normalize_self_loops first\n"
        )
        assert not (tmp_path / "x.json").exists()

    def test_cap_exhaustion_exits_3(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        fglss = tmp_path / "fglss.json"
        run("reduce", "fglss", "--in", ver, "--out", fglss)
        assert run("solve", "maxpar", "--in", fglss, "--cap", 1) == 3


class TestCap:
    """A state budget that is not a non-negative integer is a usage error, as
    a bad --trials is: argparse exits 2 before any work."""

    BAD = ("-1", "abc", "1.5")

    def assert_refused(self, capsys, *argv, caps=BAD):
        capsys.readouterr()
        for cap in caps:
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--cap", cap)
            assert exc.value.code == 2
            assert "argument --cap: not a" in capsys.readouterr().err

    # Each case is one bad budget, given as command-line text or as a number.
    @pytest.mark.parametrize("text, number", [("abc", None), ("-1", None), ("1.5", None), (None, -5)])
    def test_bad_cap_on_solve_exits_2(self, tmp_path, capsys, text, number):
        fglss = tmp_path / "fglss.json"
        run("reduce", "fglss", "--in", toy_verifier_file(tmp_path / "v.json"), "--out", fglss)
        cap = text if text is not None else number
        self.assert_refused(capsys, "solve", "maxpar", "--in", fglss, caps=(cap,))

    @pytest.mark.parametrize("text, number", [("abc", None), (None, -1)])
    def test_bad_cap_on_pipeline_exits_2_before_writing(self, tmp_path, capsys, text, number):
        ver = toy_verifier_file(tmp_path / "v.json")
        cap = text if text is not None else number
        argv = ("pipeline", "--in", ver, "--out-dir", tmp_path / "s", "--no-amplify")
        self.assert_refused(capsys, *argv, caps=(cap,))
        assert not (tmp_path / "s").exists()

    def test_bad_cap_on_report_exits_2(self, tmp_path, capsys):
        ver = toy_verifier_file(tmp_path / "v.json")
        assert run("pipeline", "--in", ver, "--out-dir", tmp_path / "s", "--no-amplify") == 0
        self.assert_refused(capsys, "report", "--dir", tmp_path / "s")

    def test_cap_zero_is_a_valid_budget(self, tmp_path, capsys):
        # Zero states admit only equal endpoints.
        inst = generate_csp(1)
        path = tmp_path / "same.json"
        serialize.save(P2cspInstance(inst.graph, inst.start, inst.start), path)
        assert run("solve", "maxpar", "--in", path, "--cap", 0) == 0
        assert "states explored = 0" in capsys.readouterr().out
        fglss = tmp_path / "fglss.json"
        run("reduce", "fglss", "--in", toy_verifier_file(tmp_path / "v.json"), "--out", fglss)
        capsys.readouterr()
        assert run("solve", "maxpar", "--in", fglss, "--cap", 0) == 3
        assert "visited more than 0 states (raise --cap)" in capsys.readouterr().err


class TestSolveInput:
    @pytest.mark.parametrize(
        "problem, given",
        [(p, q) for p in BUNDLE_OF_PROBLEM for q in BUNDLE_OF_PROBLEM if p != q],
    )
    def test_wrong_bundle_type_exits_2(self, tmp_path, problem, given):
        path = tmp_path / "in.json"
        serialize.save(BUNDLE_OF_PROBLEM[given](1), path)
        assert run("solve", problem, "--in", path) == 2

    @pytest.mark.parametrize("data", [b'{"type":"set_system"}', b"[1]", b"nope"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "in.json"
        path.write_bytes(data)
        assert run("solve", "maxpar", "--in", path) == 2
        assert "malformed input" in capsys.readouterr().err


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "sc-cost", "--in", "{missing}"],
            ["approx", "--in", "{missing}"],
            ["amplify", "--in", "{missing}", "--out", "{tmp}/x.json", "--rho", "2"],
            ["reduce", "fglss", "--in", "{missing}", "--out", "{tmp}/x.json"],
            ["pipeline", "--in", "{tmp}", "--out-dir", "{tmp}/stages"],
        ],
    )
    def test_missing_file_or_directory_exits_2(self, tmp_path, capsys, argv):
        fill = {"missing": tmp_path / "nonexistent.json", "tmp": tmp_path}
        assert run(*(a.format(**fill) for a in argv)) == 2
        assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "csp", "--out", "{nodir}/x.json"],
            ["reduce", "normalize", "--in", "{csp}", "--out", "{nodir}/x.json"],
            ["solve", "maxpar", "--in", "{csp}", "--out", "{nodir}/x.json"],
            ["approx", "--in", "{sc}", "--out", "{nodir}/x.json"],
            ["amplify", "--in", "{ver}", "--out", "{nodir}/x.json", "--rho", "2"],
            ["amplify", "--in", "{ver}", "--out", "{tmp}/a.json", "--rho", "2", "--expander-out", "{nodir}/x.json"],
            ["pipeline", "--in", "{ver}", "--out-dir", "{csp}"],
        ],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        fill = {
            "nodir": tmp_path / "nonexistent",
            "tmp": tmp_path,
            "csp": tmp_path / "csp.json",
            "sc": tmp_path / "sc.json",
            "ver": toy_verifier_file(tmp_path / "v.json"),
        }
        serialize.save(generate_csp(1), fill["csp"])
        serialize.save(generate_setcover(1), fill["sc"])
        assert run(*(a.format(**fill) for a in argv)) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out_flag", [(["reduce", "fglss"], "--out"), (["pipeline"], "--out-dir")])
    @pytest.mark.parametrize("proof", [5, ["0"]])
    def test_non_string_proof_exits_2(self, tmp_path, capsys, command, out_flag, proof):
        ver = toy_verifier_file(tmp_path / "v.json")
        obj = json.loads(ver.read_bytes())
        ver.write_text(json.dumps({**obj, "pi_start": proof}))
        assert run(*command, "--in", ver, out_flag, tmp_path / "out") == 2
        assert "expected a string, got" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {**serialize.payload(generate_setcover(1)), "start": "0"},
            {"type": "sequence", "kind": "cover", "states": ["01", "1"]},
        ],
        ids=["setcover-start", "sequence"],
    )
    def test_string_cover_state_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert run("solve", "sc-cost", "--in", path) == 2
        assert "a cover state must be a list, got str" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, command",
        [
            (
                {"type": "hvc_instance", "start": [True, 0], "goal": [0],
                 "hypergraph": {"type": "hypergraph", "vertices": ["a", "b"], "hyperedges": [[0, 1]]}},
                ["solve", "hvc-cost"],
            ),
            (
                {"type": "setcover_instance", "start": [1], "goal": [0],
                 "system": {"type": "set_system", "elements": ["u", "v"], "set_labels": ["s", "t"],
                            "sets": [[0, True], [0, 1]]}},
                ["solve", "sc-cost"],
            ),
            (
                {"type": "constraint_graph", "vertices": ["x", "y"], "arity": 2, "alphabet": ["a"],
                 "edges": [[True, 0]], "tables": [[1]]},
                ["reduce", "normalize"],
            ),
        ],
        ids=["cover-state", "setcover-set", "graph-edge"],
    )
    def test_boolean_index_exits_2(self, tmp_path, capsys, data, command):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert run(*command, "--in", path, "--out", tmp_path / "out.json") == 2
        assert "expected an integer, got a boolean" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def readme_stages(self, tmp_path_factory):
        """The README example's stage files: verifier seed 7, ``pipeline --no-amplify``."""
        out_dir = tmp_path_factory.mktemp("readme") / "stages"
        ver = out_dir.parent / "v7.json"
        assert run("gen", "--kind", "verifier", "--seed", 7, "--out", ver) == 0
        assert run("pipeline", "--in", ver, "--out-dir", out_dir, "--no-amplify") == 0
        return out_dir

    @staticmethod
    def edited(src, dst, path, value):
        """``src`` with the field at ``path`` set to ``value``, written to ``dst``."""
        obj = json.loads(src.read_bytes())
        field = obj
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = value
        dst.write_text(json.dumps(obj))
        return dst

    @pytest.mark.parametrize(
        "stage, path, value, command",
        [
            ("02_fglss.json", ["start", 0], "x", ["solve", "maxpar"]),
            ("04_labelcover.json", ["start", 0, 0], None, ["solve", "minlab"]),
            ("05_setcover.json", ["system", "sets", 0, 0], 1.5, ["solve", "sc-cost"]),
            ("02_fglss.json", ["graph", "edges", 0, 0], 1.5, ["solve", "maxpar"]),
            ("00_verifier.json", ["entries", 0, "queries", 0], 1.5, ["reduce", "fglss"]),
        ],
        ids=["partial-start", "multi-start", "set-member", "edge-end", "verifier-query"],
    )
    def test_non_integer_index_exits_2(self, tmp_path, readme_stages, stage, path, value, command):
        bad = self.edited(readme_stages / stage, tmp_path / "in.json", path, value)
        done = run_bounded(*command, "--in", bad, "--out", tmp_path / "out.json")
        assert done.returncode == 2
        assert "error: expected an integer, got" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "command, out_flag",
        [(["reduce", "fglss"], "--out"), (["amplify", "--rho", 2], "--out"), (["pipeline"], "--out-dir")],
        ids=["reduce", "amplify", "pipeline"],
    )
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (["pi_start"], "222", "proof must be a 0/1 string"),
            (["pi_goal"], "0101", "proof length 4 != 3"),
            (["entries", 0, "R"], 99, "verifier entry indices R must be 0 to 3, each once"),
        ],
        ids=["proof-222", "proof-length", "entry-99"],
    )
    def test_malformed_verifier_exits_2_before_writing(
        self, tmp_path, capsys, readme_stages, command, out_flag, path, value, message
    ):
        bad = self.edited(readme_stages / "00_verifier.json", tmp_path / "v.json", path, value)
        out = tmp_path / "out"
        assert run(*command, "--in", bad, out_flag, out) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def rejected_goal(self, tmp_path, readme_stages):
        """The README verifier with its goal proof set to "001", which one entry rejects."""
        return self.edited(readme_stages / "00_verifier.json", tmp_path / "v.json", ["pi_goal"], "001")

    def test_rejected_goal_proof_stops_reduce_fglss(self, tmp_path, capsys, rejected_goal):
        out = tmp_path / "fglss.json"
        assert run("reduce", "fglss", "--in", rejected_goal, "--out", out) == 2
        assert "error: goal is not a feasible partial-assignment of its graph" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_goal_proof_stops_the_pipeline_at_fglss(self, tmp_path, capsys, rejected_goal):
        stages = tmp_path / "stages"
        assert run("pipeline", "--in", rejected_goal, "--out-dir", stages, "--no-amplify") == 2
        assert "error: [stage fglss] goal is not a feasible" in capsys.readouterr().err
        assert [p.name for p in stages.iterdir()] == ["00_verifier.json"]

    def test_ternary_constraint_graph_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(
            {"type": "constraint_graph", "vertices": ["x", "y", "z"], "arity": 3, "alphabet": ["a"],
             "edges": [[0, 1, 2]], "tables": [[1]]}
        ))
        assert run("reduce", "normalize", "--in", path, "--out", tmp_path / "out.json") == 2
        assert "only binary constraint graphs are supported, got arity 3" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("where", ["nonexistent", "empty"])
    def test_report_without_stage_files_exits_2(self, tmp_path, capsys, where):
        (tmp_path / "empty").mkdir()
        assert run("report", "--dir", tmp_path / where) == 2
        assert "no pipeline stage files" in capsys.readouterr().err


class TestAmplifyCommand:
    def test_amplify_runs_and_chains(self, tmp_path):
        ver = tmp_path / "v.json"
        v = TableVerifier(
            r=2,
            q=1,
            ell=2,
            queries=((0,), (1,), (0,), (1,)),
            tables=(bytes([1, 1]),) * 4,
        )
        serialize.save(VerifierInstance(v, "00", "01"), ver)
        out = tmp_path / "amp.json"
        assert (
            run(
                "amplify",
                "--in", ver,
                "--out", out,
                "--rho", 2,
                "--expander-d", 4,
                "--target-ratio", 0.99,
                "--seed", 1,
            )
            == 0
        )
        amped = serialize.load_verifier(out)
        assert amped.verifier.r == 4 and amped.start == "00" and amped.goal == "01"

    def test_rho_via_eps_delta(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        out = tmp_path / "amp.json"
        code = run(
            "amplify",
            "--in", ver,
            "--out", out,
            "--eps", "1/2",
            "--delta", "1/2",
            "--expander-d", 4,
            "--target-ratio", 1.5,
            "--seed", 0,
        )
        assert code == 0
        amped = serialize.load_verifier(out).verifier
        assert amped.r == 1 + 2 * 2  # rho = 3, so two 2-bit port choices

    def test_start_up_and_amplify_need_no_numpy(self, tmp_path):
        # numpy once took most of every command's start-up; nothing may
        # import it again, at start-up or lazily inside amplify.
        ver, out = tmp_path / "v.json", tmp_path / "amp.json"
        assert run("gen", "--kind", "verifier", "--out", ver, "--seed", 7) == 0
        script = (
            "import sys\n"
            "import rforge.cli\n"
            "assert 'numpy' not in sys.modules, 'importing rforge.cli loaded numpy'\n"
            "sys.modules['numpy'] = None\n"
            "sys.exit(rforge.cli.main(sys.argv[1:]))\n"
        )
        done = run_bounded(
            "amplify", "--in", ver, "--out", out, "--eps", "3/5", "--delta", "11/20",
            "--expander-d", 4, "--target-ratio", 0.9, "--seed", 1,
            script=script,
        )
        assert done.returncode == 0, done.stderr
        assert "rho=2, ratio=0.500000, r=4" in done.stdout

    def test_missing_rho_spec_is_usage_error(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        assert run("amplify", "--in", ver, "--out", tmp_path / "x.json") == 2

    def test_randomness_ceiling_exits_2_at_once(self, tmp_path):
        # rho = 28 would enumerate 2^55 entries
        ver = toy_verifier_file(tmp_path / "v.json")
        out = tmp_path / "amp.json"
        done = run_bounded("amplify", "--in", ver, "--out", out, "--eps", "1/3", "--delta", "1/100")
        assert done.returncode == 2
        assert "amplified verifier needs r=55 random bits, ceiling is 18" in done.stderr
        assert not out.exists()


class TestCheckCommand:
    def test_passing_suite_exits_0(self, capsys):
        assert run("check", "--suite", "oracle-agreement", "--trials", 4, "--seed", 1) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            checks,
            "run_suite",
            lambda *a, **k: CheckReport("stub", False, 1, 1, counterexample="{}"),
        )
        assert run("check", "--suite", "lemma-setcover", "--trials", 1) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexample" in out

    @pytest.mark.parametrize("trials", ["-3", "0", "two"])
    def test_trials_must_be_a_positive_int(self, trials):
        with pytest.raises(SystemExit) as exc:
            run("check", "--suite", "lemma-setcover", "--trials", trials)
        assert exc.value.code == 2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("check", "--suite", "nope")
        assert exc.value.code == 2


class TestDispatch:
    COMMANDS = ("gen", "reduce", "solve", "approx", "amplify", "check", "pipeline", "report")

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k)
        )
        for seed in (1, 2):
            assert run("gen", "--kind", "csp", "--out", tmp_path / f"{seed}.json", "--seed", seed) == 0
        assert built == []

    def test_command_is_looked_up_by_name(self, monkeypatch):
        """A function swapped into the module, as a tracer does, is the one
        called; options left out of one call keep their defaults."""
        calls = []
        monkeypatch.setattr(cli, "_cmd_solve", lambda args: calls.append(args) or 0)
        assert run("solve", "maxpar", "--in", "a.json", "--cap", 5) == 0
        assert run("solve", "minlab", "--in", "b.json") == 0
        assert [(a.problem, getattr(a, "in"), a.cap) for a in calls] == [
            ("maxpar", "a.json", 5), ("minlab", "b.json", solve.DEFAULT_CAP)
        ]

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(self.COMMANDS) + "}" in out
        for command in self.COMMANDS:
            assert f"\n    {command} " in out
            assert callable(getattr(cli, f"_cmd_{command}"))


class TestPipeline:
    def test_no_amplify_end_to_end_cost_one(self, tmp_path, capsys):
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        assert run("pipeline", "--in", ver, "--out-dir", out_dir, "--no-amplify") == 0
        report = (out_dir / "report.md").read_text()
        assert "| fglss | maxpar | 1/1" in report
        assert "| labelcover | minlab | 1/1" in report
        assert "| setcover | cost | 1/1" in report
        assert "| hvc | cost | 1/1" in report

    def test_opt_and_beta_are_computed_once(self, tmp_path, monkeypatch, capsys):
        calls = {"min_cover": 0, "min_vertex_cover": 0}
        for name in calls:
            original = getattr(solve, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(solve, name, counted)
            monkeypatch.setattr(cli, name, counted)
        ver = toy_verifier_file(tmp_path / "v.json")
        assert run("pipeline", "--in", ver, "--out-dir", tmp_path / "out", "--no-amplify") == 0
        assert calls == {"min_cover": 1, "min_vertex_cover": 1}

    def test_no_amplify_matches_direct_fglss(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        run("pipeline", "--in", ver, "--out-dir", out_dir, "--no-amplify")
        direct = tmp_path / "direct.json"
        run("reduce", "fglss", "--in", ver, "--out", direct)
        assert (out_dir / "02_fglss.json").read_bytes() == direct.read_bytes()
        assert not (out_dir / "01_amplified_verifier.json").exists()

    def test_amplified_pipeline_stages(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        code = run(
            "pipeline",
            "--in", ver,
            "--out-dir", out_dir,
            "--rho", 2,
            "--expander-d", 4,
            "--target-ratio", 1.5,
            "--seed", 2,
            # walking pairs of entries blows the state spaces up; cap the
            # solves and skip the cover stages (alphabet 3 > 2)
            "--cap", 15000,
            "--max-gadget-alphabet", 2,
        )
        assert code == 0
        assert (out_dir / "01_amplified_verifier.json").exists()
        assert not (out_dir / "05_setcover.json").exists()
        report = (out_dir / "report.md").read_text()
        assert "| amplified | accept(start) | 1 |" in report
        assert "| fglss | maxpar | 1/1" in report
        assert "| labelcover | minlab | 1/1" in report

    AMPLIFIED = ("--rho", 2, "--cap", 1000)  # skips the cover stages: alphabet 27 > 12
    UNAMPLIFIED = ("--no-amplify",)

    @pytest.mark.parametrize(
        "first, second",
        [(AMPLIFIED, UNAMPLIFIED), (UNAMPLIFIED, AMPLIFIED)],
        ids=["amplified-first", "unamplified-first"],
    )
    def test_rerun_into_a_used_directory_leaves_no_stale_stage(self, tmp_path, capsys, first, second):
        ver = tmp_path / "v7.json"
        assert run("gen", "--kind", "verifier", "--seed", 7, "--out", ver) == 0
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert run("pipeline", "--in", ver, "--out-dir", fresh, *second) == 0
        assert run("pipeline", "--in", ver, "--out-dir", reused, *first) == 0
        (reused / "notes.txt").write_text("not a stage file")
        assert run("pipeline", "--in", ver, "--out-dir", reused, *second) == 0
        assert sorted(p.name for p in reused.iterdir()) == sorted([p.name for p in fresh.iterdir()] + ["notes.txt"])
        for path in fresh.iterdir():
            assert (reused / path.name).read_bytes() == path.read_bytes()

    def test_eps_delta_choose_rho(self, tmp_path):
        # choose_rho(1, 1/3) = ceil(2 ln 3) = 3, so two 2-bit port choices
        ver = toy_verifier_file(tmp_path / "v.json")
        small = ["--cap", 100, "--max-gadget-alphabet", 2]
        assert run("pipeline", "--in", ver, "--out-dir", tmp_path / "eps", "--eps", 1, "--delta", "1/3", *small) == 0
        assert run("pipeline", "--in", ver, "--out-dir", tmp_path / "rho", "--rho", 3, *small) == 0
        amped = (tmp_path / "eps" / "01_amplified_verifier.json").read_bytes()
        assert amped == (tmp_path / "rho" / "01_amplified_verifier.json").read_bytes()
        assert serialize.load_verifier(tmp_path / "eps" / "01_amplified_verifier.json").verifier.r == 5

    def test_randomness_ceiling_carries_the_stage_name(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        done = run_bounded("pipeline", "--in", ver, "--out-dir", tmp_path / "s", "--rho", 28)
        assert done.returncode == 2
        assert "error: [stage amplify] amplified verifier needs r=55 random bits" in done.stderr
        assert not (tmp_path / "s" / "01_amplified_verifier.json").exists()

    @pytest.mark.parametrize("rho", ["0", "-1"])
    @pytest.mark.parametrize(
        "command, out_flag",
        [(["pipeline"], "--out-dir"), (["amplify", "--expander-out", "{out}/x.json"], "--out")],
        ids=["pipeline", "amplify"],
    )
    def test_rho_must_be_a_positive_int_before_any_work(self, tmp_path, capsys, command, out_flag, rho):
        ver = toy_verifier_file(tmp_path / "v.json")
        out = tmp_path / "out"
        out.mkdir()
        argv = [arg.format(out=out) for arg in command]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--in", ver, out_flag, out / "stages", "--rho", rho)
        assert exc.value.code == 2
        assert "argument --rho: not a" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, fmt",
        [
            (("--no-amplify",), "md"),
            (("--rho", 2, "--cap", 1000), "md"),
            (("--no-amplify",), "csv"),
            (("--no-amplify",), "json"),
        ],
        ids=["no-amplify", "amplified", "csv", "json"],
    )
    def test_report_regenerates_byte_identically(self, tmp_path, capsys, flags, fmt):
        # The pipeline builds its report from the stages in memory, report
        # from the stage files: the two must agree byte for byte.
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        assert run("pipeline", "--in", ver, "--out-dir", out_dir, *flags, "--format", fmt) == 0
        capsys.readouterr()
        cap = flags[flags.index("--cap"):] if "--cap" in flags else ()
        assert run("report", "--dir", out_dir, *cap, "--format", fmt) == 0
        regenerated = capsys.readouterr().out
        assert regenerated.encode() == (out_dir / f"report.{fmt}").read_bytes()

    @pytest.mark.parametrize("flags", [("--no-amplify",), ("--rho", 2, "--cap", 1000)], ids=["no-amplify", "amplified"])
    def test_pipeline_reads_back_no_stage_file(self, tmp_path, monkeypatch, capsys, flags):
        loaded = []
        for name in ("load", "load_verifier"):
            original = getattr(serialize, name)

            def recorded(path, original=original):
                loaded.append(Path(path))
                return original(path)

            monkeypatch.setattr(serialize, name, recorded)
        ver = toy_verifier_file(tmp_path / "v.json")
        assert run("pipeline", "--in", ver, "--out-dir", tmp_path / "stages", *flags) == 0
        assert loaded == [ver]

    # Each stage file, the type it holds, and a stage file of another type
    # to put in its place.
    WRONG_TYPE = [
        ("00_verifier.json", "verifier", "06_hvc.json"),
        ("01_expander.json", "expander", "02_fglss.json"),
        ("01_amplified_verifier.json", "verifier", "05_setcover.json"),
        ("02_fglss.json", "p2csp_instance", "05_setcover.json"),
        ("03_normalized.json", "p2csp_instance", "05_setcover.json"),
        ("04_labelcover.json", "labelcover_instance", "02_fglss.json"),
        ("05_setcover.json", "setcover_instance", "02_fglss.json"),
        ("06_hvc.json", "hvc_instance", "05_setcover.json"),
    ]

    @pytest.mark.parametrize("stage, expected, source", WRONG_TYPE, ids=[w[0] for w in WRONG_TYPE])
    def test_report_refuses_a_stage_file_of_the_wrong_type(self, tmp_path, capsys, stage, expected, source):
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        assert run("pipeline", "--in", ver, "--out-dir", out_dir, "--no-amplify") == 0
        (out_dir / stage).write_bytes((out_dir / source).read_bytes())
        capsys.readouterr()
        assert run("report", "--dir", out_dir) == 2
        got = json.loads((out_dir / source).read_bytes())["type"]
        assert f"{out_dir / stage}: expected a {expected} file, got {got!r}" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        run("pipeline", "--in", ver, "--out-dir", out_dir, "--no-amplify", "--format", "csv")
        text = (out_dir / "report.csv").read_text()
        assert text.startswith("stage,metric,value\n")
        assert "setcover,cost,1/1" in text

    def test_json_format(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        run("pipeline", "--in", ver, "--out-dir", out_dir, "--no-amplify", "--format", "json")
        rows = json.loads((out_dir / "report.json").read_text())
        assert {"stage": "setcover", "metric": "opt", "value": "2"} in rows

    def test_oversized_verifier_refused(self, tmp_path, capsys):
        big = TableVerifier(
            r=5,
            q=1,
            ell=2,
            queries=tuple((k % 2,) for k in range(32)),
            tables=(bytes([1, 1]),) * 32,
        )
        path = tmp_path / "big.json"
        serialize.save(VerifierInstance(big, "00", "01"), path)
        assert run("pipeline", "--in", path, "--out-dir", tmp_path / "s") == 2
        assert "(r=5 q=1, ceilings r<=4 q<=3)" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_too_many_queries_refused(self, tmp_path, capsys):
        ver = tmp_path / "v.json"
        assert run("gen", "--kind", "verifier", "--alphabet", 3, "--seed", 1, "--out", ver) == 0
        assert run("pipeline", "--in", ver, "--out-dir", tmp_path / "s") == 2
        assert "verifier too large for the pipeline (r=1 q=4, ceilings r<=4 q<=3)" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_verifier_without_proofs_refused(self, tmp_path, capsys):
        v = TableVerifier(
            r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([1, 1]),) * 2
        )
        path = tmp_path / "naked.json"
        serialize.save(VerifierInstance(v), path)
        assert run("pipeline", "--in", path, "--out-dir", tmp_path / "s") == 2
        assert "verifier file carries no start/goal proofs" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_stage_errors_carry_the_stage_name(self, tmp_path, capsys):
        ver = toy_verifier_file(tmp_path / "v.json")
        code = run(
            "pipeline",
            "--in", ver,
            "--out-dir", tmp_path / "s",
            "--rho", 2,
            "--expander-d", 4,
            "--target-ratio", 0,  # unreachable: amplify stage must fail loudly
            "--seed", 1,
        )
        assert code == 2
        assert "[stage amplify]" in capsys.readouterr().err
