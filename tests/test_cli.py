"""Command-line interface: files, chains, pipeline, exit codes."""

import json

import pytest

from rforge import checks, cli, serialize, solve
from rforge.checks import CheckReport
from rforge.cli import main
from rforge.core import HvcInstance, LabelCoverInstance, P2cspInstance, SetCoverInstance
from rforge.generate import generate_csp, generate_hypergraph, generate_labelcover, generate_setcover
from rforge.verifier import TableVerifier

# One small instance bundle per solve problem, of the type that problem takes.
BUNDLE_OF_PROBLEM = {
    "maxpar": generate_csp,
    "minlab": generate_labelcover,
    "sc-cost": generate_setcover,
    "hvc-cost": generate_hypergraph,
}


def run(*argv):
    return main([str(a) for a in argv])


def toy_verifier_file(path):
    """Always-accepting one-position checker with a 1-bit start/goal step."""
    v = TableVerifier(
        r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([1, 1]), bytes([1, 1]))
    )
    serialize.save(v, path, pi_start="0", pi_goal="1")
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

    @pytest.mark.parametrize("kind", ["labelcover", "setcover", "hypergraph", "verifier"])
    def test_all_kinds(self, tmp_path, kind):
        out = tmp_path / f"{kind}.json"
        assert run("gen", "--kind", kind, "--out", out, "--seed", 2) == 0
        assert out.exists()

    def test_generated_verifier_accepts_start(self, tmp_path):
        out = tmp_path / "v.json"
        assert run("gen", "--kind", "verifier", "--out", out, "--seed", 3) == 0
        from rforge.verifier import accept_prob

        v, pi_start, _ = serialize.load_verifier(out)
        assert accept_prob(v, pi_start) == 1


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

    def test_p2l_requires_loop_free(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        fglss = tmp_path / "fglss.json"
        run("reduce", "fglss", "--in", ver, "--out", fglss)
        assert run("reduce", "p2l", "--in", fglss, "--out", tmp_path / "x.json") == 2

    def test_cap_exhaustion_exits_3(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        fglss = tmp_path / "fglss.json"
        run("reduce", "fglss", "--in", ver, "--out", fglss)
        assert run("solve", "maxpar", "--in", fglss, "--cap", 1) == 3


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
        assert "pi_start and pi_goal must be strings or null" in capsys.readouterr().err

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
        serialize.save(v, ver, pi_start="00", pi_goal="01")
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
        amped, pi_s, pi_g = serialize.load_verifier(out)
        assert amped.r == 4 and pi_s == "00" and pi_g == "01"

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
        amped, _, _ = serialize.load_verifier(out)
        assert amped.r == 1 + 2 * 2  # rho = 3, so two 2-bit port choices

    def test_missing_rho_spec_is_usage_error(self, tmp_path):
        ver = toy_verifier_file(tmp_path / "v.json")
        assert run("amplify", "--in", ver, "--out", tmp_path / "x.json") == 2


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

    def test_report_regenerates_byte_identically(self, tmp_path, capsys):
        ver = toy_verifier_file(tmp_path / "v.json")
        out_dir = tmp_path / "stages"
        run("pipeline", "--in", ver, "--out-dir", out_dir, "--no-amplify")
        capsys.readouterr()
        assert run("report", "--dir", out_dir) == 0
        regenerated = capsys.readouterr().out
        assert regenerated.encode() == (out_dir / "report.md").read_bytes()

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

    def test_oversized_verifier_refused(self, tmp_path):
        big = TableVerifier(
            r=5,
            q=1,
            ell=2,
            queries=tuple((k % 2,) for k in range(32)),
            tables=(bytes([1, 1]),) * 32,
        )
        path = tmp_path / "big.json"
        serialize.save(big, path, pi_start="00", pi_goal="01")
        assert run("pipeline", "--in", path, "--out-dir", tmp_path / "s") == 2

    def test_verifier_without_proofs_refused(self, tmp_path):
        v = TableVerifier(
            r=1, q=1, ell=1, queries=((0,), (0,)), tables=(bytes([1, 1]),) * 2
        )
        path = tmp_path / "naked.json"
        serialize.save(v, path)
        assert run("pipeline", "--in", path, "--out-dir", tmp_path / "s") == 2

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
