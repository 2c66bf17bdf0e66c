"""Command-line surface: every verb, exit codes, stderr diagnostics,
byte-determinism of reports, and the golden end-to-end fixtures."""

import csv
import json
import os
import shlex
import subprocess
import sys
from importlib import resources, util
from pathlib import Path

import numpy as np
import pytest

import triproxy
from triproxy.cli import main
from triproxy.generators import (FIGURE_DESIGNS, figure_model,
                                 rank_invariant_bounds_model,
                                 unbiased_proxy_model)
from triproxy.prob import ProbTensor, VarSpace
from triproxy.scm import NodeSpec, Npsem, effects, observed_joint

#: oracle report key -> field of ``scm.effects``
ORACLE_REPORT = {"ate": "ate", "att": "att", "atu": "atu", "beta_by_state": "cate",
                 "w_marginal": "w", "pot_y": "pot_y"}


def _load_script(name: str):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = util.spec_from_file_location(name, path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_goldens = _load_script("make_goldens")


def _space(name: str, card: int) -> VarSpace:
    return VarSpace(name, card, tuple(float(v) for v in range(card)))


#: eight independent 10-level nodes: an observed joint of 10^8 cells
HUGE_JOINT_MODEL = Npsem(tuple(
    NodeSpec(_space(f"N{i}", 10), (), np.arange(10), np.full(10, 0.1)) for i in range(8)))
#: a 1000-level outcome: a cross-world joint f(Y(0), Y(1), W, X) of 2 * 10^7 cells
HUGE_ORACLE_MODEL = Npsem((
    NodeSpec(_space("W", 10), (), np.arange(10), np.full(10, 0.1)),
    NodeSpec(_space("X", 2), ("W",), np.tile([0, 1], (10, 1)), np.array([0.7, 0.3])),
    NodeSpec(_space("Y", 1000), ("X", "W"), np.arange(40).reshape(2, 10, 2),
             np.array([0.6, 0.4]))), ("W",))


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def fig2a_files(tmp_path):
    m = figure_model("fig2a", 2, seed=11)
    model = tmp_path / "model.json"
    joint = tmp_path / "joint.json"
    model.write_text(json.dumps(m.to_dict()))
    joint.write_text(json.dumps(observed_joint(m).to_dict()))
    return m, str(model), str(joint)


def _result(out: str) -> dict:
    rep = json.loads(out)
    for key in ("tool", "version", "report_format", "verb", "config_hash",
                "tolerances", "result"):
        assert key in rep
    return rep["result"]


class TestSimulateOracle:
    def test_simulate_exact(self, capsys, fig2a_files):
        m, model, _ = fig2a_files
        code, out, _ = run(capsys, "simulate", "--model", model, "--seed", "0")
        assert code == 0
        t = ProbTensor.from_dict(_result(out))
        truth = observed_joint(m)
        np.testing.assert_allclose(
            t.reorder(truth.names).values, truth.values, atol=1e-12)

    def test_simulate_seed_is_optional_and_shapes_nothing(self, capsys, fig2a_files):
        _, model, _ = fig2a_files
        results = []
        for seed in ([], ["--seed", "0"], ["--seed", "5"]):
            code, out, _ = run(capsys, "simulate", "--model", model, *seed)
            assert code == 0
            results.append(_result(out))
        assert results[0] == results[1] == results[2]

    def test_oracle_matches_enumeration(self, capsys, fig2a_files):
        m, model, _ = fig2a_files
        code, out, _ = run(capsys, "oracle", "--model", model)
        assert code == 0
        res = _result(out)
        truth = effects(m)
        assert set(res) == set(ORACLE_REPORT)
        for key, field in ORACLE_REPORT.items():
            assert res[key] == np.asarray(truth[field]).tolist(), key

    def test_oracle_reads_the_declared_latent_node(self, tmp_path, capsys, fig2a_files):
        m, model, _ = fig2a_files
        renamed = tmp_path / "renamed.json"
        renamed.write_text(json.dumps(m.to_dict()).replace('"W"', '"U"'))
        assert Npsem.from_dict(json.loads(renamed.read_text())).latent == ("U",)
        outs = []
        for path in (model, str(renamed)):
            code, out, err = run(capsys, "oracle", "--model", path)
            assert code == 0, err
            outs.append(_result(out))
        assert outs[0] == outs[1]

    def test_oracle_refuses_a_model_without_latent_node(self, tmp_path, capsys, fig2a_files):
        m, _, _ = fig2a_files
        d = m.to_dict()
        del d["latent"]
        path = tmp_path / "no-latent.json"
        path.write_text(json.dumps(d))
        code, _, err = run(capsys, "oracle", "--model", str(path))
        assert code == 2
        assert "latent" in json.loads(err)["message"]

    def test_oracle_refuses_an_unknown_treatment(self, capsys, fig2a_files):
        _, model, _ = fig2a_files
        code, _, err = run(capsys, "oracle", "--model", model, "--treatment", "Q")
        assert code == 2
        assert "'Q'" in json.loads(err)["message"]

    @pytest.mark.parametrize("flag", ["--treatment", "--outcome"])
    def test_oracle_refuses_the_latent_node_as_a_role(self, capsys, fig2a_files, flag):
        _, model, _ = fig2a_files
        code, _, err = run(capsys, "oracle", "--model", model, flag, "W")
        assert code == 2
        assert "latent node" in json.loads(err)["message"]


class TestIdentify:
    def test_outcome_design_matches_oracle(self, capsys, fig2a_files):
        m, _, joint = fig2a_files
        code, out, _ = run(capsys, "identify", "--design", "outcome",
                           "--latent-dim", "2", "--joint", joint)
        assert code == 0
        est = _result(out)["estimands"]
        truth = effects(m)
        assert abs(est["ate"] - truth["ate"]) < 1e-8
        assert abs(est["att"] - truth["att"]) < 1e-8

    def test_report_lists_only_the_tolerances_in_use(self, capsys, fig2a_files):
        _, _, joint = fig2a_files
        code, out, _ = run(capsys, "identify", "--design", "outcome", "--latent-dim", "2",
                           "--joint", joint)
        assert code == 0
        rep = json.loads(out)
        assert rep["report_format"] == 2
        assert "ambiguity_tol" not in rep["tolerances"]

    def test_report_bytes_deterministic(self, tmp_path, capsys, fig2a_files):
        _, _, joint = fig2a_files
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (r1, r2):
            code = main(["identify", "--design", "outcome", "--latent-dim",
                         "2", "--joint", joint, "--report", str(path)])
            assert code == 0
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()
        # the report path itself must not shape the report content
        assert json.loads(r1.read_text())["config_hash"] == \
            json.loads(r2.read_text())["config_hash"]

    def test_csv_is_rfc4180(self, tmp_path, capsys, fig2a_files):
        _, _, joint = fig2a_files
        out_csv = tmp_path / "est.csv"
        code = main(["identify", "--design", "outcome", "--latent-dim", "2",
                     "--joint", joint, "--report", os.devnull,
                     "--csv", str(out_csv)])
        capsys.readouterr()
        assert code == 0
        raw = out_csv.read_bytes()
        assert raw.endswith(b"\r\n") and b"\r\n" in raw
        rows = list(csv.reader(raw.decode().splitlines()))
        assert rows[0] == ["table", "key", "value", "value_x0", "value_x1"]
        tables = {r[0] for r in rows[1:]}
        assert tables == {"qte", "beta_cdf"}

    def test_relabel_unbiased_and_monotone(self, capsys, fig2a_files):
        _, _, joint = fig2a_files
        code, out, _ = run(capsys, "relabel", "--design", "outcome",
                           "--latent-dim", "2", "--joint", joint,
                           "--rule", "mean-unbiased")
        assert code == 0
        assert "beta_by_label" in _result(out)
        code, out, _ = run(capsys, "relabel", "--design", "outcome",
                           "--latent-dim", "2", "--joint", joint,
                           "--rule", "mean-monotone", "--tau", "0.5")
        assert code == 0
        assert "0.5" in _result(out)["beta_by_tau"]

    def test_bounds_verb(self, tmp_path, capsys):
        m = rank_invariant_bounds_model(2, seed=1, figure="fig6a",
                                        cate_values=(0.1, 0.3))
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps(observed_joint(m).to_dict()))
        code, out, _ = run(capsys, "bounds", "--design", "outcome",
                           "--latent-dim", "2", "--joint", str(joint))
        assert code == 0
        res = _result(out)
        assert abs(res["s_lower"] - 0.1) < 1e-7
        assert abs(res["s_upper"] - 0.3) < 1e-7
        assert res["point_identified"] is False


class TestGraphVerbs:
    def test_dag_check(self, capsys):
        code, out, _ = run(capsys, "dag-check", "--figure", "fig2a",
                           "--proposition", "1")
        assert code == 0
        res = _result(out)
        assert res["proposition"] == 1
        assert res["all_observational_certified"] is True

    def test_classify_builtin(self, capsys):
        code, out, _ = run(capsys, "classify", "--figure", "fig1b")
        assert code == 0
        assert _result(out)["designs"] == ["double-proxy"]

    def test_classify_graph_file(self, tmp_path, capsys):
        from triproxy.graphs import FIGURES
        path = tmp_path / "g.json"
        path.write_text(json.dumps(FIGURES["fig1a"].to_dict()))
        code, out, _ = run(capsys, "classify", "--graph", str(path))
        assert code == 0
        assert "outcome" in _result(out)["designs"]


class TestEndToEnd:
    @pytest.mark.parametrize("fixture", ["fig1a-early-late-tests",
                                         "fig1d-auxiliary"])
    def test_golden_fixtures_pass(self, capsys, fixture):
        code, out, err = run(capsys, "end-to-end", "--fixture", fixture)
        assert code == 0, err
        assert _result(out)["fixture"] == fixture

    @pytest.mark.parametrize("fixture", ["fig1a-early-late-tests", "fig1d-auxiliary",
                                         "fig1b-double-only"])
    def test_fixture_models_rebuild_from_their_specs(self, fixture):
        # pins the generators' random stream: the stored model must come back
        # exactly (the stored goldens are compared at GOLDEN_TOL elsewhere)
        stored = json.loads((resources.files("triproxy") / "fixtures" / f"{fixture}.json")
                            .read_text(encoding="utf-8"))
        assert make_goldens.build_model(make_goldens.SPECS[fixture]).to_dict() \
            == stored["model"]

    def test_unidentified_fixture_refused(self, capsys):
        code, out, err = run(capsys, "end-to-end", "--fixture",
                             "fig1b-double-only")
        assert code == 3
        diag = json.loads(err)
        assert diag["error"] == "IdentificationRefused"
        assert diag["assumption"]

    def test_unknown_fixture_is_validation_error(self, capsys):
        code, _, err = run(capsys, "end-to-end", "--fixture", "nope")
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"


class TestExitCodesAndDiagnostics:
    def test_bad_flags_exit_2(self, capsys):
        assert main(["identify", "--design", "nonsense", "--latent-dim", "2",
                     "--joint", "x.json"]) == 2
        capsys.readouterr()

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "identify", "--design", "outcome",
                           "--latent-dim", "2", "--joint", "/no/such.json")
        assert code == 2
        diag = json.loads(err)
        assert set(diag) == {"error", "message", "assumption"}

    @pytest.mark.parametrize("edit,reason", [
        (lambda d: d.update(latent=["Q"]), "latent 'Q' not a node"),
        (lambda d: d["nodes"][0]["table"].__setitem__(0, 99), "table values out of range"),
        (lambda d: d["nodes"][0]["noise_pmf"].__setitem__(0, float("nan")),
         "noise pmf not a distribution"),
    ], ids=["unknown-latent", "table-out-of-range", "nan-noise-pmf"])
    def test_bad_model_file_exit_2(self, tmp_path, capsys, fig2a_files, edit, reason):
        m, _, _ = fig2a_files
        d = m.to_dict()
        edit(d)
        path = tmp_path / "bad-model.json"
        path.write_text(json.dumps(d))
        code, _, err = run(capsys, "simulate", "--model", str(path), "--seed", "0")
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert reason in diag["message"]

    @pytest.mark.parametrize("verb,edit,reason", [
        ("identify", lambda d: d["values"].__setitem__(0, float("nan")), "non-finite"),
        ("identify", lambda d: d["axes"][0].update(cardinality=99),
         "levels for cardinality 99"),
        ("classify", lambda d: d["edges"].append(["Y", "W"]), "directed cycle"),
        ("classify", lambda d: d["edges"].append(["Q", "Y"]), "undeclared node"),
    ], ids=["nan-joint", "cardinality-99", "cyclic-graph", "undeclared-node"])
    def test_bad_joint_or_graph_file_exit_2(self, tmp_path, capsys, fig2a_files,
                                            verb, edit, reason):
        from triproxy.graphs import FIGURES
        m, _, _ = fig2a_files
        d = (observed_joint(m) if verb == "identify" else FIGURES["fig2a"]).to_dict()
        edit(d)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        argv = (["identify", "--joint", str(path), "--design", "outcome",
                 "--latent-dim", "2"] if verb == "identify"
                else ["classify", "--graph", str(path)])
        code, _, err = run(capsys, *argv)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert reason in diag["message"]

    _IDENTIFY = ["identify", "--design", "outcome", "--latent-dim", "2", "--joint", "{joint}"]
    _RELABEL = ["relabel", "--design", "outcome", "--latent-dim", "2", "--joint", "{joint}",
                "--rule", "mean-monotone"]
    _BOUNDS = ["bounds", "--design", "outcome", "--latent-dim", "2", "--joint", "{joint}"]

    @pytest.mark.parametrize("argv,reason", [
        (_RELABEL + ["--tau", "abc"], "bad --tau 'abc'"),
        (_RELABEL + ["--tau", "0"], "quantile rank must lie in (0, 1]"),
        (_RELABEL + ["--tau", "1.5"], "quantile rank must lie in (0, 1]"),
        (_IDENTIFY[:3] + ["--latent-dim", "-1", "--joint", "{joint}"],
         "--latent-dim must be at least 1"),
        (_IDENTIFY[:3] + ["--latent-dim", "0", "--joint", "{joint}"],
         "--latent-dim must be at least 1"),
        (_IDENTIFY + ["--seed", "-1"], "--seed must be non-negative"),
        (_RELABEL + ["--seed", "-1"], "--seed must be non-negative"),
        (_BOUNDS + ["--seed", "-1"], "--seed must be non-negative"),
        (_IDENTIFY + ["--report", "{missing}"], "cannot write"),
        (_IDENTIFY + ["--csv", "{missing}"], "cannot write"),
        (_BOUNDS[:3] + ["--latent-dim", "9", "--joint", "{joint}"],
         "latent dimension 9 exceeds"),
        (["bounds", "--design", "auxiliary", "--latent-dim", "2", "--joint", "{joint}"],
         "the auxiliary design needs exactly the axes"),
        (["identify", "--design", "treatment", "--latent-dim", "2", "--joint", "{aux_joint}"],
         "the treatment design needs exactly the axes"),
        (["classify", "--graph", "{graph}"], "graph lacks a node for core role 'W'"),
        (["dag-check", "--graph", "{graph}", "--proposition", "1"],
         "graph lacks a node for role"),
        (["simulate", "--model", "{huge_joint}"],
         "would hold 100000000 cells, over the 10000000 guard"),
        (["oracle", "--model", "{huge_oracle}"],
         "would hold 20000000 cells, over the 10000000 guard"),
    ], ids=["relabel-tau-abc", "relabel-tau-0", "relabel-tau-1.5", "latent-dim-negative",
            "latent-dim-0", "identify-seed-negative", "relabel-seed-negative",
            "bounds-seed-negative", "report-in-missing-dir", "csv-in-missing-dir",
            "bounds-latent-dim-9", "bounds-auxiliary-without-c", "treatment-joint-with-c",
            "classify-graph-without-w", "dag-check-graph-without-w",
            "simulate-oversized-model", "oracle-oversized-model"])
    def test_bad_input_exit_2(self, tmp_path, capsys, fig2a_files, argv, reason):
        _, _, joint = fig2a_files
        aux_joint = tmp_path / "aux-joint.json"
        aux_joint.write_text(json.dumps(
            observed_joint(figure_model("fig5a", 2, seed=0)).to_dict()))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"nodes": ["Y", "X", "Z"], "edges": [["X", "Y"]]}))
        paths = {"joint": joint, "aux_joint": aux_joint, "graph": graph,
                 "missing": tmp_path / "no-such-dir" / "out"}
        for name, model in (("huge_joint", HUGE_JOINT_MODEL), ("huge_oracle", HUGE_ORACLE_MODEL)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(model.to_dict()))
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert reason in diag["message"]

    def test_latent_dim_too_large_exit_2(self, capsys, fig2a_files):
        _, _, joint = fig2a_files
        code, _, err = run(capsys, "identify", "--design", "outcome",
                           "--latent-dim", "7", "--joint", joint)
        assert code == 2
        assert "latent dimension" in json.loads(err)["message"]

    def test_identification_failure_exit_3_names_assumption(
            self, tmp_path, capsys, fig2a_files):
        m, _, _ = fig2a_files
        joint = observed_joint(m)
        # flatten Z's dependence on W: spectral completeness must fail
        idx = joint.axis_index("Z")
        flat = joint.values.mean(axis=idx, keepdims=True)
        vals = np.broadcast_to(flat, joint.values.shape)
        vals = vals / vals.sum()
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(ProbTensor.build(joint.axes, vals).to_dict()))
        code, _, err = run(capsys, "identify", "--design", "outcome",
                           "--latent-dim", "2", "--joint", str(path))
        assert code == 3
        diag = json.loads(err)
        assert "Assumption" in diag["assumption"]

    def test_single_latent_state_refused_with_diagnostic(self, tmp_path, capsys):
        # a one-state fit of a two-state auxiliary joint: the latent posterior
        # solved in the other treatment stratum is off the simplex, and the
        # fit is refused with a JSON diagnostic
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(observed_joint(figure_model("fig5a", 2, seed=0)).to_dict()))
        code, _, err = run(capsys, "identify", "--design", "auxiliary",
                           "--latent-dim", "1", "--joint", str(path))
        assert code in (2, 3)
        diag = json.loads(err)
        assert set(diag) == {"error", "message", "assumption"}
        assert "np.float64" not in diag["message"]


class TestLatentDimBelowTruth:
    @pytest.mark.parametrize("figure", ["fig2a", "fig3a", "fig4a", "fig5a"])
    def test_exit_3_names_assumption(self, tmp_path, capsys, figure):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(observed_joint(figure_model(figure, 3, seed=0)).to_dict()))
        code, _, err = run(capsys, "identify", "--design", FIGURE_DESIGNS[figure],
                           "--latent-dim", "2", "--joint", str(path))
        assert code == 3
        assert json.loads(err)["assumption"]


def readme_commands() -> list[list[str]]:
    """The command lines of the README's ``## Command line`` block."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    """Every README command, in order, on a model whose proxy is an unbiased
    measure of the latent state (the relabel line needs one)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(
        json.dumps(unbiased_proxy_model(2, seed=0).to_dict()))
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "triproxy"
        code = main(argv[1:])
        err = capsys.readouterr().err
        assert code == 0, f"{shlex.join(argv)}: {err}"


def test_cli_import_loads_no_scipy():
    src = str(Path(triproxy.__file__).parents[1])
    probe = ("import sys, triproxy.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
