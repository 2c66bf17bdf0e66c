"""Command-line surface: every verb, exit codes, stderr diagnostics,
byte-determinism of reports, and the golden end-to-end fixtures."""

import csv
import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings
from importlib import resources, util
from pathlib import Path

import numpy as np
import pytest

import triproxy
from triproxy import cli, tolerances
from triproxy.cli import main
from triproxy.generators import (FIGURE_DESIGNS, designed_npsem, figure_model,
                                 rank_invariant_bounds_model, standard_spaces,
                                 unbiased_proxy_model)
from triproxy.graphs import FIGURES
from triproxy.prob import ProbTensor, VarSpace
from triproxy.scm import NodeSpec, Npsem, effects, observed_joint

#: oracle report key -> field of ``scm.effects``
ORACLE_REPORT = {"ate": "ate", "att": "att", "atu": "atu", "beta_by_state": "cate",
                 "w_marginal": "w", "pot_y": "pot_y"}
#: the keys of an ``identify`` report's ``estimands`` and of a ``bounds``
#: report's ``result``; a design with V adds ``per_v_lower``/``per_v_upper``
ESTIMAND_KEYS = {"y_levels", "pot_y", "pot_y_given_x", "ate", "att", "atu", "qte_taus",
                 "qte", "beta", "w_marginal", "beta_atoms", "beta_cdf", "beta_cdf_given_x",
                 "var_beta"}
BOUNDS_KEYS = {"design", "s_lower", "s_upper", "att_interval", "atu_interval",
               "point_identified", "diagnostics"}


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


def _literal(text: str, put):
    """A file edit that writes the JSON number ``text`` where ``put(d, value)``
    puts a value: ``1e400`` reads back as infinity, but ``json.dumps`` would
    write that as ``Infinity``."""
    def edit(d):
        put(d, "@literal@")
        return json.dumps(d).replace('"@literal@"', text)
    return edit


def _drop_noise_level(d):
    """Drop the last noise level of node Z and renormalize the rest, so that
    its pmf is a distribution one entry shorter than its ``noise_card``."""
    pmf = d["nodes"][1]["noise_pmf"][:-1]
    d["nodes"][1]["noise_pmf"] = [p / sum(pmf) for p in pmf]


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

    def test_oracle_refuses_a_model_without_a_treatment_node(self, tmp_path, capsys,
                                                             fig2a_files):
        m, _, _ = fig2a_files
        path = tmp_path / "no-x.json"
        path.write_text(json.dumps(m.to_dict()).replace('"X"', '"Q"'))
        code, _, err = run(capsys, "oracle", "--model", str(path))
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "UnknownNode"
        assert "'X'" in diag["message"]

    @pytest.mark.parametrize("role", ["X", "Y"])
    def test_oracle_refuses_the_latent_node_as_a_role(self, tmp_path, capsys, fig2a_files,
                                                      role):
        # swap the names of the latent node W and the role node
        m, _, _ = fig2a_files
        text = json.dumps(m.to_dict())
        swapped = (text.replace('"W"', '"@"').replace(f'"{role}"', '"W"')
                   .replace('"@"', f'"{role}"'))
        assert Npsem.from_dict(json.loads(swapped)).latent == (role,)
        path = tmp_path / "latent-role.json"
        path.write_text(swapped)
        code, _, err = run(capsys, "oracle", "--model", str(path))
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "MissingRole"
        assert "latent node" in diag["message"]

    @pytest.mark.parametrize("arm", ["Y(0)", "Y(1)"])
    def test_oracle_refuses_a_latent_named_like_an_arm(self, tmp_path, capsys, fig2a_files,
                                                       arm):
        m, _, _ = fig2a_files
        path = tmp_path / "arm-named.json"
        path.write_text(json.dumps(m.to_dict()).replace('"W"', json.dumps(arm)))
        assert Npsem.from_dict(json.loads(path.read_text())).latent == (arm,)
        code, _, err = run(capsys, "oracle", "--model", str(path))
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert f"{arm!r}" in diag["message"] and f"{{'X': {arm[2]}}}" in diag["message"]


class TestIdentify:
    def test_outcome_design_matches_oracle(self, capsys, fig2a_files):
        m, _, joint = fig2a_files
        code, out, _ = run(capsys, "identify", "--design", "outcome",
                           "--latent-dim", "2", "--joint", joint)
        assert code == 0
        est = _result(out)["estimands"]
        assert set(est) == ESTIMAND_KEYS
        truth = effects(m)
        assert abs(est["ate"] - truth["ate"]) < 1e-8
        assert abs(est["att"] - truth["att"]) < 1e-8

    def test_report_lists_only_the_tolerances_in_use(self, capsys, fig2a_files):
        _, _, joint = fig2a_files
        code, out, _ = run(capsys, "identify", "--design", "outcome", "--latent-dim", "2",
                           "--joint", joint)
        assert code == 0
        rep = json.loads(out)
        assert rep["report_format"] == 8
        registry = {name.lower(): value for name, value in vars(tolerances).items()
                    if name.isupper()}
        assert rep["tolerances"] == registry
        assert rep["tolerances"]["input_neg_tol"] == 1e-12
        assert rep["tolerances"]["kernel_neg_tol"] == 1e-6
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

    def test_inputs_hash_the_file_bytes_not_its_path(self, capsys, fig2a_files):
        """The same --joint path rewritten with other bytes between two runs:
        the input hashes differ, the configuration hash does not."""
        _, _, joint = fig2a_files
        reports = []
        for seed in (11, 12):
            m = figure_model("fig2a", 2, seed=seed)
            Path(joint).write_text(json.dumps(observed_joint(m).to_dict()))
            code, out, _ = run(capsys, "identify", "--design", "outcome",
                               "--latent-dim", "2", "--joint", joint)
            assert code == 0
            reports.append(json.loads(out))
        first, second = reports
        assert first["config_hash"] == second["config_hash"]
        assert first["inputs"] != second["inputs"]
        assert second["inputs"] == {
            "--joint": hashlib.sha256(Path(joint).read_bytes()).hexdigest()}

    def test_every_report_names_the_files_it_read(self, tmp_path, capsys, fig2a_files):
        _, model, joint = fig2a_files
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(FIGURES["fig2a"].to_dict()))

        def sha(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        identify = ("--design", "outcome", "--latent-dim", "2", "--joint", joint)
        cases = [
            (("simulate", "--model", model), {"--model": sha(model)}),
            (("oracle", "--model", model), {"--model": sha(model)}),
            (("identify",) + identify, {"--joint": sha(joint)}),
            (("relabel",) + identify + ("--rule", "mean-unbiased"), {"--joint": sha(joint)}),
            (("dag-check", "--graph", str(graph), "--proposition", "1"),
             {"--graph": sha(graph)}),
            (("classify", "--graph", str(graph)), {"--graph": sha(graph)}),
            (("classify", "--figure", "fig2a"), {}),
            (("end-to-end", "--fixture", "fig1a-early-late-tests"), {}),
        ]
        for argv, inputs in cases:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            assert json.loads(out)["inputs"] == inputs, argv

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

    @pytest.mark.parametrize("report", ["r.json", "-"])
    def test_refused_csv_leaves_no_report(self, tmp_path, capsys, fig2a_files, report):
        """A CSV path that cannot be written refuses the run, and the report
        is written nowhere: neither its file nor stdout holds a report of
        the failed run."""
        _, _, joint = fig2a_files
        target = str(tmp_path / report) if report != "-" else report
        code, out, err = run(capsys, "identify", "--design", "outcome", "--latent-dim", "2",
                             "--joint", joint, "--report", target,
                             "--csv", str(tmp_path / "missing" / "q.csv"))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "ValidationError" and "q.csv" in diag["message"]
        assert not (tmp_path / "r.json").exists()

    def test_refused_report_leaves_no_csv(self, tmp_path, capsys, fig2a_files):
        """A report path that cannot be written refuses the run, and the CSV
        file the run wrote before it is removed."""
        _, _, joint = fig2a_files
        code, out, err = run(capsys, "identify", "--design", "outcome", "--latent-dim", "2",
                             "--joint", joint, "--csv", str(tmp_path / "q.csv"),
                             "--report", str(tmp_path / "missing" / "r.json"))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "ValidationError" and "r.json" in diag["message"]
        assert not (tmp_path / "q.csv").exists()

    def test_csv_and_report_on_one_path_leave_the_report(self, tmp_path, capsys, fig2a_files):
        """The report is written after the CSV, so one path given to both
        ends holding the report alone."""
        _, _, joint = fig2a_files
        out_path = tmp_path / "out"
        code, out, _ = run(capsys, "identify", "--design", "outcome", "--latent-dim", "2",
                           "--joint", joint, "--csv", str(out_path), "--report", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["verb"] == "identify"

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

    @pytest.mark.parametrize("verb", [("identify",), ("relabel", "--rule", "mean-unbiased"),
                                      ("relabel", "--rule", "mean-monotone")],
                             ids=["identify", "relabel-unbiased", "relabel-monotone"])
    def test_a_three_level_treatment_is_refused(self, tmp_path, capsys, verb):
        # the pipeline identifies the latent states, but the effects that
        # identify and relabel report contrast two treatment arms
        spaces = standard_spaces(2)
        spaces["X"] = _space("X", 3)
        m = designed_npsem(FIGURES["fig2a"], spaces, seed=0)
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps(observed_joint(m).to_dict()))
        code, out, err = run(capsys, verb[0], "--design", "outcome", "--latent-dim", "2",
                             "--joint", str(joint), *verb[1:])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "NonBinaryTreatment"

    def test_bounds_verb(self, tmp_path, capsys):
        m = rank_invariant_bounds_model(2, seed=1, figure="fig6a",
                                        cate_values=(0.1, 0.3))
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps(observed_joint(m).to_dict()))
        code, out, _ = run(capsys, "bounds", "--design", "outcome",
                           "--latent-dim", "2", "--joint", str(joint))
        assert code == 0
        res = _result(out)
        assert set(res) == BOUNDS_KEYS        # one V level: no per_v_* keys
        assert abs(res["s_lower"] - 0.1) < 1e-7
        assert abs(res["s_upper"] - 0.3) < 1e-7
        assert res["point_identified"] is False

    def test_bounds_auxiliary_verb(self, tmp_path, capsys):
        m = rank_invariant_bounds_model(2, seed=1, figure="fig7a")
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps(observed_joint(m).to_dict()))
        code, out, err = run(capsys, "bounds", "--design", "auxiliary",
                             "--latent-dim", "2", "--joint", str(joint))
        assert code == 0, err
        res = _result(out)
        assert set(res) == BOUNDS_KEYS | {"per_v_lower", "per_v_upper"}
        n_v = m["V"].space.cardinality
        assert len(res["per_v_lower"]) == len(res["per_v_upper"]) == n_v
        truth = effects(m)
        for key in ("att", "atu"):
            lo, hi = res[f"{key}_interval"]
            assert lo - 1e-7 <= truth[key] <= hi + 1e-7, key


    @pytest.mark.parametrize("figure,design", [("fig6a", "outcome"), ("fig7a", "auxiliary")])
    def test_bounds_report_at_one_latent_state_is_strict_json(self, tmp_path, capsys,
                                                               figure, design):
        # one latent state has no eigen gap: the report says null, not Infinity
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps(observed_joint(
            rank_invariant_bounds_model(1, seed=0, figure=figure)).to_dict()))
        code, out, err = run(capsys, "bounds", "--design", design, "--latent-dim", "1",
                             "--joint", str(joint))
        assert code == 0, err

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        res = json.loads(out, parse_constant=refuse)["result"]
        assert [res["diagnostics"][arm]["eigen_gap"] for arm in ("arm0", "arm1")] == [None, None]


class TestGraphVerbs:
    def test_dag_check(self, capsys):
        """Every conclusion is certified by one rule, the counterfactual iv
        through the twin network, with no separate hint."""
        code, out, _ = run(capsys, "dag-check", "--figure", "fig2a",
                           "--proposition", "1")
        assert code == 0
        assert json.loads(out)["report_format"] == 8
        res = _result(out)
        assert res["proposition"] == 1
        assert res["all_observational_certified"] is True
        assert [(c["label"], c["kind"], c["certified"]) for c in res["conclusions"]] == [
            ("i", "observational", True), ("ii", "observational", True),
            ("iii", "observational", True), ("iv", "counterfactual", True)]
        assert all("graphical_hint" not in c for c in res["conclusions"])
        # observational statements sort each set; counterfactual ones keep
        # the record's order
        assert [c["statement"] for c in res["conclusions"]] == [
            "Y ⊥ V,Z | W,X", "V ⊥ Z | W,X", "Z ⊥ X | W", "Y(x) ⊥ X,V | W"]
        _, out, _ = run(capsys, "dag-check", "--figure", "fig5a", "--proposition", "4")
        statements = [c["statement"] for c in _result(out)["conclusions"]]
        assert statements[3:] == ["Y ⊥ Z | V,W,X", "Y(x) ⊥ X | W,V"]

    @pytest.mark.parametrize("verb", [["classify"], ["dag-check", "--proposition", "1"],
                                      ["dag-check", "--proposition", "5"]])
    def test_twin_names_cannot_clash_with_node_names(self, tmp_path, capsys, verb):
        """No node name can clash with a twin network's noise nodes or
        copies: a graph with nodes named u:X and Y* gets the report of the
        same graph with those nodes renamed."""
        g = FIGURES["fig2a"]
        text = json.dumps({"nodes": [*g.nodes, "u:X", "Y*"],
                           "edges": [*map(list, g.edges), ["u:X", "X"], ["Y", "Y*"]]})
        results = []
        for name, body in (("clash", text),
                           ("renamed", text.replace("u:X", "UX").replace("Y*", "Ystar"))):
            path = tmp_path / f"{name}.json"
            path.write_text(body)
            code, out, err = run(capsys, *verb, "--graph", str(path))
            assert code == 0, err
            results.append(_result(out))
        assert results[0] == results[1]

    def test_classify_builtin(self, capsys):
        code, out, _ = run(capsys, "classify", "--figure", "fig1b")
        assert code == 0
        assert _result(out)["designs"] == ["double-proxy"]

    def test_classify_graph_file(self, tmp_path, capsys):
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

    def test_make_goldens_writes_only_when_asked(self):
        # --help and the default check mode leave the committed fixtures as
        # they are, and the check passes on them
        fixtures = resources.files("triproxy") / "fixtures"
        before = {f.name: f.read_bytes() for f in fixtures.iterdir()}
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_goldens.py"
        env = {**os.environ, "PYTHONPATH": str(Path(triproxy.__file__).parents[1])}
        for flags in (["--help"], []):
            out = subprocess.run([sys.executable, str(script), *flags], capture_output=True,
                                 text=True, env=env, timeout=120)
            assert out.returncode == 0, out.stdout + out.stderr
            assert {f.name: f.read_bytes() for f in fixtures.iterdir()} == before
        assert "fig1a-early-late-tests: largest gap" in out.stdout

    def test_unidentified_fixture_refused(self, capsys):
        code, out, err = run(capsys, "end-to-end", "--fixture",
                             "fig1b-double-only")
        assert code == 3
        diag = json.loads(err)
        assert diag["error"] == "IdentificationRefused"
        assert diag["assumption"]

    def test_tampered_golden_is_a_mismatch(self, capsys, monkeypatch):
        payload = cli._fixture_payload("fig1a-early-late-tests")
        payload["golden"]["estimands"]["ate"] += 1e-6
        del payload["golden"]["estimands"]["var_beta"]
        payload["golden"]["estimands"]["qte"].pop()
        payload["golden"]["design"] = "treatment"
        monkeypatch.setattr(cli, "_fixture_payload", lambda name: payload)
        code, out, err = run(capsys, "end-to-end", "--fixture", "fig1a-early-late-tests")
        assert code == 3 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "GoldenMismatch"
        assert "/estimands/ate: " in diag["message"]
        assert "/estimands/var_beta: present on one side only" in diag["message"]
        assert "/estimands/qte: length 9 != 8" in diag["message"]
        assert "/design: 'outcome' != 'treatment'" in diag["message"]

    @pytest.mark.parametrize("fixture", ["nope", "../fixtures/fig1a-early-late-tests",
                                         "fig1a-early-late-tests.json"])
    def test_unknown_fixture_is_validation_error(self, capsys, fixture):
        code, _, err = run(capsys, "end-to-end", "--fixture", fixture)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert diag["message"] == (
            f"no builtin fixture {fixture!r}; have ['fig1a-early-late-tests', "
            f"'fig1b-double-only', 'fig1d-auxiliary']")


class TestExitCodesAndDiagnostics:
    def test_bad_flags_exit_2(self, capsys):
        code, out, err = run(capsys, "identify", "--design", "nonsense", "--latent-dim", "2",
                             "--joint", "x.json")
        assert code == 2 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert diag["message"].startswith("triproxy identify: argument --design: invalid choice")

    @pytest.mark.parametrize("argv,usage", [(["--help"], "usage: triproxy "),
                                            (["identify", "--help"], "usage: triproxy identify ")])
    def test_help_exits_0_with_nothing_on_stderr(self, capsys, argv, usage):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith(usage)

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
        (_literal("1e400", lambda d, v: d["nodes"][0].update(cardinality=v)),
         "cardinality inf is not a positive integer"),
        (_literal("1e400", lambda d, v: d["nodes"][0].update(noise_card=v)),
         "noise_card inf is not a positive integer"),
        (lambda d: d["nodes"][0]["table"].__setitem__(0, 10 ** 30),
         "table entries are not integers"),
        (lambda d: d["nodes"][0].update(cardinality=2.7),
         "cardinality 2.7 is not a positive integer"),
        (lambda d: d["nodes"][0].update(noise_card=2.5),
         "noise_card 2.5 is not a positive integer"),
        (lambda d: d["nodes"][0]["table"].__setitem__(0, 1.9),
         "table entries are not integers"),
        (lambda d: d["nodes"][0].update(noise_card=-1), "noise_card -1 is not a positive"),
        (lambda d: d["nodes"][1].update(parents="W"),
         "Z parents 'W' is not a list of names"),
        (lambda d: d.update(latent="W"), "latent 'W' is not a list of names"),
        (lambda d: d["nodes"][0].update(noise_pmf=[False, True]),
         "W: noise_pmf must be a flat list of JSON numbers"),
        (lambda d: d["nodes"][1].update(table=[[t] for t in d["nodes"][1]["table"]]),
         "Z: table must be a flat list of JSON numbers"),
        (lambda d: d["nodes"].append(d["nodes"][0]), "duplicate node names"),
        (_drop_noise_level, "Z: table/noise shape mismatch"),
        (lambda d: d["nodes"][0].update(noise_pmf=[]), "W: bad noise pmf"),
        (lambda d: d["nodes"][0].__delitem__("noise_pmf"), "missing field 'noise_pmf'"),
        (lambda d: d["nodes"][1].update(parents=["Q"]),
         "Z: parent 'Q' not defined earlier (or cycle)"),
        (lambda d: json.dumps([d]), "the top level is not a JSON object"),
    ], ids=["unknown-latent", "table-out-of-range", "nan-noise-pmf", "cardinality-1e400",
            "noise-card-1e400", "table-entry-1e30", "cardinality-2.7", "noise-card-2.5",
            "table-entry-1.9", "noise-card-negative", "parents-string", "latent-string",
            "noise-pmf-booleans", "table-nested", "duplicate-node", "noise-pmf-short",
            "noise-pmf-empty", "noise-pmf-missing", "undefined-parent", "top-level-array"])
    def test_bad_model_file_exit_2(self, tmp_path, capsys, fig2a_files, edit, reason):
        m, _, _ = fig2a_files
        d = m.to_dict()
        text = edit(d) or json.dumps(d)
        path = tmp_path / "bad-model.json"
        path.write_text(text)
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
        ("identify", lambda d: d["axes"][0].update(cardinality=2.7),
         "cardinality 2.7 is not a positive integer"),
        ("identify", lambda d: "[" * 100000, "maximum recursion depth"),
        ("identify", lambda d: d["axes"][0].update(name=5), "name 5 is not a string"),
        ("classify", lambda d: d.update(nodes="".join(d["nodes"])),
         "nodes 'YXWVZ' is not a list of names"),
        ("classify", lambda d: d.update(edges=["".join(e) for e in d["edges"]]),
         "edge 'XY' is not a list of names"),
        ("identify", lambda d: d["values"].__setitem__(0, repr(d["values"][0])),
         "values must be a flat list of JSON numbers"),
        ("identify", lambda d: d.update(values=[[v] for v in d["values"]]),
         "values must be a flat list of JSON numbers"),
        ("identify", lambda d: d["axes"][0]["levels"].__setitem__(0, "0.0"),
         "'Z': levels must be a flat list of JSON numbers"),
        ("identify", lambda d: next(a for a in d["axes"] if a["name"] == "X").update(
            levels=[False, True]),
         "'X': levels must be a flat list of JSON numbers"),
        ("classify", lambda d: d["nodes"].append("W"), "duplicate nodes"),
        ("classify", lambda d: d["edges"].append(d["edges"][0]), "duplicate edges"),
        ("classify", lambda d: d["edges"].append(["W", "X", "Y"]),
         "edge ['W', 'X', 'Y'] is not two names"),
        ("classify", lambda d: d["edges"].append(["W"]), "edge ['W'] is not two names"),
        ("identify", lambda d: d.__delitem__("axes"), "missing field 'axes'"),
        ("classify", lambda d: d.__delitem__("edges"), "missing field 'edges'"),
        ("identify", lambda d: json.dumps([d]), "the top level is not a JSON object"),
        ("classify", lambda d: json.dumps([d]), "the top level is not a JSON object"),
    ], ids=["nan-joint", "cardinality-99", "cyclic-graph", "undeclared-node",
            "cardinality-2.7", "deeply-nested", "numeric-axis-name", "nodes-string",
            "edges-strings", "values-string", "values-nested", "levels-string",
            "levels-booleans", "duplicate-node", "duplicate-edge", "edge-of-three",
            "edge-of-one", "axes-missing", "edges-missing", "joint-array", "graph-array"])
    def test_bad_joint_or_graph_file_exit_2(self, tmp_path, capsys, fig2a_files,
                                            verb, edit, reason):
        m, _, _ = fig2a_files
        d = (observed_joint(m) if verb == "identify" else FIGURES["fig2a"]).to_dict()
        text = edit(d) or json.dumps(d)
        path = tmp_path / "bad.json"
        path.write_text(text)
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

    @pytest.mark.parametrize("argv,error,reason", [
        (_RELABEL + ["--tau", "abc"], "ValidationError", "bad --tau 'abc'"),
        (_RELABEL + ["--tau", "0"], "ValidationError", "quantile rank must lie in (0, 1]"),
        (_RELABEL + ["--tau", "1.5"], "ValidationError", "quantile rank must lie in (0, 1]"),
        (_IDENTIFY[:3] + ["--latent-dim", "-1", "--joint", "{joint}"], "ValidationError",
         "--latent-dim must be at least 1"),
        (_IDENTIFY[:3] + ["--latent-dim", "0", "--joint", "{joint}"], "ValidationError",
         "--latent-dim must be at least 1"),
        # the reports depend on their input alone: only simulate keeps a --seed
        (_IDENTIFY + ["--seed", "3"], "ValidationError", "unrecognized arguments: --seed 3"),
        (_RELABEL + ["--seed", "3"], "ValidationError", "unrecognized arguments: --seed 3"),
        (_BOUNDS + ["--seed", "3"], "ValidationError", "unrecognized arguments: --seed 3"),
        (_IDENTIFY + ["--report", "{missing}"], "ValidationError", "cannot write"),
        (_IDENTIFY + ["--csv", "{missing}"], "ValidationError", "cannot write"),
        # a full device refuses at the flush on close, not at open or write
        (_IDENTIFY + ["--report", "/dev/full"], "ValidationError", "cannot write /dev/full"),
        (_IDENTIFY + ["--csv", "/dev/full"], "ValidationError", "cannot write /dev/full"),
        (_BOUNDS[:3] + ["--latent-dim", "9", "--joint", "{joint}"], "ValidationError",
         "latent dimension 9 exceeds"),
        (["bounds", "--design", "auxiliary", "--latent-dim", "2", "--joint", "{joint}"],
         "ValidationError", "the auxiliary design needs exactly the axes"),
        (["identify", "--design", "treatment", "--latent-dim", "2", "--joint", "{aux_joint}"],
         "ValidationError", "the treatment design needs exactly the axes"),
        (["classify", "--graph", "{graph}"], "MissingRole",
         "graph lacks a node for core role 'W'"),
        (["dag-check", "--graph", "{graph}", "--proposition", "1"], "MissingRole",
         "graph lacks a node for role"),
        (["simulate", "--model", "{huge_joint}"], "EnumerationTooLarge",
         "would hold 100000000 cells, over the 10000000 guard"),
        (["oracle", "--model", "{huge_oracle}"], "EnumerationTooLarge",
         "would hold 20000000 cells, over the 10000000 guard"),
        (["classify", "--figure", "nope"], "ValidationError", "no builtin figure 'nope'"),
        (["dag-check", "--figure", "fig2a", "--proposition", "99"], "ValidationError",
         "no proposition 99; have [1, 2, 3, 4, 5, 6, 7]"),
        # refused by the argument parser, through the same JSON diagnostic
        (["classify", "--figure", "fig1b", "--graph", "/nonexistent.json"], "ValidationError",
         "triproxy classify: argument --graph: not allowed with argument --figure"),
        (["dag-check", "--figure", "fig2a", "--graph", "{graph}", "--proposition", "1"],
         "ValidationError",
         "triproxy dag-check: argument --graph: not allowed with argument --figure"),
        (["classify"], "ValidationError",
         "triproxy classify: one of the arguments --graph --figure is required"),
        (["dag-check", "--proposition", "1"], "ValidationError",
         "triproxy dag-check: one of the arguments --graph --figure is required"),
    ], ids=["relabel-tau-abc", "relabel-tau-0", "relabel-tau-1.5", "latent-dim-negative",
            "latent-dim-0", "identify-seed", "relabel-seed", "bounds-seed",
            "report-in-missing-dir", "csv-in-missing-dir", "report-to-full-device",
            "csv-to-full-device",
            "bounds-latent-dim-9", "bounds-auxiliary-without-c", "treatment-joint-with-c",
            "classify-graph-without-w", "dag-check-graph-without-w",
            "simulate-oversized-model", "oracle-oversized-model", "classify-unknown-figure",
            "dag-check-unknown-proposition", "classify-figure-and-graph",
            "dag-check-figure-and-graph", "classify-no-graph", "dag-check-no-graph"])
    def test_bad_input_exit_2(self, tmp_path, capsys, fig2a_files, argv, error, reason):
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
        assert diag["error"] == error
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

    def test_bounds_exit_3_names_assumption(self, tmp_path, capsys):
        m = rank_invariant_bounds_model(2, seed=0, figure="fig6a", constant_cate=True)
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(observed_joint(m).to_dict()))
        code, _, err = run(capsys, "bounds", "--design", "outcome", "--latent-dim", "1",
                           "--joint", str(path))
        assert code == 3
        assert json.loads(err)["assumption"]


def readme_block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``section``."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {section}", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[list[str]]:
    """The command lines of the README's ``## Command line`` block."""
    block = readme_block("Command line", "sh")
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


def test_readme_quick_example_runs(capsys):
    """The README's Python example prints the exact effects of its model."""
    exec(readme_block("Quick example", "python"), {})
    ate, att, *_ = capsys.readouterr().out.split()
    truth = effects(figure_model("fig2a", K=2, seed=0))
    assert abs(float(ate) - truth["ate"]) < 1e-12
    assert abs(float(att) - truth["att"]) < 1e-12


def test_classify_refuses_too_many_role_assignments_at_once(tmp_path):
    """60 children of Y give 60 * 59 * 58 assignments of three proxy roles;
    trying them all took about 46 s, so classify must refuse up front."""
    nodes = ["Y", "X", "W"] + [f"P{i}" for i in range(60)]
    edges = [["X", "Y"], ["W", "X"], ["W", "Y"]] + [["Y", n] for n in nodes[3:]]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    src = str(Path(triproxy.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "triproxy.cli", "classify", "--graph",
                          str(graph)], capture_output=True, text=True, timeout=5,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    diag = json.loads(out.stderr)
    assert diag["error"] == "EnumerationTooLarge"
    assert f"205320 assignments of 3 proxy roles, over the " \
           f"{tolerances.ROLE_ASSIGNMENT_GUARD} guard" in diag["message"]


def test_classify_refuses_a_long_chain_at_once(tmp_path):
    """W -> X -> Y -> N0 -> ... on 20,000 nodes: the graph is built in one pass
    over its edges (a scan of every edge per node took about 18 s) and
    classify refuses its role assignments before trying any."""
    nodes = ["W", "X", "Y"] + [f"N{i}" for i in range(19_997)]
    edges = [["W", "X"], ["W", "Y"]] + [[a, b] for a, b in zip(nodes[1:], nodes[2:])]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    src = str(Path(triproxy.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "triproxy.cli", "classify", "--graph",
                          str(graph)], capture_output=True, text=True, timeout=10,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert json.loads(out.stderr)["error"] == "EnumerationTooLarge"


def test_non_finite_report_is_refused_and_not_written(tmp_path):
    """Outcome levels near the top of the float range: the stratum-effect
    variance overflows to inf, so the report cannot be strict JSON.  The
    verb exits 2 with one JSON diagnostic naming the field, and writes
    neither the report nor the CSV."""
    d = observed_joint(figure_model("fig2a", 2, seed=0)).to_dict()
    (y,) = [a for a in d["axes"] if a["name"] == "Y"]
    y["levels"] = [0, 1e200, 2e200]
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps(d))
    report, table = tmp_path / "report.json", tmp_path / "effects.csv"
    src = str(Path(triproxy.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "triproxy.cli", "identify", "--design",
                          "outcome", "--latent-dim", "2", "--joint", str(joint),
                          "--report", str(report), "--csv", str(table)],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    (line,) = out.stderr.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "ValidationError"
    assert "/result/estimands/var_beta is inf" in diag["message"]
    assert not report.exists() and not table.exists()


#: what the ``triproxy`` console script runs
CONSOLE_ENTRY = "import sys; from triproxy.cli import main; sys.exit(main())"


def _console(*argv: str, probe: str = "") -> subprocess.CompletedProcess:
    """A verb run as a fresh process through the console script's entry,
    after ``probe`` (Python source) has run in it."""
    src = str(Path(triproxy.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", f"{probe}\n{CONSOLE_ENTRY}", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("verb", ["oracle", "simulate"])
def test_model_listing_a_parent_twice_is_refused(tmp_path, verb):
    """fig2a's Y lists W twice and its table is widened to the extra axis, so
    every shape check passes; the model's graph would have the edge W -> Y
    twice, and both verbs that read a model refuse it."""
    d = figure_model("fig2a", 2, seed=0).to_dict()
    (y,) = [n for n in d["nodes"] if n["name"] == "Y"]
    table = np.reshape(y["table"], (2, 2, y["noise_card"]))     # (X, W, noise)
    y["parents"] = ["X", "W", "W"]
    y["table"] = np.repeat(table[:, :, None], 2, axis=2).ravel().tolist()
    model = tmp_path / "model.json"
    model.write_text(json.dumps(d))
    out = _console(verb, "--model", str(model))
    assert out.returncode == 2 and out.stdout == ""
    (line,) = out.stderr.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "ValidationError"
    assert "Y: parent 'W' listed twice" in diag["message"]


@pytest.mark.parametrize("verb", ["oracle", "simulate"])
def test_model_listing_a_latent_node_twice_is_refused(tmp_path, capsys, verb):
    """A latent node listed twice would count as two latent nodes; both verbs
    that read a model refuse it with the repeated name, before any joint."""
    d = figure_model("fig2a", 2, seed=0).to_dict()
    d["latent"] = ["W", "W"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(d))
    code, out, err = run(capsys, verb, "--model", str(model))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "ValidationError"
    assert "latent node 'W' listed twice" in diag["message"]


def test_warnings_of_a_refused_verb_are_dropped_and_of_a_finished_one_kept(
        tmp_path, capsys, monkeypatch):
    """A verb's warnings are held back while it runs.  The overflowing joint
    above, run in-process under the suite's "error" filter, still ends in the
    one-line refusal; a verb that returns re-issues what triproxy's arithmetic
    warned, so that filter and the user still see it."""
    d = observed_joint(figure_model("fig2a", 2, seed=0)).to_dict()
    (y,) = [a for a in d["axes"] if a["name"] == "Y"]
    y["levels"] = [0, 1e200, 2e200]
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps(d))
    code, out, err = run(capsys, "identify", "--design", "outcome", "--latent-dim", "2",
                         "--joint", str(joint))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "ValidationError"

    classify = cli._cmd_classify

    def overflowing(args):
        code = classify(args)
        warnings.warn_explicit("overflow encountered in square", RuntimeWarning,
                               cli.__file__, 1, module="triproxy.pipelines")
        return code

    monkeypatch.setattr(cli, "_cmd_classify", overflowing)
    with pytest.warns(RuntimeWarning, match="overflow encountered in square"):
        code, out, _ = run(capsys, "classify", "--figure", "fig1b")
    assert code == 0 and _result(out)["designs"] == ["double-proxy"]


def test_verb_process_freezes_the_collector_only_at_exit():
    """A verb's process moves its live objects to the collector's permanent
    generation at exit, so finalization's collections skip them.  The probe's
    atexit handler is registered before ``triproxy.cli`` registers its own,
    so it runs after it (handlers run last in, first out).  This process has
    imported ``triproxy.cli`` too, and nothing in it is frozen."""
    probe = ("import atexit, gc; "
             "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0))")
    out = _console("classify", "--figure", "fig1b", probe=probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "frozen at exit True"
    assert gc.get_freeze_count() == 0


def test_verb_process_writes_the_same_files_as_an_in_process_call(tmp_path, fig2a_files):
    """Everything a verb writes is written and closed before the collector
    is frozen: the report and CSV of a fresh ``identify`` process are
    byte-equal to those of an in-process ``main`` call."""
    _, _, joint = fig2a_files
    argv = ["identify", "--design", "outcome", "--latent-dim", "2", "--joint", joint]

    def outputs(where):
        return ["--report", str(tmp_path / f"{where}.json"),
                "--csv", str(tmp_path / f"{where}.csv")]

    out = _console(*argv, *outputs("process"))
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert main([*argv, *outputs("call")]) == 0
    for ext in ("json", "csv"):
        assert (tmp_path / f"process.{ext}").read_bytes() == (tmp_path / f"call.{ext}").read_bytes()
    assert b"qte" in (tmp_path / "call.csv").read_bytes()


def test_cli_import_loads_no_scipy():
    src = str(Path(triproxy.__file__).parents[1])
    probe = ("import sys, triproxy.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
