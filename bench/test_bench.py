"""Tests of the benchmark's own machinery.

Run from the repository root::

    python -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import triproxy  # noqa: E402
import triproxy.cli  # noqa: E402
import triproxy.generators as generators  # noqa: E402
import triproxy.pipelines as pipelines  # noqa: E402
import triproxy.prob as prob  # noqa: E402
import triproxy.scm as scm  # noqa: E402
from triproxy.errors import IdentificationRefused  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402


def _bindings() -> dict:
    """Every function-valued name the tracer may rebind, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "triproxy" or name.startswith("triproxy.")):
            continue
        for key, value in vars(mod).items():
            if callable(value):
                out[(name, key)] = value
    out[("cli.PIPELINES",)] = dict(triproxy.cli.PIPELINES)
    out[("ProbTensor.from_dict",)] = prob.ProbTensor.__dict__["from_dict"]
    return out


class _Tiny(workloads.Workload):
    """One identification op and one spectral round trip, built cheaply."""

    name = "tiny"
    trace_passes = 1

    def setup(self, rep):
        m = generators.figure_model("fig2a", K=2, seed=0)
        truth = oracle.oracle_effects(m)
        rng = np.random.default_rng(0)
        return [workloads.identify_op("fig2a/K2", "fig2a", 2, scm.observed_joint(m), truth),
                workloads.round_trip_op("spectral/K3", rng, 3)]


def _traced_tiny():
    args = types.SimpleNamespace(seed=0, seconds=1.0, trace=1)
    return run.run_traced(_Tiny(0, ROOT), args)


def test_wrappers_are_removed_and_originals_restored():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert pipelines.hs_decompose is not before[("triproxy.pipelines", "hs_decompose")]
        assert triproxy.bounds.hs_decompose is not before[("triproxy.bounds", "hs_decompose")]
        assert (triproxy.cli.PIPELINES["outcome"][0]
                is not before[("cli.PIPELINES",)]["outcome"][0])
        assert prob.ProbTensor.__dict__["from_dict"] is not before[("ProbTensor.from_dict",)]
    finally:
        tracer.uninstall()
    assert _bindings() == before

    metrics, outcomes, info = _traced_tiny()
    assert not tracer.installed
    assert all(o.ok for o in outcomes), [o.detail for o in outcomes]
    assert metrics["pipelines.identify.calls"] >= 1
    assert metrics["spectral.hs_decompose.calls"] >= 2
    assert _bindings() == before


def test_self_time_on_a_synthetic_span_tree():
    spans = [Span(0, None, "op", "root", 0.0, 10.0),
             Span(1, 0, "op", "a", 1.0, 4.0),
             Span(2, 0, "op", "b", 3.0, 6.0),      # overlaps a
             Span(3, 1, "op", "c", 2.0, 3.0),
             Span(4, 0, "op", "d", 9.0, 12.0),     # runs past its parent
             Span(5, None, "op", "a", 20.0, 21.5)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)   # covered: [1, 6] and [9, 10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.5)
    totals = layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_ms"] == pytest.approx(3500.0)


def test_result_perturbed_by_1e_5_is_a_failed_op():
    m = generators.figure_model("fig2a", K=2, seed=0)
    truth = oracle.oracle_effects(m)
    rep = pipelines.estimands(pipelines.identify_outcome_proxy(scm.observed_joint(m), 2))
    assert oracle.check_effects(rep, truth) == []

    for field, value in (("ate", rep.ate + 1e-5), ("att", rep.att - 1e-5),
                         ("pot_y", rep.pot_y + np.array([[1e-5, 0.0]] + [[0.0, 0.0]]
                                                        * (rep.pot_y.shape[0] - 1)))):
        bad = dataclasses.replace(rep, **{field: value})
        outcome = run.execute(workloads.Op("fig2a/K2", lambda: bad,
                                           lambda got: oracle.check_effects(got, truth)))
        assert not outcome.ok and outcome.failed, field

    shifted = dataclasses.replace(rep, beta_atoms=rep.beta_atoms + 1e-5)
    assert oracle.check_effects(shifted, truth)


def test_only_generator_refusals_are_expected(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise IdentificationRefused("stubbed refusal")

    assert run.execute(workloads.sweep_op("fig2a/K2", "fig2a", 2, seed=0)).ok
    monkeypatch.setattr(generators, "figure_model", refuse)
    refused = run.execute(workloads.sweep_op("fig2a/K2", "fig2a", 2, seed=0))
    assert refused.status == "refused" and not refused.failed
    monkeypatch.undo()

    monkeypatch.setattr(pipelines, "identify_outcome_proxy", refuse)
    outcome = run.execute(workloads.sweep_op("fig2a/K2", "fig2a", 2, seed=0))
    assert outcome.status == "error" and outcome.failed

    # a whole run whose identification refuses exits 1 with "correct": false
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _Tiny)
    capsys.readouterr()
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_self_times_never_exceed_op_wall_time():
    metrics, outcomes, info = _traced_tiny()
    spans = [Span(**{k: v for k, v in s.items()}) for s in info["spans"]]
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    ops = [s for s in spans if s.name == "op"]
    assert ops
    for op in ops:
        inside = [s for s in spans if s.op == op.op]
        assert all(by_id[s.parent].op == op.op for s in inside if s is not op)
        assert sum(own[s.id] for s in inside) <= (op.end - op.start) + 1e-9


def test_known_defect_probes_count_only_when_they_fail_otherwise(monkeypatch, capsys):
    def known_op(run_):
        return workloads.Op("relabel/probe", run_,
                            lambda got: oracle.check_close(got, [0.0], "relabeled CATE",
                                                           oracle.EFFECT_TOL),
                            ("a listed defect", "relabeled CATE off by"))

    assert run.execute(known_op(lambda: [1.0])).status == "known"
    assert run.execute(known_op(lambda: [0.0])).ok
    assert run.execute(known_op(lambda: 1 / 0)).failed

    class _Probed(_Tiny):
        probe = staticmethod(lambda: [1.0])

        def setup(self, rep):
            self.known = [known_op(self.probe)]
            return super().setup(rep)

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _Probed)
    capsys.readouterr()
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert any(line.startswith("# known defect relabel/probe: reproduces") for line in out)

    _Probed.probe = staticmethod(lambda: 1 / 0)
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0"]) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["failed"] == 1


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        400 |     scipy.linalg._misc",
        "import time:        10 |        410 |   scipy.linalg",
        "import time:       900 |       1620 | triproxy.cli",
        '{"error": "ValidationError"}',
    ])
    assert workloads.parse_importtime(stderr) == pytest.approx({"cli": 1.62, "scipy": 0.71})


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (24, 132, 1026):
        p = run.tail_percentile(n)
        assert n * (1 - p / 100) >= 10
        assert n * (1 - (p + 1) / 100) < 10 or p == 50
