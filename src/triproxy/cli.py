"""Batch command-line front door.

Verbs::

    simulate    exact observed joint from a model
    oracle      exact effect summaries from a model's cross-world joint
    identify    run an identification pipeline on an observed joint
    relabel     identify + resolve the latent labeling
    bounds      rank-invariance partial identification
    dag-check   certify a proposition's conclusions on a graph
    classify    list designs whose graphical prerequisites a graph satisfies
    end-to-end  builtin fixture: simulate -> classify -> identify, checked
                against a stored golden report

Exit codes: 0 success, 2 validation problem (bad files, bad flags,
unsatisfied preconditions), 3 identification failure.  Identification
failures print a machine-readable JSON diagnostic to stderr naming the
violated assumption.  Reports embed the tool version, a hash of the
resolved configuration, and every numerical tolerance used, and are
serialized canonically so equal runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from contextlib import contextmanager
from importlib import resources

import numpy as np

from . import __version__
from .bounds import POINT_TOL, bounds_auxiliary_proxy, bounds_outcome_proxy
from .errors import (EnumerationTooLarge, GoldenMismatch, IdentificationRefused,
                     MissingLevels, MissingRole, NonBinaryTreatment, TriproxyError,
                     UnknownNode, ValidationError)
from .graphs import FIGURES, PROPOSITIONS, Dag, check_proposition, classify_designs
from .pipelines import (ASSEMBLY_MASS_TOL, COND_GUARD, PROJECTION_TOL, EstimandReport,
                        estimands, identify_auxiliary_proxy, identify_cond_treatment_proxy,
                        identify_outcome_proxy, identify_treatment_proxy)
from .prob import MASS_TOL, ProbTensor
from .relabel import RelabelRule, relabel_monotone, relabel_unbiased
from .scm import Npsem, effects, observed_joint
from .spectral import EIGEN_GAP_TOL, IMAG_TOL, NEG_TOL, RANK_TOL

REPORT_FORMAT = 2

PIPELINES = {
    "outcome": (identify_outcome_proxy, ("Y", "Z", "V", "X")),
    "treatment": (identify_treatment_proxy, ("Y", "Z", "V", "X")),
    "cond-treatment": (identify_cond_treatment_proxy, ("Y", "Z", "V", "X")),
    "auxiliary": (identify_auxiliary_proxy, ("Y", "C", "Z", "V", "X")),
}

GOLDEN_TOL = 1e-9

TOLERANCES = {
    "mass_tol": MASS_TOL,
    "rank_tol": RANK_TOL,
    "eigen_gap_tol": EIGEN_GAP_TOL,
    "imag_tol": IMAG_TOL,
    "neg_tol": NEG_TOL,
    "cond_guard": COND_GUARD,
    "projection_tol": PROJECTION_TOL,
    "assembly_mass_tol": ASSEMBLY_MASS_TOL,
    "point_identified_tol": POINT_TOL,
    "golden_tol": GOLDEN_TOL,
}


# ---------------------------------------------------------------------------
# plumbing


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _config_hash(args: argparse.Namespace) -> str:
    skip = {"func", "out", "report", "csv"}  # output paths don't shape content
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return hashlib.sha256(_canonical_json(cfg).encode()).hexdigest()[:16]


def _report(args, verb: str, result: dict) -> dict:
    return {"tool": "triproxy", "version": __version__,
            "report_format": REPORT_FORMAT, "verb": verb,
            "config_hash": _config_hash(args), "tolerances": TOLERANCES,
            "result": result}


@contextmanager
def _invalid(what: str, errors=(TriproxyError, KeyError, TypeError, ValueError)):
    """Re-raise ``errors`` as a validation problem, prefixed by ``what``."""
    try:
        yield
    except errors as e:
        raise ValidationError(f"{what}{e}") from e


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with _invalid(f"cannot write {path}: ", OSError), \
            open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write(path: str | None, report: dict) -> None:
    _write_text(path, _canonical_json(report) + "\n")


def _load_json(path: str) -> dict:
    with _invalid(f"cannot read {path}: ", (OSError, ValueError)), \
            open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_model(path: str) -> Npsem:
    d = _load_json(path)
    with _invalid(f"bad model file {path}: "):
        return Npsem.from_dict(d)


def _load_tensor(path: str) -> ProbTensor:
    d = _load_json(path)
    if isinstance(d, dict) and d.get("verb") == "simulate":   # a simulate report
        d = d.get("result")
    with _invalid(f"bad tensor file {path}: "):
        return ProbTensor.from_dict(d)


def _estimand_result(rep: EstimandReport) -> dict:
    return {
        "y_levels": list(rep.y_levels),
        "pot_y": [[float(v) for v in row] for row in rep.pot_y.tolist()],
        "pot_y_given_x": [[[float(v) for v in c] for c in r]
                          for r in rep.pot_y_given_x.tolist()],
        "ate": rep.ate, "att": rep.att, "atu": rep.atu,
        "qte_taus": list(rep.qte_taus), "qte": rep.qte.tolist(),
        "beta": rep.beta.tolist(),
        "w_marginal": rep.w_marginal.tolist(),
        "beta_atoms": rep.beta_atoms.tolist(),
        "beta_cdf": rep.beta_cdf.tolist(),
        "beta_cdf_given_x": [list(r) for r in rep.beta_cdf_given_x.tolist()],
        "var_beta": rep.var_beta,
    }


def _write_csv(path: str, rep: EstimandReport) -> None:
    """RFC-4180 CSV of the QTE grid and the effect-distribution atoms."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["table", "key", "value", "value_x0", "value_x1"])
    for t, q in zip(rep.qte_taus, rep.qte):
        w.writerow(["qte", repr(float(t)), repr(float(q)), "", ""])
    for a, c, (c0, c1) in zip(rep.beta_atoms, rep.beta_cdf, rep.beta_cdf_given_x):
        w.writerow(["beta_cdf", repr(float(a)), repr(float(c)),
                    repr(float(c0)), repr(float(c1))])
    _write_text(path, buf.getvalue())


def _check_joint(joint: ProbTensor, design: str, k: int) -> tuple[str, ...]:
    """The axis order of ``design``, once ``joint`` has exactly its axes and
    proxies with at least ``k`` levels."""
    order = PIPELINES[design][1]
    if sorted(order) != sorted(joint.names):
        raise ValidationError(f"the {design} design needs exactly the axes "
                              f"{sorted(order)}; the joint has {sorted(joint.names)}")
    for proxy in ("Z", "V"):
        card = joint.axis(proxy).cardinality
        if card < k:
            raise ValidationError(
                f"latent dimension {k} exceeds |{proxy}| = {card}; the design "
                f"needs |Z|, |V| >= K")
    return order


def _identify(joint: ProbTensor, design: str, k: int, seed: int):
    order = _check_joint(joint, design, k)
    model = PIPELINES[design][0](joint.reorder(order), k, seed=seed)
    return estimands(model), model


def _taus(text: str) -> tuple[float, ...]:
    with _invalid(f"bad --tau {text!r}: ", ValueError):
        taus = tuple(float(t) for t in text.split(","))
    if not all(0.0 < t <= 1.0 for t in taus):
        raise ValidationError(f"--tau {text!r}: every quantile rank must lie in (0, 1]")
    return taus


# ---------------------------------------------------------------------------
# verbs


def _cmd_simulate(args) -> int:
    m = _load_model(args.model)
    with _invalid("", EnumerationTooLarge):
        joint = observed_joint(m)
    _write(args.out, _report(args, "simulate", joint.to_dict()))
    return 0


#: oracle report key -> field of :func:`triproxy.scm.effects`
ORACLE_FIELDS = {"ate": "ate", "att": "att", "atu": "atu", "beta_by_state": "cate",
                 "w_marginal": "w", "pot_y": "pot_y"}


def _cmd_oracle(args) -> int:
    m = _load_model(args.model)
    with _invalid("", (MissingRole, UnknownNode, EnumerationTooLarge)):
        eff = effects(m, treatment=args.treatment, outcome=args.outcome)
    result = {key: np.asarray(eff[field]).tolist() for key, field in ORACLE_FIELDS.items()}
    _write(args.out, _report(args, "oracle", result))
    return 0


def _cmd_identify(args) -> int:
    joint = _load_tensor(args.joint)
    rep, model = _identify(joint, args.design, args.latent_dim, args.seed)
    result = {"design": args.design, "latent_dim": args.latent_dim,
              "estimands": _estimand_result(rep)}
    _write(args.report, _report(args, "identify", result))
    if args.csv:
        _write_csv(args.csv, rep)
    return 0


def _cmd_relabel(args) -> int:
    taus = _taus(args.tau)
    joint = _load_tensor(args.joint)
    _, model = _identify(joint, args.design, args.latent_dim, args.seed)
    functional, mode = args.rule.rsplit("-", 1)
    rule = RelabelRule(functional=functional, mode=mode)
    if mode == "unbiased":
        lab = relabel_unbiased(model, rule)
        result = {"mode": mode, "alpha": lab.alpha.tolist(),
                  "w_marginal": lab.w_marginal.tolist(),
                  "beta_by_label": dict(zip(map(repr, lab.alpha.tolist()),
                                            lab.beta().tolist()))}
    else:
        lab = relabel_monotone(model, rule, taus)
        result = {"mode": mode, "alpha": lab.alpha.tolist(),
                  "beta_by_tau": {repr(t): lab.beta_at_quantile(t) for t in taus}}
    _write(args.report, _report(args, "relabel", result))
    return 0


def _cmd_bounds(args) -> int:
    joint = _load_tensor(args.joint)
    _check_joint(joint, args.design, args.latent_dim)
    fn = bounds_outcome_proxy if args.design == "outcome" else bounds_auxiliary_proxy
    rep = fn(joint, args.latent_dim, seed=args.seed)
    result = {"design": args.design, "s_lower": rep.s_lower, "s_upper": rep.s_upper,
              "att_interval": list(rep.att_interval),
              "atu_interval": list(rep.atu_interval),
              "point_identified": rep.point_identified,
              "diagnostics": rep.diagnostics}
    if rep.per_v_lower is not None:
        result["per_v_lower"] = rep.per_v_lower.tolist()
        result["per_v_upper"] = rep.per_v_upper.tolist()
    _write(args.report, _report(args, "bounds", result))
    return 0


def _load_graph(args) -> Dag:
    if args.figure:
        if args.figure not in FIGURES:
            raise ValidationError(f"no builtin figure {args.figure!r}")
        return FIGURES[args.figure]
    if not args.graph:
        raise ValidationError("provide --graph FILE or --figure NAME")
    d = _load_json(args.graph)
    with _invalid("bad graph file: "):
        return Dag.from_dict(d)


def _cmd_dag_check(args) -> int:
    g = _load_graph(args)
    if args.proposition not in PROPOSITIONS:
        raise ValidationError(f"no proposition {args.proposition}; have "
                              f"{sorted(PROPOSITIONS)}")
    with _invalid("", MissingRole):
        rep = check_proposition(g, args.proposition)
    result = {"proposition": rep.proposition,
              "all_observational_certified": rep.all_observational_certified,
              "conclusions": [
                  {"label": c.label, "kind": c.kind, "statement": c.statement,
                   "certified": c.certified, "graphical_hint": c.graphical_hint}
                  for c in rep.conclusions]}
    _write(args.report, _report(args, "dag-check", result))
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args)
    with _invalid("", MissingRole):
        designs = sorted(classify_designs(g))
    _write(args.report, _report(args, "classify", {"designs": designs}))
    return 0


# ---------------------------------------------------------------------------
# builtin end-to-end fixtures

FIXTURE_DESIGN = {"fig1a-early-late-tests": "outcome",
                  "fig1d-auxiliary": "auxiliary",
                  "fig1b-double-only": None}

FIXTURES = tuple(FIXTURE_DESIGN)


def _fixture_payload(name: str) -> dict:
    if name not in FIXTURES:
        raise ValidationError(f"no builtin fixture {name!r}; have {list(FIXTURES)}")
    ref = resources.files("triproxy").joinpath(f"fixtures/{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def run_fixture(name: str) -> dict:
    """simulate -> classify -> identify on a builtin fixture; returns the
    fresh report (golden comparison happens in the caller)."""
    payload = _fixture_payload(name)
    m = Npsem.from_dict(payload["model"])
    joint = observed_joint(m)
    designs = sorted(classify_designs(m.graph()))
    design = FIXTURE_DESIGN[name]
    triple = [d for d in designs if d in PIPELINES]
    result: dict = {"fixture": name, "designs": designs}
    if design is None:
        if triple:
            raise GoldenMismatch(f"fixture {name} unexpectedly supports {triple}")
        raise IdentificationRefused(
            f"graph of fixture {name!r} certifies no identification design "
            f"(designs found: {designs or 'none'})",
            assumption="graphical prerequisites: no certified design")
    k = payload["latent_dim"]
    rep, _ = _identify(joint, design, k, seed=payload.get("seed", 0))
    result["design"] = design
    result["estimands"] = _estimand_result(rep)
    return result


def compare_golden(fresh: dict, golden: dict, tol: float = GOLDEN_TOL,
                   path: str = "") -> list[str]:
    diffs: list[str] = []
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            if key not in golden or key not in fresh:
                diffs.append(f"{path}/{key}: present on one side only")
                continue
            diffs.extend(compare_golden(fresh[key], golden[key], tol,
                                        f"{path}/{key}"))
    elif isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            diffs.append(f"{path}: length {len(fresh)} != {len(golden)}")
        else:
            for i, (f, g) in enumerate(zip(fresh, golden)):
                diffs.extend(compare_golden(f, g, tol, f"{path}[{i}]"))
    elif isinstance(golden, (int, float)) and isinstance(fresh, (int, float)) \
            and not isinstance(golden, bool) and not isinstance(fresh, bool):
        if abs(float(fresh) - float(golden)) > tol:
            diffs.append(f"{path}: {fresh!r} != {golden!r}")
    elif fresh != golden:
        diffs.append(f"{path}: {fresh!r} != {golden!r}")
    return diffs


def _cmd_end_to_end(args) -> int:
    payload = _fixture_payload(args.fixture)
    result = run_fixture(args.fixture)
    diffs = compare_golden(result, payload["golden"])
    if diffs:
        raise GoldenMismatch("golden mismatch: " + "; ".join(diffs[:20]))
    _write(args.report, _report(args, "end-to-end", result))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="triproxy", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb", required=True)

    sim = sub.add_parser("simulate", help="observed joint from a model file")
    sim.add_argument("--model", required=True)
    sim.add_argument("--seed", type=int, default=0,
                     help="ignored: the exact joint does not depend on a seed")
    sim.add_argument("--out", default="-")
    sim.set_defaults(func=_cmd_simulate)

    orc = sub.add_parser("oracle", help="exact counterfactual effect summaries")
    orc.add_argument("--model", required=True)
    orc.add_argument("--treatment", default="X")
    orc.add_argument("--outcome", default="Y")
    orc.add_argument("--out", default="-")
    orc.set_defaults(func=_cmd_oracle)

    ide = sub.add_parser("identify", help="run an identification pipeline")
    ide.add_argument("--design", required=True, choices=sorted(PIPELINES))
    ide.add_argument("--latent-dim", type=int, required=True)
    ide.add_argument("--joint", required=True)
    ide.add_argument("--seed", type=int, default=0)
    ide.add_argument("--report", default="-")
    ide.add_argument("--csv", default=None)
    ide.set_defaults(func=_cmd_identify)

    rel = sub.add_parser("relabel", help="identify and resolve latent labels")
    rel.add_argument("--design", required=True, choices=sorted(PIPELINES))
    rel.add_argument("--latent-dim", type=int, required=True)
    rel.add_argument("--joint", required=True)
    rel.add_argument("--rule", required=True,
                     choices=("mean-unbiased", "median-unbiased", "mean-monotone"))
    rel.add_argument("--tau", default="0.25,0.5,0.75")
    rel.add_argument("--seed", type=int, default=0)
    rel.add_argument("--report", default="-")
    rel.set_defaults(func=_cmd_relabel)

    bnd = sub.add_parser("bounds", help="rank-invariance bounds")
    bnd.add_argument("--design", required=True, choices=("outcome", "auxiliary"))
    bnd.add_argument("--latent-dim", type=int, required=True)
    bnd.add_argument("--joint", required=True)
    bnd.add_argument("--seed", type=int, default=0)
    bnd.add_argument("--report", default="-")
    bnd.set_defaults(func=_cmd_bounds)

    dag = sub.add_parser("dag-check", help="certify proposition conclusions")
    dag.add_argument("--graph", default=None)
    dag.add_argument("--figure", default=None)
    dag.add_argument("--proposition", type=int, required=True)
    dag.add_argument("--report", default="-")
    dag.set_defaults(func=_cmd_dag_check)

    cls = sub.add_parser("classify", help="list certified designs")
    cls.add_argument("--graph", default=None)
    cls.add_argument("--figure", default=None)
    cls.add_argument("--report", default="-")
    cls.set_defaults(func=_cmd_classify)

    e2e = sub.add_parser("end-to-end", help="golden-checked builtin fixture run")
    e2e.add_argument("--fixture", required=True)
    e2e.add_argument("--report", default="-")
    e2e.set_defaults(func=_cmd_end_to_end)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if getattr(args, "latent_dim", 1) < 1:
            raise ValidationError(f"--latent-dim must be at least 1, got {args.latent_dim}")
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ValidationError, MissingLevels, NonBinaryTreatment) as e:
        diag = {"error": type(e).__name__, "message": str(e),
                "assumption": e.assumption}
        sys.stderr.write(_canonical_json(diag) + "\n")
        return 2
    except TriproxyError as e:
        diag = {"error": type(e).__name__, "message": str(e),
                "assumption": e.assumption}
        sys.stderr.write(_canonical_json(diag) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
