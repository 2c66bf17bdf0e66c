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
unsatisfied preconditions), 3 identification failure.  Both failures print
one machine-readable JSON diagnostic to stderr: the class of the error
raised, its message and the violated assumption, if any.  Reports embed the tool version, a hash of the
resolved configuration, the sha256 of each input file by its flag, and
every numerical tolerance used (each constant of :mod:`triproxy.tolerances`,
under its lower-cased name), and are serialized canonically so equal runs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import hashlib
import io
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields
from importlib import resources

from . import __version__, tolerances
from ._np import np
from .bounds import bounds_auxiliary_proxy, bounds_outcome_proxy
from .errors import (EnumerationTooLarge, GoldenMismatch, IdentificationRefused,
                     MissingLevels, MissingRole, NonBinaryTreatment, TriproxyError,
                     UnknownNode, ValidationError)
from .graphs import DESIGNS, FIGURES, PROPOSITIONS, Dag, check_proposition, classify_designs
from .pipelines import (QTE_TAUS, EstimandReport, estimands, identify_auxiliary_proxy,
                        identify_cond_treatment_proxy, identify_outcome_proxy,
                        identify_treatment_proxy)
from .prob import ProbTensor
from .relabel import RelabelRule, relabel_monotone, relabel_unbiased
from .scm import Npsem, effects, observed_joint
from .tolerances import GOLDEN_TOL


def _freeze_heap() -> None:
    """Move every live object to the cyclic collector's permanent generation.

    A verb's process exits right after ``main`` returns, when every report
    and CSV is already written and closed.  Frozen, the objects still alive
    then (about 23,000 after a numerical verb, mostly module-level) are
    skipped by the collections of interpreter finalization, which walked
    them for 8-20 ms only for the OS to reclaim them; Python promises no
    finalizer for objects alive at exit, so nothing a verb writes changes.
    ``gc`` is built in, and imported here so that importing this module
    loads no module more.
    """
    import gc
    gc.freeze()


# runs at exit: the console script and ``python -m triproxy.cli`` get it, and
# in-process callers of ``main`` see no change until their own exit
atexit.register(_freeze_heap)

REPORT_FORMAT = 8

#: design -> (pipeline, the axes its joint must have; the pipeline reads each by name)
PIPELINES = {name: (fn, DESIGNS[name].axes) for name, fn in (
    ("outcome", identify_outcome_proxy), ("treatment", identify_treatment_proxy),
    ("cond-treatment", identify_cond_treatment_proxy),
    ("auxiliary", identify_auxiliary_proxy))}

TOLERANCES = {name.lower(): value for name, value in vars(tolerances).items()
              if name.isupper()}


# ---------------------------------------------------------------------------
# plumbing


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def _config_hash(args: argparse.Namespace) -> str:
    skip = {"func", "out", "report", "csv"}  # output paths don't shape content
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return hashlib.sha256(_canonical_json(cfg).encode()).hexdigest()[:16]


def _report(args, verb: str, result: dict, inputs: dict) -> dict:
    return {"tool": "triproxy", "version": __version__,
            "report_format": REPORT_FORMAT, "verb": verb,
            "config_hash": _config_hash(args), "inputs": inputs,
            "tolerances": TOLERANCES, "result": result}


@contextmanager
def _invalid(what: str,
             errors=(TriproxyError, KeyError, TypeError, ValueError, OverflowError)):
    """Re-raise ``errors`` as a validation problem, prefixed by ``what``."""
    try:
        yield
    except errors as e:
        raise ValidationError(f"{what}{e}") from e


def _non_finite(obj, path: str = "") -> tuple[str, float] | None:
    """The path and value of the first non-finite float in ``obj``, if any."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}/{k}", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite(v, p) for p, v in items)), None)


def _render(report: dict) -> str:
    """``report`` as canonical JSON text; a report holding a non-finite
    number, which strict JSON cannot represent, is refused."""
    try:
        return _canonical_json(report) + "\n"
    except ValueError:
        found = _non_finite(report)
        if found is None:
            raise
        raise ValidationError(
            f"report field {found[0]} is {found[1]!r}: the input's numbers take the "
            f"computation out of floating-point range") from None


def _write(path: str | None, report: dict, *before: tuple[str, str]) -> None:
    """Write ``before``'s ``(path, text)`` pairs, then ``report`` to ``path`` (None or
    ``-``: stdout); if one cannot be written, remove the files this call created."""
    outputs = (*before, (path, _render(report)))
    made = [dest for dest, _ in outputs if dest not in (None, "-") and not os.path.exists(dest)]
    try:
        for dest, text in outputs:
            if dest in (None, "-"):
                sys.stdout.write(text)
                continue
            with _invalid(f"cannot write {dest}: ", OSError), \
                    open(dest, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except ValidationError:
        for dest in filter(os.path.exists, made):
            os.remove(dest)
        raise


def _load_json(path: str, flag: str) -> tuple[dict, dict]:
    """The parsed file, read once, and ``{flag: sha256 of its bytes}``.  The
    bytes are decoded as a UTF-8 text file is, newlines included."""
    with _invalid(f"cannot read {path}: ", (OSError, ValueError, RecursionError)):
        with open(path, "rb") as fh:
            data = fh.read()
        return (json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")),
                {flag: hashlib.sha256(data).hexdigest()})


def _load_model(path: str) -> tuple[Npsem, dict]:
    d, inputs = _load_json(path, "--model")
    with _invalid(f"bad model file {path}: "):
        return Npsem.from_dict(d), inputs


def _load_tensor(path: str) -> tuple[ProbTensor, dict]:
    d, inputs = _load_json(path, "--joint")
    if isinstance(d, dict) and d.get("verb") == "simulate":   # a simulate report
        d = d.get("result")
    with _invalid(f"bad tensor file {path}: "):
        return ProbTensor.from_dict(d), inputs


def _record(rec) -> dict:
    """The fields of the dataclass record ``rec`` as report JSON: arrays and
    tuples become lists, and a ``None`` field is left out."""
    out = {}
    for f in fields(rec):
        value = getattr(rec, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[f.name] = value
    return out


def _estimand_result(rep: EstimandReport) -> dict:
    return {**_record(rep), "qte_taus": list(QTE_TAUS)}


def _csv_text(rep: EstimandReport) -> str:
    """RFC-4180 CSV of the QTE grid and the effect-distribution atoms."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["table", "key", "value", "value_x0", "value_x1"])
    for t, q in zip(QTE_TAUS, rep.qte):
        w.writerow(["qte", repr(float(t)), repr(float(q)), "", ""])
    for a, c, (c0, c1) in zip(rep.beta_atoms, rep.beta_cdf, rep.beta_cdf_given_x):
        w.writerow(["beta_cdf", repr(float(a)), repr(float(c)),
                    repr(float(c0)), repr(float(c1))])
    return buf.getvalue()


def _check_joint(joint: ProbTensor, design: str, k: int) -> None:
    """Refuse ``joint`` unless it has exactly the axes of ``design`` and
    proxies with at least ``k`` levels."""
    axes = sorted(DESIGNS[design].axes)
    if axes != sorted(joint.names):
        raise ValidationError(f"the {design} design needs exactly the axes "
                              f"{axes}; the joint has {sorted(joint.names)}")
    for proxy in ("Z", "V"):
        card = joint.axis(proxy).cardinality
        if card < k:
            raise ValidationError(
                f"latent dimension {k} exceeds |{proxy}| = {card}; the design "
                f"needs |Z|, |V| >= K")


def _identify(joint: ProbTensor, design: str, k: int):
    _check_joint(joint, design, k)
    return PIPELINES[design][0](joint, k)


def _taus(text: str) -> tuple[float, ...]:
    with _invalid(f"bad --tau {text!r}: ", ValueError):
        taus = tuple(float(t) for t in text.split(","))
    if not all(0.0 < t <= 1.0 for t in taus):
        raise ValidationError(f"--tau {text!r}: every quantile rank must lie in (0, 1]")
    return taus


# ---------------------------------------------------------------------------
# verbs


def _cmd_simulate(args) -> int:
    m, inputs = _load_model(args.model)
    joint = observed_joint(m)
    _write(args.out, _report(args, "simulate", joint.to_dict(), inputs))
    return 0


#: oracle report key -> field of :func:`triproxy.scm.effects`
ORACLE_FIELDS = {"ate": "ate", "att": "att", "atu": "atu", "beta_by_state": "cate",
                 "w_marginal": "w", "pot_y": "pot_y"}


def _cmd_oracle(args) -> int:
    m, inputs = _load_model(args.model)
    eff = effects(m)
    result = {key: np.asarray(eff[field]).tolist() for key, field in ORACLE_FIELDS.items()}
    _write(args.out, _report(args, "oracle", result, inputs))
    return 0


def _cmd_identify(args) -> int:
    joint, inputs = _load_tensor(args.joint)
    rep = estimands(_identify(joint, args.design, args.latent_dim))
    result = {"design": args.design, "latent_dim": args.latent_dim,
              "estimands": _estimand_result(rep)}
    csv_out = [(args.csv, _csv_text(rep))] if args.csv else []
    _write(args.report, _report(args, "identify", result, inputs), *csv_out)
    return 0


def _cmd_relabel(args) -> int:
    taus = _taus(args.tau)
    joint, inputs = _load_tensor(args.joint)
    model = _identify(joint, args.design, args.latent_dim)
    functional, mode = args.rule.rsplit("-", 1)
    rule = RelabelRule(functional=functional, mode=mode)
    if mode == "unbiased":
        lab = relabel_unbiased(model, rule)
        result = {"mode": mode, "alpha": lab.alpha.tolist(),
                  "w_marginal": lab.w_marginal.tolist(),
                  "beta_by_label": dict(zip(map(repr, lab.alpha.tolist()),
                                            lab.beta().tolist()))}
    else:
        lab = relabel_monotone(model, rule)
        result = {"mode": mode, "alpha": lab.alpha.tolist(),
                  "beta_by_tau": {repr(t): lab.beta_at_quantile(t) for t in taus}}
    _write(args.report, _report(args, "relabel", result, inputs))
    return 0


def _cmd_bounds(args) -> int:
    joint, inputs = _load_tensor(args.joint)
    _check_joint(joint, args.design, args.latent_dim)
    fn = bounds_outcome_proxy if args.design == "outcome" else bounds_auxiliary_proxy
    result = {"design": args.design, **_record(fn(joint, args.latent_dim))}
    _write(args.report, _report(args, "bounds", result, inputs))
    return 0


def _load_graph(args) -> tuple[Dag, dict]:
    """The builtin ``--figure`` or the ``--graph`` file; the parser takes
    exactly one of them."""
    if args.figure is not None:
        if args.figure not in FIGURES:
            raise ValidationError(f"no builtin figure {args.figure!r}")
        return FIGURES[args.figure], {}
    d, inputs = _load_json(args.graph, "--graph")
    with _invalid("bad graph file: "):
        return Dag.from_dict(d), inputs


def _cmd_dag_check(args) -> int:
    g, inputs = _load_graph(args)
    if args.proposition not in PROPOSITIONS:
        raise ValidationError(f"no proposition {args.proposition}; have "
                              f"{sorted(PROPOSITIONS)}")
    rep = check_proposition(g, args.proposition)
    result = {"proposition": rep.proposition,
              "all_observational_certified": rep.all_observational_certified,
              "conclusions": [asdict(c) for c in rep.conclusions]}
    _write(args.report, _report(args, "dag-check", result, inputs))
    return 0


def _cmd_classify(args) -> int:
    g, inputs = _load_graph(args)
    designs = sorted(classify_designs(g))
    _write(args.report, _report(args, "classify", {"designs": designs}, inputs))
    return 0


# ---------------------------------------------------------------------------
# builtin end-to-end fixtures

def _fixture_payload(name: str) -> dict:
    """The builtin fixture ``name``: one of the files in ``fixtures/``."""
    fixtures = resources.files("triproxy").joinpath("fixtures")
    names = sorted(f.name.removesuffix(".json") for f in fixtures.iterdir()
                   if f.name.endswith(".json"))
    if name not in names:
        raise ValidationError(f"no builtin fixture {name!r}; have {names}")
    return json.loads(fixtures.joinpath(f"{name}.json").read_text(encoding="utf-8"))


def run_fixture(payload: dict) -> dict:
    """simulate -> classify -> identify on a builtin fixture's payload, with
    the pipeline design its graph certifies; returns the fresh report
    (golden comparison happens in the caller)."""
    name = payload["name"]
    m = Npsem.from_dict(payload["model"])
    designs = sorted(classify_designs(m.graph()))
    triple = [d for d in designs if d in PIPELINES]
    if not triple:
        raise IdentificationRefused(
            f"graph of fixture {name!r} certifies no identification design "
            f"(designs found: {designs or 'none'})",
            assumption="graphical prerequisites: no certified design")
    design = triple[0]   # each fixture's graph certifies one pipeline design
    rep = estimands(_identify(observed_joint(m), design, payload["latent_dim"]))
    return {"fixture": name, "designs": designs, "design": design,
            "estimands": _estimand_result(rep)}


def compare_golden(fresh: dict, golden: dict, path: str = "") -> list[str]:
    diffs: list[str] = []
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            if key not in golden or key not in fresh:
                diffs.append(f"{path}/{key}: present on one side only")
                continue
            diffs.extend(compare_golden(fresh[key], golden[key], f"{path}/{key}"))
    elif isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            diffs.append(f"{path}: length {len(fresh)} != {len(golden)}")
        else:
            for i, (f, g) in enumerate(zip(fresh, golden)):
                diffs.extend(compare_golden(f, g, f"{path}[{i}]"))
    elif isinstance(golden, (int, float)) and isinstance(fresh, (int, float)) \
            and not isinstance(golden, bool) and not isinstance(fresh, bool):
        if abs(float(fresh) - float(golden)) > GOLDEN_TOL:
            diffs.append(f"{path}: {fresh!r} != {golden!r}")
    elif fresh != golden:
        diffs.append(f"{path}: {fresh!r} != {golden!r}")
    return diffs


def _cmd_end_to_end(args) -> int:
    payload = _fixture_payload(args.fixture)
    result = run_fixture(payload)
    diffs = compare_golden(result, payload["golden"])
    if diffs:
        raise GoldenMismatch("golden mismatch: " + "; ".join(diffs[:20]))
    _write(args.report, _report(args, "end-to-end", result, {}))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _graph_source(verb: argparse.ArgumentParser) -> None:
    source = verb.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--figure")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise :class:`ValidationError`, so
    that they reach the one JSON diagnostic of :func:`main`; the verbs'
    parsers inherit the class."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="triproxy", description=__doc__,
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
    orc.add_argument("--out", default="-")
    orc.set_defaults(func=_cmd_oracle)

    ide = sub.add_parser("identify", help="run an identification pipeline")
    ide.add_argument("--design", required=True, choices=sorted(PIPELINES))
    ide.add_argument("--latent-dim", type=int, required=True)
    ide.add_argument("--joint", required=True)
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
    rel.add_argument("--report", default="-")
    rel.set_defaults(func=_cmd_relabel)

    bnd = sub.add_parser("bounds", help="rank-invariance bounds")
    bnd.add_argument("--design", required=True, choices=("outcome", "auxiliary"))
    bnd.add_argument("--latent-dim", type=int, required=True)
    bnd.add_argument("--joint", required=True)
    bnd.add_argument("--report", default="-")
    bnd.set_defaults(func=_cmd_bounds)

    dag = sub.add_parser("dag-check", help="certify proposition conclusions")
    _graph_source(dag)
    dag.add_argument("--proposition", type=int, required=True)
    dag.add_argument("--report", default="-")
    dag.set_defaults(func=_cmd_dag_check)

    cls = sub.add_parser("classify", help="list certified designs")
    _graph_source(cls)
    cls.add_argument("--report", default="-")
    cls.set_defaults(func=_cmd_classify)

    e2e = sub.add_parser("end-to-end", help="golden-checked builtin fixture run")
    e2e.add_argument("--fixture", required=True)
    e2e.add_argument("--report", default="-")
    e2e.set_defaults(func=_cmd_end_to_end)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "latent_dim", 1) < 1:
            raise ValidationError(f"--latent-dim must be at least 1, got {args.latent_dim}")
        # warnings are held back while the verb runs: a refused verb prints
        # only its JSON diagnostic (a non-finite number that reaches a report
        # is refused by _write), and a verb that returns re-issues them under
        # the caller's own filters
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        seen: dict = {}
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   registry=seen, source=w.source)
        return code
    except SystemExit:   # only --help, once printed: the parser raises its refusals
        return 0
    except TriproxyError as e:
        diag = {"error": type(e).__name__, "message": str(e),
                "assumption": e.assumption}
        sys.stderr.write(_canonical_json(diag) + "\n")
        invalid = (ValidationError, MissingLevels, NonBinaryTreatment, MissingRole,
                   UnknownNode, EnumerationTooLarge)
        return 2 if isinstance(e, invalid) else 3


if __name__ == "__main__":
    sys.exit(main())
