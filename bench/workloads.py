"""The three benchmark workloads: inputs from the seed, ops, and their checks.

Every workload is a closed loop driven by one client: the next op starts
when the previous one has finished.  A workload is set up several times per
run (each repetition is one *shard* of inputs with its own derived seeds),
and a *pass* is one round over the op mix in a seed-shuffled order.

An op's ``run`` is the timed work and returns its result; its ``check``
runs after the clock stops and returns the list of mismatches in that
result (empty on success).  A :class:`Refusal` is a generator finding no
well-posed model for a grid cell: the program answers with a named reason,
which is its specified behaviour, so the op is neither done nor failed.  A
cell refused during set-up gets no op at all and is listed instead.  Any
other exception, a :class:`~triproxy.errors.TriproxyError` from
identification included, fails the op, and so does a mismatch (a silent
wrong answer).

Ops that hit a known defect are not in the timed mix: every op there is
expected to pass.  Each run executes them once after timing as *probes*,
which report whether the defect still reproduces (the op is marked with
the defect and a marker every mismatch message contains).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import triproxy.bounds as bounds
import triproxy.generators as generators
import triproxy.pipelines as pipelines
import triproxy.prob as prob
import triproxy.relabel as relabel
import triproxy.scm as scm
import triproxy.spectral as spectral
from triproxy.errors import TriproxyError

import oracle

BENCH_DIR = Path(__file__).resolve().parent

PIPELINE_BY_DESIGN = {
    "outcome": "identify_outcome_proxy",
    "treatment": "identify_treatment_proxy",
    "cond-treatment": "identify_cond_treatment_proxy",
    "auxiliary": "identify_auxiliary_proxy",
}


def derive(*parts) -> int:
    """A 32-bit seed from the workload seed and labels, stable across runs."""
    key = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def identify(figure_or_design: str, joint, k: int):
    """Run the pipeline of a figure's design, looked up at call time so the
    traced run sees the wrapped function."""
    design = generators.FIGURE_DESIGNS.get(figure_or_design, figure_or_design)
    return getattr(pipelines, PIPELINE_BY_DESIGN[design])(joint, k)


@dataclass
class Op:
    cell: str
    run: Callable[[], object]                 # timed
    check: Callable[[object], list[str]]      # untimed, on run's result
    known: tuple[str, str] | None = None      # (defect, marker in every mismatch)


class Refusal(Exception):
    """A generator found no well-posed model for a grid cell."""

    def __init__(self, err: TriproxyError):
        super().__init__(f"{type(err).__name__}: {err}")


def generate(make):
    """``make()``, with a generator's named refusal raised as :class:`Refusal`."""
    try:
        return make()
    except TriproxyError as err:
        raise Refusal(err) from err


class Workload:
    """One workload.  ``setup(rep)`` builds one shard of inputs and returns
    its ops, ``warmup`` runs before timing and ``pass_ops`` gives a pass."""

    name = ""
    min_passes = 1      # the timed loop never stops before this many passes
    trace_passes = 1    # passes the traced run covers

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.tracer = None
        self.refused: list[tuple[str, str]] = []   # (cell, reason) refused at set-up
        self.known: list[Op] = []                  # known-defect probes built at set-up

    def build(self, cell: str, make):
        """Model for one grid cell during set-up, or None when the generator
        refuses; the refusal is recorded by cell."""
        try:
            return generate(make)
        except Refusal as err:
            self.refused.append((cell, str(err)))
            return None

    def warmup(self, shard: list[Op], rep: int) -> list[Op]:
        return shard

    def pass_ops(self, shards: list[list[Op]], p: int) -> list[Op]:
        return [op for shard in shards for op in shard]

    def attach(self, tracer) -> None:
        tracer.install()
        self.tracer = tracer

    def detach(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        self.tracer = None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# oracle-sweep: generate, identify and check against the enumeration oracle


def sweep_op(cell: str, figure: str, k: int, seed: int) -> Op:
    """Generate, identify and build the oracle reference, all timed; the
    comparison runs after the clock stops."""
    def run():
        m = generate(lambda: generators.figure_model(figure, K=k, seed=seed))
        rep = pipelines.estimands(identify(figure, scm.observed_joint(m), k))
        return rep, oracle.oracle_effects(m)
    return Op(cell, run, lambda result: oracle.check_effects(*result))


class OracleSweep(Workload):
    """A pass draws fresh models: forty seeds per figure at K=2 and at K=3 (the
    test suite's traffic) and one per figure at K=4 (the large enumerations).

    K=4 ops are 1.2% of a pass, so the tail percentile (p98) falls among the
    heavy K=3 ops rather than between K=4 draws whose rejection sampling
    makes their cost vary tenfold from seed to seed."""

    name = "oracle-sweep"
    seeds_per_k = {2: 40, 3: 40, 4: 1}

    def setup(self, rep: int) -> list[Op]:
        """Nothing to precompute: every op draws its own model."""
        return []

    def warmup(self, shard, rep: int) -> list[Op]:
        """Five ops per figure at K=2 and at K=3: enough work that the set-up
        time is not lost in timer noise."""
        return [sweep_op(f"warm/{f}/K{k}", f, k, derive(self.seed, "warm", rep, f, k, i))
                for f in generators.PIPELINE_FIGURES for k in (2, 3) for i in range(5)]

    def pass_ops(self, shards, p: int) -> list[Op]:
        return [sweep_op(f"{f}/K{k}", f, k, derive(self.seed, "sweep", p, f, k, i))
                for f in generators.PIPELINE_FIGURES
                for k, n in self.seeds_per_k.items() for i in range(n)]


# ---------------------------------------------------------------------------
# identify-batch: identification on joints prepared during set-up


def forward_factors(rng: np.random.Generator, k: int):
    """Column-stochastic (z, c, w|v, v) factors with distinct signal columns:
    the signal's first level is spread evenly across the latent states."""
    nz = k + int(rng.integers(0, 5))
    nv = k + int(rng.integers(0, 5))
    nc = int(rng.integers(2, 6))
    z = 0.25 * rng.dirichlet(np.ones(nz), size=k).T + 0.75 * np.eye(nz)[:, :k]
    first = np.linspace(0.06, 0.94, k)
    c = np.empty((nc, k))
    c[0] = first
    c[1:] = (1.0 - first) * rng.dirichlet(np.ones(nc - 1), size=k).T
    w_given_v = 0.25 * rng.dirichlet(np.ones(k), size=nv).T + 0.75 * np.eye(k, nv)
    w_given_v /= w_given_v.sum(axis=0)
    v = rng.dirichlet(np.full(nv, 5.0))
    return z, c, w_given_v, v


def round_trip_op(cell: str, rng: np.random.Generator, k: int) -> Op:
    z, c, w_given_v, v = forward_factors(rng, k)
    f = np.einsum("zw,cw,wv,v->zcv", z, c, w_given_v, v)

    def run():
        fac = spectral.hs_decompose(f, spectral.HsOptions(latent_dim=k))
        return fac, spectral.match_permutation(z, fac.z_given_w)

    def check(result):
        fac, perm = result
        tol = oracle.SPECTRAL_TOL
        return (oracle.check_close(fac.z_given_w[:, perm], z, "z|w", tol)
                + oracle.check_close(fac.c_given_w[:, perm], c, "c|w", tol)
                + oracle.check_close(fac.w_given_v[perm], w_given_v, "w|v", tol)
                + oracle.check_close(fac.v_marginal, v, "v", tol))
    return Op(cell, run, check)


def identify_op(cell: str, figure: str, k: int, joint, truth) -> Op:
    return Op(cell, lambda: pipelines.estimands(identify(figure, joint, k)),
              lambda rep: oracle.check_effects(rep, truth))


def bounds_op(cell: str, figure: str, k: int, joint, truth) -> Op:
    fn_name = "bounds_outcome_proxy" if figure.startswith("fig6") else "bounds_auxiliary_proxy"

    def check(rep):
        return (oracle.check_cover(rep.att_interval, truth["att"], "ATT")
                + oracle.check_cover(rep.atu_interval, truth["atu"], "ATU"))
    return Op(cell, lambda: getattr(bounds, fn_name)(joint, k), check)


def relabel_op(cell: str, figure: str, k: int, joint, cate, known=None) -> Op:
    def run():
        lab = relabel.relabel_unbiased(identify(figure, joint, k),
                                       relabel.RelabelRule("mean", "unbiased"))
        return [lab.beta_at_value(float(w)) for w in range(k)]
    return Op(cell, run, lambda got: oracle.check_close(got, cate, "relabeled CATE",
                                                        oracle.EFFECT_TOL), known)


RELABEL_AUXILIARY_DEFECT = ("relabel on the auxiliary design averages V under "
                            "f(v | w, x) (ROADMAP item 4)", "relabeled CATE off by")


class IdentifyBatch(Workload):
    name = "identify-batch"
    ks = (2, 3, 4)
    k6_figures = ("fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c")
    trace_passes = 5

    def setup(self, rep: int) -> list[Op]:
        s = (self.seed, "identify-batch", rep)
        ops = []
        cells = [(f, k) for f in generators.PIPELINE_FIGURES for k in self.ks]
        cells += [(f, 6) for f in self.k6_figures]
        for f, k in cells:
            cell = f"{f}/K{k}"
            m = self.build(cell, lambda: generators.figure_model(f, K=k, seed=derive(*s, f, k)))
            if m is not None:
                ops.append(identify_op(cell, f, k, scm.observed_joint(m),
                                       oracle.oracle_effects(m)))
        for f in ("fig6a", "fig7a"):
            for i in range(2):
                cell = f"bounds/{f}/K2/{i}"
                m = self.build(cell, lambda: generators.rank_invariant_bounds_model(
                    2, seed=derive(*s, "bounds", f, i), figure=f))
                if m is not None:
                    ops.append(bounds_op(cell, f, 2, scm.observed_joint(m),
                                         oracle.oracle_effects(m)))
        for f in ("fig2a", "fig5a"):
            for k in (2, 3):
                cell = f"relabel/{f}/K{k}"
                m = self.build(cell, lambda: generators.unbiased_proxy_model(
                    k, seed=derive(*s, "relabel", f, k), figure=f))
                if m is None:
                    continue
                known = RELABEL_AUXILIARY_DEFECT if f == "fig5a" else None
                op = relabel_op(cell, f, k, scm.observed_joint(m),
                                oracle.oracle_effects(m)["cate"], known)
                if known is None:
                    ops.append(op)
                elif rep == 0:
                    self.known.append(op)
        rng = np.random.default_rng(derive(*s, "spectral"))
        for k in (2, 3, 4, 5, 6):
            for i in range(2):
                ops.append(round_trip_op(f"spectral/K{k}/{i}", rng, k))
        return ops


# ---------------------------------------------------------------------------
# cli-verbs: the README command list as fresh processes

ENTRY = "import sys; from triproxy.cli import main; sys.exit(main())"

README_CHAIN_DEFECT = ("simulate --out writes a report envelope that identify "
                       "--joint cannot read (ROADMAP item 4)", "bad tensor file")


@dataclass
class Verb:
    argv: list[str]
    expect: int = 0
    check: Callable[[str], list[str]] | None = None   # on stdout, when exit matches


def parse_importtime(stderr: str) -> dict:
    """Cumulative import milliseconds of ``triproxy.cli`` and of scipy (the
    scipy modules not imported from inside another scipy module)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        try:
            cum = int(cumulative)
        except ValueError:
            continue                      # the header row
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), cum))
    out = {"cli": 0.0, "scipy": 0.0}
    # rows are post-order: a module's parent is the next row one level up
    for i, (depth, name, cum) in enumerate(rows):
        if name == "triproxy.cli":
            out["cli"] += cum / 1e3
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            out["scipy"] += cum / 1e3
    return out


class CliVerbs(Workload):
    name = "cli-verbs"
    min_passes = 2
    trace_passes = 1

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.work = root / ".bench_out" / f"cli-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.imports: list[dict] = []
        self.main_ms: list[float] = []

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[int, str, str]:
        """Run one verb as a fresh process and wait for it."""
        if self.tracer is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
            spans_path = None
        else:
            spans_path = self.work / f"spans-{len(self.tracer.spans)}.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(BENCH_DIR / "cli_child.py"), str(spans_path), *argv]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return -9, out, err + "\ntimed out"
        if spans_path is not None and spans_path.exists():
            record = json.loads(spans_path.read_text())
            spans_path.unlink()
            parent = self.tracer.open("cli.process")
            self.tracer.close(parent)
            parent.start, parent.end = record["start"], record["end"]
            self.tracer.adopt(record["spans"], parent)
            self.imports.append(parse_importtime(err))
            self.main_ms.extend((s["end"] - s["start"]) * 1e3
                                for s in record["spans"] if s["name"] == "cli.main")
        return proc.returncode, out, err

    def verb_op(self, cell: str, verbs: list[Verb], known=None) -> Op:
        """Run the verbs in order, stopping after one exits unexpectedly."""
        def run():
            done = []
            for v in verbs:
                done.append((v, *self.spawn(v.argv)))
                if done[-1][1] != v.expect:
                    break
            return done

        def check(done):
            for v, code, out, err in done:
                if code != v.expect:
                    reason = err.strip().splitlines()[-1] if err.strip() else ""
                    return [f"{v.argv[0]} exited {code}, expected {v.expect}: {reason}"]
                if v.check is not None:
                    bad = v.check(out)
                    if bad:
                        return bad
            return []
        return Op(cell, run, check, known)

    # -- set-up ---------------------------------------------------------

    def setup(self, rep: int) -> list[Op]:
        d = self.work / f"rep{rep}"
        d.mkdir(parents=True, exist_ok=True)
        s = (self.seed, "cli-verbs", rep)

        def write(name: str, payload: dict) -> str:
            path = d / name
            path.write_text(json.dumps(payload))
            return str(path)

        def identify_check(path: str, order: tuple, design: str, k: int):
            """Compare the report with ``estimands`` run in-process on the
            joint read back from the same file the CLI reads."""
            joint = prob.ProbTensor.from_dict(json.loads(Path(path).read_text()))
            rep_ = pipelines.estimands(identify(design, joint.reorder(order), k))
            want = {"ate": rep_.ate, "att": rep_.att, "atu": rep_.atu,
                    "pot_y": rep_.pot_y, "beta": rep_.beta, "beta_cdf": rep_.beta_cdf,
                    "w_marginal": rep_.w_marginal, "qte": rep_.qte}

            def check(out: str) -> list[str]:
                got = json.loads(out)["result"]["estimands"]
                return [b for key, val in want.items()
                        for b in oracle.check_close(got[key], val, f"identify {key}",
                                                    oracle.CLI_TOL)]
            return check

        makers = {
            "fig2a": lambda: generators.figure_model("fig2a", K=2, seed=derive(*s, "fig2a")),
            "fig5a": lambda: generators.figure_model("fig5a", K=3, seed=derive(*s, "fig5a")),
            "unbiased": lambda: generators.unbiased_proxy_model(
                2, seed=derive(*s, "unbiased")),
            "bounds": lambda: generators.rank_invariant_bounds_model(
                2, seed=derive(*s, "bounds"), figure="fig6a"),
        }
        files = {}
        for key, make in makers.items():
            m = self.build(f"{key}-model/rep{rep}", make)
            if m is not None:
                files[f"{key}-model"] = write(f"{key}-model.json", m.to_dict())
                files[key] = write(f"{key}-joint.json", scm.observed_joint(m).to_dict())
        chain = str(d / "chain-joint.json")

        def identify_verb(key: str, design: str, k: int, order: tuple) -> Verb:
            return Verb(["identify", "--design", design, "--latent-dim", str(k),
                         "--joint", files[key]],
                        check=identify_check(files[key], order, design, k))

        # (cell, model the op needs, its verbs, known defect)
        table = [
            ("classify/fig1b", None, lambda: [Verb(["classify", "--figure", "fig1b"])], None),
            ("dag-check/fig2a/1", None, lambda: [Verb(
                ["dag-check", "--figure", "fig2a", "--proposition", "1"])], None),
            ("simulate/fig5a/K3", "fig5a", lambda: [Verb(
                ["simulate", "--model", files["fig5a-model"], "--seed", "0",
                 "--out", str(d / "sim.json")])], None),
            ("oracle/fig5a/K3", "fig5a", lambda: [Verb(
                ["oracle", "--model", files["fig5a-model"]])], None),
            ("identify/auxiliary/fig5a/K3", "fig5a", lambda: [identify_verb(
                "fig5a", "auxiliary", 3, ("Y", "C", "Z", "V", "X"))], None),
            ("identify/outcome/fig2a/K2", "fig2a", lambda: [identify_verb(
                "fig2a", "outcome", 2, ("Y", "Z", "V", "X"))], None),
            ("readme-chain/fig2a/K2", "fig2a", lambda: [
                Verb(["simulate", "--model", files["fig2a-model"], "--seed", "0",
                      "--out", chain]),
                Verb(["identify", "--design", "outcome", "--latent-dim", "2",
                      "--joint", chain])], README_CHAIN_DEFECT),
            ("relabel/fig2a/K2", "unbiased", lambda: [Verb(
                ["relabel", "--design", "outcome", "--latent-dim", "2",
                 "--joint", files["unbiased"], "--rule", "mean-unbiased"])], None),
            ("bounds/fig6a/K2", "bounds", lambda: [Verb(
                ["bounds", "--design", "outcome", "--latent-dim", "2",
                 "--joint", files["bounds"]])], None),
        ] + [(f"end-to-end/{fixture}", None, lambda fixture=fixture, code=code: [Verb(
                ["end-to-end", "--fixture", fixture], expect=code)], None)
             for fixture, code in (("fig1a-early-late-tests", 0), ("fig1d-auxiliary", 0),
                                   ("fig1b-double-only", 3))]
        ops = []
        for cell, need, verbs, known in table:
            if need is not None and f"{need}-model" not in files:
                continue          # its model was refused, and is listed
            op = self.verb_op(cell, verbs(), known)
            if known is None:
                ops.append(op)
            elif rep == 0:
                self.known.append(op)
        return ops

    def warmup(self, shard, rep: int) -> list[Op]:
        """One interpreter start that imports the package."""
        return [self.verb_op("warm/classify/fig1a", [Verb(["classify", "--figure",
                                                           "fig1a"])])]

    def pass_ops(self, shards, p: int) -> list[Op]:
        return list(shards[p % len(shards)])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (OracleSweep, IdentifyBatch, CliVerbs)}
