"""triproxy benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout::

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the provenance and a readable summary.  The full record
(and, for traced runs, every span) is written to ``.bench_out/``.  The exit
code is 1 when an op fails (a wrong answer or an exception other than a
generator's refusal), 2 when the checkout has no ``src/triproxy``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before anything can load numpy; children inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import random
import resource
import statistics
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; calls and self times are totals over the traced
#: set-up and passes, 0 where the workload does not reach the layer
PER_LAYER = {
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms", "cli.main_ms": "ms",
    "prob.from_dict.calls": "count", "prob.from_dict.self_ms": "ms",
    "prob.restrict.calls": "count", "prob.restrict.self_ms": "ms",
    "prob.marginalize.calls": "count", "prob.marginalize.self_ms": "ms",
    "spectral.hs_decompose.calls": "count", "spectral.hs_decompose.self_ms": "ms",
    "spectral.hs_decompose.reweightings": "count",
    "spectral.hs_decompose.first_try_ratio": "ratio",
    "spectral.match_permutation.calls": "count",
    "spectral.match_permutation.self_ms": "ms",
    "pipelines.identify.calls": "count", "pipelines.identify.self_ms": "ms",
    "pipelines.estimands.calls": "count", "pipelines.estimands.self_ms": "ms",
    "pipelines.potential_joint.calls": "calls/estimands",
    "relabel.relabel_unbiased.self_ms": "ms",
    "bounds.bounds_outcome_proxy.self_ms": "ms",
    "bounds.bounds_auxiliary_proxy.self_ms": "ms",
    "scm.observable_joint.calls": "count", "scm.observable_joint.self_ms": "ms",
    "scm.counterfactual_joint.calls": "count", "scm.counterfactual_joint.self_ms": "ms",
    "scm.noise_configs": "count", "scm.joint_cells": "count",
    "generators.figure_model.calls": "count", "generators.figure_model.self_ms": "ms",
    "generators.figure_diagnostics.self_ms": "ms",
    "generators.draws": "count", "generators.accept_ratio": "ratio",
    "graphs.classify_designs.self_ms": "ms", "graphs.check_proposition.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

SETUP_REPS = 3


def tail_percentile(distinct_ops: int) -> int:
    """Highest whole percentile with at least ten of ``distinct_ops`` samples
    beyond it (never below the median).

    Passes over prepared inputs repeat the same ops, so only distinct ops
    count as samples, and only those every run is sure to reach (its first
    ``min_passes`` passes); the percentile is thus fixed per workload."""
    return max(50, math.floor(100 * (1 - 10 / distinct_ops)))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# provenance


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("TRIPROXY_THREADS",)},
        "git_commit": git_commit(ROOT), "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# executing ops


class Outcome:
    __slots__ = ("cell", "status", "detail", "seconds")

    def __init__(self, cell, status, detail, seconds):
        self.cell, self.status, self.detail, self.seconds = cell, status, detail, seconds

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def failed(self) -> bool:
        return self.status in ("mismatch", "error")


def execute(op) -> Outcome:
    """Time one op's run, check its result untimed and classify it: ok,
    refused (a generator's named refusal), known (a probe reproducing its
    listed defect), mismatch (a silent wrong answer) or error (any other
    exception)."""
    from workloads import Refusal

    t0 = time.perf_counter()
    try:
        result = op.run()
    except Refusal as err:
        return Outcome(op.cell, "refused", str(err), time.perf_counter() - t0)
    except Exception:
        return Outcome(op.cell, "error", traceback.format_exc(limit=3),
                       time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    try:
        bad = op.check(result)
    except Exception:
        return Outcome(op.cell, "error", traceback.format_exc(limit=3), elapsed)
    if not bad:
        return Outcome(op.cell, "ok", "", elapsed)
    if op.known is not None and all(op.known[1] in b for b in bad):
        return Outcome(op.cell, "known", f"{op.known[0]}: {'; '.join(bad)}", elapsed)
    return Outcome(op.cell, "mismatch", "; ".join(bad), elapsed)


def shuffled(ops, seed: int, p: int):
    ops = list(ops)
    random.Random(f"{seed}/{p}").shuffle(ops)
    return ops


def not_ok_by_cell(outcomes) -> dict:
    out: dict = {}
    for o in outcomes:
        if not o.ok:
            entry = out.setdefault(o.cell, {"status": o.status, "count": 0,
                                            "detail": o.detail.strip().splitlines()[-1]
                                            if o.detail.strip() else ""})
            entry["count"] += 1
    return out


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-verbs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two runs


def run_untraced(workload, args) -> tuple[dict, list, dict]:
    shards, setup_times, warm = [], [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        shard = workload.setup(rep)
        warm.extend(execute(op) for op in workload.warmup(shard, rep))
        setup_times.append(time.perf_counter() - t0)
        shards.append(shard)

    # whole passes up to min_passes, then op by op until the time is up
    outcomes, p = [], 0
    start = time.perf_counter()

    def time_up() -> bool:
        return p >= workload.min_passes and time.perf_counter() - start >= args.seconds

    while not time_up():
        for op in shuffled(workload.pass_ops(shards, p), args.seed, p):
            if time_up():
                break
            outcomes.append(execute(op))
        p += 1
    wall = time.perf_counter() - start

    lat_ms = [o.seconds * 1e3 for o in outcomes]
    passed = sum(o.ok for o in outcomes)
    sure = [op for i in range(workload.min_passes) for op in workload.pass_ops(shards, i)]
    pct = tail_percentile(len({id(op) for op in sure}))
    tail = percentile(lat_ms, pct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": passed / wall,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "ok_frac": passed / len(outcomes),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    info = {"setup_times_s": setup_times, "passes": p, "timed_wall_s": wall,
            "tail_percentile": pct, "tail_samples_beyond": sum(x > tail for x in lat_ms)}
    # warm-up ops are not counted, but a failure there still fails the run
    return metrics, outcomes + [o for o in warm if o.failed], info


def run_traced(workload, args) -> tuple[dict, list, dict]:
    """One traced set-up and ``trace_passes`` passes.  Each op runs untraced
    and then traced; the ratio of their summed times is the overhead."""
    from spans import Tracer, layer_totals

    tracer = Tracer()
    outcomes, plain_s, traced_s = [], 0.0, 0.0
    workload.attach(tracer)
    try:
        shard = workload.setup(0)
        for p in range(workload.trace_passes):
            for i, op in enumerate(shuffled(workload.pass_ops([shard], p), args.seed, p)):
                workload.detach()
                plain = execute(op)
                workload.attach(tracer)
                tracer.op = f"{p}/{i}/{op.cell}"
                span = tracer.open("op")
                traced = execute(op)
                tracer.close(span)
                tracer.op = "setup"
                plain_s += plain.seconds
                traced_s += traced.seconds
                outcomes.append(traced)
                if plain.failed:
                    outcomes.append(plain)
    finally:
        workload.detach()

    totals = layer_totals(tracer.spans)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_ms(name):
        return totals.get(name, {}).get("self_ms", 0.0)

    def count(name, key):
        return totals.get(name, {}).get("counts", {}).get(key, 0)

    metrics = {}
    for key in PER_LAYER:
        layer, _, stat = key.rpartition(".")
        if stat == "calls":
            metrics[key] = calls(layer)
        elif stat == "self_ms":
            metrics[key] = self_ms(layer)
    reweightings = count("spectral.hs_decompose", "reweightings")
    models = sum(count(f"generators.{g}", "models") for g in
                 ("figure_model", "unbiased_proxy_model", "rank_invariant_bounds_model"))
    draws = calls("generators.designed_npsem")
    imports = getattr(workload, "imports", [])
    main_ms = getattr(workload, "main_ms", [])
    metrics.update({
        "cli.import_ms": statistics.median([i["cli"] for i in imports]) if imports else 0.0,
        "cli.import_scipy_ms": (statistics.median([i["scipy"] for i in imports])
                                if imports else 0.0),
        "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
        "spectral.hs_decompose.reweightings": reweightings,
        "spectral.hs_decompose.first_try_ratio": (calls("spectral.hs_decompose") / reweightings
                                                  if reweightings else 0.0),
        "pipelines.potential_joint.calls": (calls("pipelines.potential_joint")
                                            / calls("pipelines.estimands")
                                            if calls("pipelines.estimands") else 0.0),
        "scm.noise_configs": (count("scm.observable_joint", "noise_configs")
                              + count("scm.counterfactual_joint", "noise_configs")),
        "scm.joint_cells": (count("scm.observable_joint", "joint_cells")
                            + count("scm.counterfactual_joint", "joint_cells")),
        "generators.draws": draws,
        "generators.accept_ratio": models / draws if draws else 0.0,
        "trace.overhead_frac": traced_s / plain_s - 1.0 if plain_s else 0.0,
    })
    info = {"trace_passes": workload.trace_passes, "untraced_op_s": plain_s,
            "traced_op_s": traced_s, "layers": totals,
            "computed_not_timed": ["scm.noise_configs", "scm.joint_cells"],
            "spans": [s.to_dict() for s in tracer.spans]}
    return metrics, outcomes, info


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triproxy" / "__init__.py").is_file():
        print(f"no src/triproxy under {ROOT}; run from the root of a triproxy "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import triproxy

    if Path(triproxy.__file__).resolve().parent != (SRC / "triproxy").resolve():
        print(f"triproxy imported from {triproxy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    prov = provenance(args)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, outcomes, info = runner(workload, args)
        # known defects, untimed and outside the op counts unless they fail
        # in a way other than the listed one
        probes = [] if args.trace else [execute(op) for op in workload.known]
    finally:
        workload.close()
    outcomes += [o for o in probes if o.failed]
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(o.failed for o in outcomes)
    not_ok = not_ok_by_cell(outcomes)

    for name, unit in units.items():
        print(f"# {name:42s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print(f"# op_tail_ms is p{info['tail_percentile']:g} "
              f"({info['tail_samples_beyond']} of {len(outcomes)} samples beyond it); "
              f"failed_frac {failed / max(len(outcomes), 1):.4f} "
              f"({failed}/{len(outcomes)}); passes {info['passes']}")
    for cell, reason in workload.refused:
        print(f"# refused at set-up {cell}: {reason[:160]}")
    for cell, f in sorted(not_ok.items()):
        print(f"# {f['status']} {cell}: {f['count']}x {f['detail'][:160]}")
    for o in probes:
        state = {"known": "reproduces", "ok": "NO LONGER REPRODUCES"}.get(o.status, o.status)
        print(f"# known defect {o.cell}: {state} {o.detail[:160]}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "units": units, "info": info,
              "not_ok": not_ok, "refused_at_setup": workload.refused,
              "probes": {o.cell: [o.status, o.detail] for o in probes},
              "attempted": len(outcomes), "failed": failed}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=float))

    result = {"correct": not failed, "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
