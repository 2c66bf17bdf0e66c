"""Check, or regenerate, the builtin end-to-end fixtures and their goldens.

Each fixture file bundles a seeded structural model, the latent dimension
to identify at, and the golden report the CLI's end-to-end verb must
reproduce.  Run from the repository root:

    PYTHONPATH=src python scripts/make_goldens.py           # check
    PYTHONPATH=src python scripts/make_goldens.py --write   # regenerate

With no argument it rebuilds every payload, compares it with the committed
file through ``cli.compare_golden``, prints the largest float gap per
fixture and exits 1 if anything differs by more than ``GOLDEN_TOL``; it
writes nothing.  ``--write`` overwrites the fixture files with the rebuilt
payloads.
"""

import argparse
import json
import sys
from pathlib import Path

from triproxy.cli import compare_golden, run_fixture
from triproxy.errors import IdentificationRefused
from triproxy.generators import figure_model, random_npsem, standard_spaces
from triproxy.graphs import FIGURES
from triproxy.tolerances import GOLDEN_TOL

OUT = Path(__file__).resolve().parents[1] / "src" / "triproxy" / "fixtures"

SPECS = {
    "fig1a-early-late-tests": dict(figure="fig1a", latent_dim=2, seed=11),
    "fig1d-auxiliary": dict(figure="fig1d", latent_dim=2, seed=13),
    "fig1b-double-only": dict(figure="fig1b", latent_dim=2, seed=17),
}


def build_model(spec):
    fig = spec["figure"]
    if fig == "fig1b":
        # no identification design exists here; any well-formed model will do
        return random_npsem(FIGURES[fig], standard_spaces(spec["latent_dim"]),
                            seed=spec["seed"])
    return figure_model(fig, K=spec["latent_dim"], seed=spec["seed"])


def build_payload(name: str, spec: dict) -> dict:
    payload = {"name": name, "latent_dim": spec["latent_dim"],
               "model": build_model(spec).to_dict()}
    try:
        payload["golden"] = run_fixture(payload)
    except IdentificationRefused:
        payload["golden"] = {"fixture": name, "refused": True}
    return payload


def largest_gap(fresh, stored) -> float:
    """The largest absolute difference between numbers at the same place in
    two parsed payloads; places present on one side only are skipped."""
    if isinstance(fresh, dict) and isinstance(stored, dict):
        return max((largest_gap(fresh[k], stored[k]) for k in fresh.keys() & stored.keys()),
                   default=0.0)
    if isinstance(fresh, list) and isinstance(stored, list):
        return max((largest_gap(f, s) for f, s in zip(fresh, stored)), default=0.0)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (fresh, stored))
    return abs(float(fresh) - float(stored)) if numbers else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the fixture files instead of checking them")
    args = parser.parse_args(argv)
    failed = False
    for name, spec in SPECS.items():
        payload = build_payload(name, spec)
        path = OUT / f"{name}.json"
        if args.write:
            path.write_text(json.dumps(payload, sort_keys=True) + "\n")
            print("wrote", path.name)
            continue
        stored = json.loads(path.read_text(encoding="utf-8"))
        diffs = compare_golden(payload, stored)
        failed |= bool(diffs)
        print(f"{name}: largest gap {largest_gap(payload, stored):.2e}, "
              f"{len(diffs)} beyond {GOLDEN_TOL:.0e}")
        for d in diffs[:20]:
            print("  ", d)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
