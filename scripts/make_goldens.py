"""Regenerate the builtin end-to-end fixtures and their golden reports.

Each fixture file bundles a seeded structural model, the latent dimension
to identify at, and the golden report the CLI's end-to-end verb must
reproduce.  Run from the repository root:

    python scripts/make_goldens.py
"""

import json
from pathlib import Path

from triproxy.cli import run_fixture
from triproxy.errors import IdentificationRefused
from triproxy.generators import figure_model, random_npsem, standard_spaces
from triproxy.graphs import FIGURES

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


def main():
    OUT.mkdir(exist_ok=True)
    for name, spec in SPECS.items():
        payload = {"name": name, "latent_dim": spec["latent_dim"],
                   "seed": spec["seed"], "model": build_model(spec).to_dict()}
        try:
            payload["golden"] = run_fixture(payload)
        except IdentificationRefused:
            payload["golden"] = {"fixture": name, "refused": True}
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        print("wrote", path.name)


if __name__ == "__main__":
    main()
