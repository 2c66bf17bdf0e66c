"""Print one sha256 per generator over a fixed grid of draws.

Each digest covers, in grid order, the cell, then either the model's
``to_dict()`` as JSON or the refusal's class and message.  A fourth line
digests ``figure_diagnostics`` of every accepted ``figure_model`` draw, and
a fifth the ``figure_model`` draws at K = 7, 8, whose proxies have more
levels than the smallest kernel grid.  Two checkouts whose generators hand
out byte-identical models and refusals print the same lines, so comparing
them is one command in each:

    PYTHONPATH=src python scripts/model_digest.py

The grid: every point design of ``FIGURE_DESIGNS`` at K = 2, 3 with seeds
0-29 and at K = 4 with seeds 0-3, plus the figures the pipelines take at
K = 6 (seeds 0-1, where fig2c is refused); the unbiased-proxy model on
fig2a and fig5a and the rank-invariant bounds model on every bounds figure,
at K = 2, 3 with seeds 0-19 and 0-9; the fifth line's grid is the
figures the pipelines take at K = 7, 8 with seeds 0-1.
"""

import hashlib
import json

from triproxy.errors import TriproxyError
from triproxy.generators import (FIGURE_DESIGNS, PIPELINE_FIGURES, figure_diagnostics,
                                 figure_model, rank_invariant_bounds_model,
                                 unbiased_proxy_model)

POINT_FIGURES = sorted(f for f, d in FIGURE_DESIGNS.items() if not d.startswith("bounds-"))
BOUNDS_FIGURES = sorted(f for f, d in FIGURE_DESIGNS.items() if d.startswith("bounds-"))
K6_FIGURES = ("fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c")


def grids():
    """(generator name, [(cell label, make, figure to diagnose or None)]) in
    a fixed order."""
    figure = [(f, K, s) for f in POINT_FIGURES for K in (2, 3) for s in range(30)]
    figure += [(f, 4, s) for f in POINT_FIGURES for s in range(4)]
    figure += [(f, 6, s) for f in K6_FIGURES for s in range(2)]
    yield "figure_model", [(f"{f}/K{K}/{s}", lambda f=f, K=K, s=s: figure_model(f, K, s), f)
                           for f, K, s in figure]
    yield "unbiased_proxy_model", [
        (f"{f}/K{K}/{s}", lambda f=f, K=K, s=s: unbiased_proxy_model(K, s, figure=f), None)
        for f in ("fig2a", "fig5a") for K in (2, 3) for s in range(20)]
    yield "rank_invariant_bounds_model", [
        (f"{f}/K{K}/{s}", lambda f=f, K=K, s=s: rank_invariant_bounds_model(K, s, figure=f),
         None)
        for f in BOUNDS_FIGURES for K in (2, 3) for s in range(10)]


def wide_grid():
    """The fifth line's cells: ``figure_model`` past the smallest kernel grid."""
    return [(f"{f}/K{K}/{s}", lambda f=f, K=K, s=s: figure_model(f, K, s), None)
            for f in PIPELINE_FIGURES for K in (7, 8) for s in range(2)]


def digest_line(name, cells, diagnostics) -> str:
    """The line of one grid; the diagnostics of the cells that ask for them
    go into ``diagnostics``."""
    digest, models, refusals = hashlib.sha256(), 0, 0
    for label, make, diagnose in cells:
        try:
            m = make()
        except TriproxyError as exc:
            refusals += 1
            text = f"{label} {type(exc).__name__}: {exc}"
        else:
            models += 1
            text = f"{label} {json.dumps(m.to_dict(), sort_keys=True)}"
            if diagnose:
                d = figure_diagnostics(m, diagnose)
                diagnostics.update(f"{label} {d!r}\n".encode())
        digest.update(text.encode() + b"\n")
    return f"{name:28s} {digest.hexdigest()}  {models} models, {refusals} refusals"


def main():
    diagnostics = hashlib.sha256()
    for name, cells in grids():
        print(digest_line(name, cells, diagnostics))
    print(f"{'figure_diagnostics':28s} {diagnostics.hexdigest()}")
    print(digest_line("figure_model K=7,8", wide_grid(), diagnostics))


if __name__ == "__main__":
    main()
