"""The tolerance registry is the only home of a numerical threshold."""

import ast
from pathlib import Path

import triproxy
from triproxy import tolerances

SRC = Path(triproxy.__file__).parent

#: (module, enclosing top-level definition, value) of the small floats that
#: are not thresholds of a result.  The generators' draw parameters decide
#: which models are drawn, not what a result reports.
EXEMPT = {
    ("generators.py", "encode_kernel", 1e-15),         # CDF breakpoint guard
    ("generators.py", "_pmfs_with_means", 1e-9),       # mean margin
    ("generators.py", "_pmfs_with_means", 1e-12),      # realizable-mean check
    # the latent-label matcher's margin; it leaves with the matcher, which
    # no pipeline calls and no report lists
    ("spectral.py", "AMBIGUITY_TOL", 1e-6),
}


def _small_floats(path: Path):
    """(enclosing top-level definition, value, line) of every float literal
    in (0, 1e-3) in ``path``."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            name = top.name
        elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            name = top.targets[0].id
        else:
            name = None
        for node in ast.walk(top):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < node.value < 1e-3):
                yield name, node.value, node.lineno


def _literal_digits(source: str):
    """(line, value) of every integer literal passed as the digit count of a
    ``round`` or ``np.round`` call in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "round"
                or getattr(node.func, "attr", None) == "round")):
            continue
        digits = node.args[1:2] + [k.value for k in node.keywords
                                   if k.arg in ("ndigits", "decimals")]
        for arg in digits:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                yield node.lineno, arg.value


def test_no_rounding_digits_outside_the_registry():
    hits = [f"{path.name}:{line} {value!r}"
            for path in sorted(SRC.glob("*.py")) if path.name != "tolerances.py"
            for line, value in _literal_digits(path.read_text(encoding="utf-8"))]
    assert hits == []
    # the scan does see such a literal, in every call form
    probe = "round(x, 3)\nnp.round(a, 12)\nnp.round(a, decimals=9)\nround(x)\n"
    assert sorted(_literal_digits(probe)) == [(1, 3), (2, 12), (3, 9)]


def test_no_threshold_outside_the_registry():
    hits = [f"{path.name}:{line} {value!r}"
            for path in sorted(SRC.glob("*.py")) if path.name != "tolerances.py"
            for name, value, line in _small_floats(path)
            if (path.name, name, value) not in EXEMPT]
    assert hits == []
    # the scan does see literals: every small value of the registry
    found = sorted(value for _, value, _ in _small_floats(SRC / "tolerances.py"))
    assert found == sorted(value for value in vars(tolerances).values()
                           if isinstance(value, float) and 0.0 < value < 1e-3)
