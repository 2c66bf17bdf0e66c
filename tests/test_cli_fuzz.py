"""Malformed input files on the command line: every truncation of a valid
joint, model or graph file, and token edits of one, end in exit 0 or in exit
2 with a one-line JSON diagnostic, never in a traceback or a report of a
broken input; a number turned into a string, a boolean or a nested list
always ends in exit 2."""

import functools
import json
import random
import re

import pytest

from triproxy import cli
from triproxy.generators import figure_model
from triproxy.graphs import FIGURES
from triproxy.scm import observed_joint

#: the verb that reads each kind of file, up to the file's path
VERBS = {"joint": ("identify", "--design", "outcome", "--latent-dim", "2", "--joint"),
         "model": ("oracle", "--model"),
         "graph": ("classify", "--graph")}

SAMPLE = 300                        # cuts per file, when it has more
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
KEY = re.compile(r'"(\w+)":')
#: what a number may become: non-finite literals, signs, fractions, overflow
NUMBER_EDITS = ("NaN", "Infinity", "-Infinity", "-1", "-0.0", "0", "0.5", "2.5", "1e400",
                "99")
#: what a number may not become, as a format of the number's own text
TYPE_EDITS = ('"{}"', "true", "false", "[{}]")


@pytest.fixture(autouse=True)
def one_parser(monkeypatch):
    """Build the argument parser once: it is most of the cost of a call."""
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))


@pytest.fixture(scope="module")
def texts():
    """Each kind of input file as the text a valid file holds (no trailing
    newline, so no proper prefix is valid JSON)."""
    m = figure_model("fig2a", 2, seed=11)
    return {"joint": json.dumps(observed_joint(m).to_dict()),
            "model": json.dumps(m.to_dict()),
            "graph": json.dumps(FIGURES["fig2a"].to_dict())}


def run_file(tmp_path, capsys, kind: str, text: str) -> tuple[int, str]:
    path = tmp_path / f"{kind}.json"
    path.write_text(text, encoding="utf-8")
    code = cli.main([*VERBS[kind], str(path)])
    return code, capsys.readouterr().err


def diagnostic(err: str) -> dict:
    """The one JSON line a refusal writes to stderr."""
    assert err.endswith("\n") and err.count("\n") == 1, err
    diag = json.loads(err)
    assert set(diag) == {"error", "message", "assumption"}
    return diag


def edits(text: str, rng: random.Random):
    """(label, edited text, the exit codes it may end in): numbers replaced
    by other numbers or by non-numbers, a ``[`` opened as ``{``, a key
    renamed, each at seeded positions."""
    numbers = [m.span() for m in NUMBER.finditer(text)]
    for lo, hi in rng.sample(numbers, min(len(numbers), 25)):
        for new, codes in [(n, (0, 2)) for n in NUMBER_EDITS] + [
                (t.format(text[lo:hi]), (2,)) for t in TYPE_EDITS]:
            yield f"{text[lo:hi]}@{lo}->{new}", text[:lo] + new + text[hi:], codes
    brackets = [i for i, ch in enumerate(text) if ch == "["]
    for i in rng.sample(brackets, min(len(brackets), 25)):
        yield f"[@{i}->{{", text[:i] + "{" + text[i + 1:], (0, 2)
    for key in sorted(set(KEY.findall(text))):
        yield f"key {key}", text.replace(f'"{key}":', f'"{key}_":', 1), (0, 2)


@pytest.mark.parametrize("kind", sorted(VERBS))
def test_every_truncation_exits_2(tmp_path, capsys, texts, kind):
    text = texts[kind]
    cuts = range(len(text))
    if len(cuts) > SAMPLE:
        cuts = sorted(random.Random(f"cut {kind}").sample(cuts, SAMPLE))
    for cut in cuts:
        code, err = run_file(tmp_path, capsys, kind, text[:cut])
        assert code == 2, f"{kind}[:{cut}] exits {code}"
        assert diagnostic(err)["error"] == "ValidationError", f"{kind}[:{cut}]"


@pytest.mark.parametrize("kind", sorted(VERBS))
def test_token_edits_exit_0_or_2(tmp_path, capsys, texts, kind):
    outcomes = set()
    for label, text, codes in edits(texts[kind], random.Random(f"edit {kind}")):
        code, err = run_file(tmp_path, capsys, kind, text)
        assert code in codes, f"{kind} {label} exits {code}: {err}"
        if code == 2:
            diagnostic(err)
        outcomes.add(code)
    assert 2 in outcomes
