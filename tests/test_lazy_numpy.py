"""numpy is imported on first use: the graph verbs never load it, and once a
numerical call has loaded it every module reads ``np`` as numpy itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import triproxy

SRC = Path(triproxy.__file__).parent


def _probe(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports triproxy from the
    source tree."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})


#: runs the verb of argv through ``cli.main`` and prints, after its report,
#: the numpy modules the process loaded
RUN_VERB = """
import sys
from triproxy.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [("classify", "--figure", "fig1b"),
                                  ("dag-check", "--figure", "fig2a", "--proposition", "1")])
def test_graph_verbs_leave_numpy_unloaded(argv):
    out = _probe(RUN_VERB, *argv)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.splitlines()[-1] == "[]"


#: imports the CLI's modules, makes one numerical call, then imports a module
#: that was not loaded yet; prints what each module's ``np`` was at each step
REBIND = """
import sys
import triproxy.cli

def bindings():
    return {n: type(vars(m)["np"]).__name__ for n, m in sorted(sys.modules.items())
            if n.split(".")[0] == "triproxy" and "np" in vars(m)}

print(bindings(), "numpy" in sys.modules)
from triproxy.prob import ProbTensor, VarSpace
ProbTensor.build([VarSpace("A", 2, (0.0, 1.0))], [0.25, 0.75])
print(bindings())
import numpy, triproxy.generators
print(all(vars(m)["np"] is numpy for n, m in sys.modules.items()
          if n.split(".")[0] == "triproxy" and "np" in vars(m)), len(bindings()))
"""


def test_first_numerical_call_binds_numpy_in_every_module():
    out = _probe(REBIND)
    assert out.returncode == 0, out.stderr
    before, after, final = out.stdout.splitlines()
    modules = ("triproxy._np", "triproxy.bounds", "triproxy.cli", "triproxy.pipelines",
               "triproxy.prob", "triproxy.relabel", "triproxy.scm", "triproxy.spectral")
    assert before == f"{dict.fromkeys(modules, '_Numpy')} False"
    assert after == str(dict.fromkeys(modules, "module"))
    assert final == f"True {len(modules) + 1}"   # triproxy.generators joins

