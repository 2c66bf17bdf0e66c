"""Traced stand-in for the ``triproxy`` console script.

Usage: ``python -X importtime bench/cli_child.py SPANS_FILE VERB [ARGS...]``

Imports ``triproxy.cli`` first (so ``-X importtime`` attributes every
package import to it), installs the span wrappers, calls ``main(argv)``,
removes the wrappers, writes the spans to ``SPANS_FILE`` and exits with
``main``'s return code.  ``triproxy`` must be importable (``PYTHONPATH``).
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import triproxy.cli

    import json

    from spans import Tracer

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = "cli"
    tracer.install()
    try:
        code = triproxy.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"start": start, "end": time.perf_counter(),
                       "spans": [s.to_dict() for s in tracer.spans]}, fh)
    sys.exit(code)
