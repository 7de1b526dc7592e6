"""Traced ``ottospin`` command in a fresh interpreter.

Times ``import ottospin`` (with its CLI module), installs the layer
wrappers, runs ``ottospin.cli.main(argv)`` as one traced request and prints
one JSON object: exit code, import time, the command's standard output, the
spans and the boundaries not found.

Usage: python3 perfbench/traced_cli.py sweep --config PATH
(with the package's src directory on PYTHONPATH)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
import ottospin  # noqa: E402
import ottospin.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracing import Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer()
    out = io.StringIO()
    with tracer.request_scope(0), contextlib.redirect_stdout(out):
        code = ottospin.cli.main(sys.argv[1:])
    json.dump({"code": code, "import_s": import_s, "stdout": out.getvalue(),
               "spans": tracer.spans, "missing": tracer.missing}, sys.stdout)


if __name__ == "__main__":
    main()
