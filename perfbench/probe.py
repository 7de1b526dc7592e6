"""One set-up measurement in a fresh interpreter: time ``import ottospin``,
then the generation of a workload's inputs, and print both with the facts
about the package the result is recorded with.

Usage: python3 perfbench/probe.py WORKLOAD SEED COUNT
(with the package's src directory on PYTHONPATH)
"""

from __future__ import annotations

import json
import sys
import time

start = time.perf_counter()
import ottospin  # noqa: E402

import_s = time.perf_counter() - start

import numpy  # noqa: E402

import inputs  # noqa: E402


def main() -> None:
    workload, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    start = time.perf_counter()
    inputs.GENERATORS[workload](seed, count)
    inputs_s = time.perf_counter() - start
    backend = getattr(ottospin, "kernel_backend", None)
    json.dump({
        "import_s": import_s,
        "inputs_s": inputs_s,
        "ottospin_file": ottospin.__file__,
        "ottospin_version": getattr(ottospin, "__version__", None),
        "kernel_backend": backend() if backend else None,
        "numpy": numpy.__version__,
    }, sys.stdout)


if __name__ == "__main__":
    main()
