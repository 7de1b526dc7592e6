"""One-line mutants of the package's check lines, each run against the
Tier-1 command with ``-x`` in a copy of the repository.

    python tests/mutants.py

Each mutant moves the one number that a check compares against: it is
located with the standard library's ``ast`` and replaced in the text of a
copy of the repository in a temporary directory, so nothing in ``src/``
changes.  The unmutated copy runs first and must pass.  The script prints
each mutant as killed (with the first failing test) or survived, with its
run time, and exits 1 if any survives.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER_1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
          "-p", "no:cacheprovider"]

#: (module file, function, the number its check compares against, mutant)
MUTANTS = (
    ("cycle.py", "_relative_entropy_batch", 1e-12, "1e-14"),
    ("propagator.py", "__post_init__", 1e-10, "1e-8"),
    ("propagator.py", "_flip_probabilities", 1e-9, "1e-6"),
    ("spin.py", "eigensystem", 1e-14, "1e-16"),
)


def mutate(source: str, function: str, number: float, replacement: str) -> str:
    """``source`` with the one ``number`` that a comparison in ``function``
    reads replaced by the text ``replacement``."""
    tree = ast.parse(source)
    [definition] = [node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == function]
    [constant] = [node for compare in ast.walk(definition) if isinstance(compare, ast.Compare)
                  for node in ast.walk(compare)
                  if isinstance(node, ast.Constant) and node.value == number]
    lines = source.encode().splitlines(keepends=True)
    line = lines[constant.lineno - 1]  # ast's column offsets count UTF-8 bytes
    lines[constant.lineno - 1] = (
        line[:constant.col_offset] + replacement.encode() + line[constant.end_col_offset:])
    return b"".join(lines).decode()


def run_tier_1(mutant: tuple[str, str, float, str] | None) -> tuple[bool, str, float]:
    """Whether the Tier-1 command passes on a copy of the repository with
    ``mutant`` applied (none: unmutated), its first failure, and its time."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if mutant is not None:
            name, function, number, replacement = mutant
            path = copy / "src" / "ottospin" / name
            path.write_text(mutate(path.read_text(), function, number, replacement))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        done = subprocess.run(TIER_1, cwd=copy, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
    failures = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
    return done.returncode == 0, (failures or [""])[0], elapsed


def main() -> int:
    start = time.perf_counter()
    passed, failure, elapsed = run_tier_1(None)
    if not passed:
        print(f"the unmutated copy fails ({elapsed:.1f} s): {failure}")
        return 2
    print(f"unmutated: passed in {elapsed:.1f} s")
    survivors = []
    for mutant in MUTANTS:
        name, function, number, replacement = mutant
        passed, failure, elapsed = run_tier_1(mutant)
        label = f"{name}:{function} {number!r} -> {replacement}"
        print(f"{'SURVIVED' if passed else 'killed'}  {elapsed:5.1f} s  {label}  {failure}")
        if passed:
            survivors.append(label)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived"
          f"{': ' + '; '.join(survivors) if survivors else ''} "
          f"({time.perf_counter() - start:.0f} s in all)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
