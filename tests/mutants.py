"""One-line mutants of the package's check lines, each run against the
Tier-1 command with ``-x`` in a copy of the repository.

    python tests/mutants.py                           # the four pinned mutants
    python tests/mutants.py config.py                 # the catalogue of a module
    python tests/mutants.py cycle.py CycleConfig.__post_init__
    python tests/mutants.py config.py --list          # list it, run nothing

With no module, it applies the four mutants that move the number a pinned
check line compares against.  With one, it applies the catalogue of that
module, or of one function in it (named bare or as ``Class.method``; a
nested function or lambda belongs to every function around it):

- each numeric literal in a comparison, other than 0, scaled by 100 and by
  1/100;
- each ``<`` swapped with ``<=``, and each ``>`` with ``>=``;
- each ``raise`` whose statement sits directly under an ``if``, replaced by
  ``pass``.

Mutants are located with the standard library's ``ast`` and applied to the
text of a copy of the repository in a temporary directory, so nothing in
``src/`` changes.  The unmutated copy runs first and must pass.  The script
prints each mutant as killed (with the first failing test) or survived,
with its run time, and exits 1 if any survives.  A module that does not
exist, or a selection with no mutant in it, is refused with one ``error:``
line and exit code 2 before anything runs.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ottospin"
TIER_1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
          "-p", "no:cacheprovider"]

#: (module file, function, the number its check compares against, mutant)
MUTANTS = (
    ("cycle.py", "_relative_entropy_batch", 1e-12, "1e-14"),
    ("propagator.py", "__post_init__", 1e-10, "1e-8"),
    ("propagator.py", "_flip_probabilities", 1e-9, "1e-6"),
    ("spin.py", "eigensystem", 1e-14, "1e-16"),
)

_SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


class Mutant(NamedTuple):
    """One edit of a module's text: the UTF-8 bytes ``start:end`` become
    ``replacement``."""

    module: str
    scope: str
    line: int
    column: int
    label: str
    start: int
    end: int
    replacement: str

    def apply(self, source: str) -> str:
        text = source.encode()
        return (text[:self.start] + self.replacement.encode() + text[self.end:]).decode()

    def __str__(self) -> str:
        return f"{self.module}:{self.line}:{self.column} {self.scope}: {self.label}"


def _scoped(node: ast.AST, scopes: tuple[str, ...] = ()) -> Iterator[
        tuple[ast.AST, ast.AST, tuple[str, ...]]]:
    """Every node under ``node`` with its parent and the qualified names of
    the classes and functions around it, outermost first."""
    for child in ast.iter_child_nodes(node):
        inner = scopes
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scopes, f"{scopes[-1]}.{child.name}" if scopes else child.name)
        yield child, node, inner
        yield from _scoped(child, inner)


def catalogue(module: str, function: str | None = None) -> list[Mutant]:
    """The mutants of ``module`` (a file name under ``src/ottospin``), or of
    the named function in it, in the order of their text."""
    source = (SRC / module).read_text(encoding="utf-8")
    text = source.encode()
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node: ast.AST) -> tuple[int, int]:
        # ast's column offsets count UTF-8 bytes
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    mutants, seen = [], set()
    for node, parent, scopes in _scoped(ast.parse(source)):
        if function is not None and not any(
                function in (name, name.rsplit(".", 1)[-1]) for name in scopes):
            continue
        scope = scopes[-1] if scopes else "<module>"

        def add(label: str, start: int, end: int, replacement: str) -> None:
            if (start, end, replacement) not in seen:
                seen.add((start, end, replacement))
                line = bisect.bisect_right(starts, start)
                mutants.append(Mutant(module, scope, line, start - starts[line - 1], label,
                                      start, end, replacement))

        if isinstance(node, ast.Compare):
            for constant in ast.walk(node):
                if (isinstance(constant, ast.Constant) and type(constant.value) in (int, float)
                        and constant.value != 0):
                    for scaled in (constant.value * 100, constant.value / 100):
                        add(f"{constant.value!r} -> {scaled!r}", *span(constant), repr(scaled))
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) in _SWAPS:
                    old, new = _SWAPS[type(op)]
                    gap_start, gap_end = span(left)[1], span(right)[0]
                    # only brackets and blanks lie between the operands and the operator
                    offset = text.index(old.encode(), gap_start, gap_end)
                    add(f"{old} -> {new}", offset, offset + len(old), new)
        elif isinstance(node, ast.Raise) and isinstance(parent, ast.If):
            add("raise -> pass", *span(node), "pass")
    return sorted(mutants, key=lambda mutant: (mutant.start, mutant.replacement))


def pinned(name: str, function: str, number: float, replacement: str) -> Mutant:
    """The mutant of :data:`MUTANTS` that replaces the one ``number`` that a
    comparison in ``function`` reads by the text ``replacement``."""
    [mutant] = {mutant._replace(label=f"{number!r} -> {replacement}", replacement=replacement)
                for mutant in catalogue(name, function)
                if mutant.label.startswith(f"{number!r} -> ")}
    return mutant


def run_tier_1(mutant: Mutant | None) -> tuple[bool, str, float]:
    """Whether the Tier-1 command passes on a copy of the repository with
    ``mutant`` applied (none: unmutated), its first failure, and its time."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        if mutant is not None:
            path = copy / "src" / "ottospin" / mutant.module
            path.write_text(mutant.apply(path.read_text(encoding="utf-8")), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        done = subprocess.run(TIER_1, cwd=copy, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
    failures = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
    return done.returncode == 0, (failures or [""])[0], elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("module", nargs="?", help="file under src/ottospin, e.g. config.py")
    parser.add_argument("function", nargs="?", help="function in it, e.g. RunConfig.__post_init__")
    parser.add_argument("--list", action="store_true", help="print the mutants, run nothing")
    args = parser.parse_args(argv)
    if args.module is None:
        mutants = [pinned(*entry) for entry in MUTANTS]
    elif not (SRC / args.module).is_file():
        print(f"error: no module {args.module} under src/ottospin", file=sys.stderr)
        return 2
    else:
        mutants = catalogue(args.module, args.function)
        if not mutants:
            where = f"{args.function} in {args.module}" if args.function else args.module
            print(f"error: {where} selects no mutant", file=sys.stderr)
            return 2
    if args.list:
        print("\n".join(map(str, mutants)))
        return 0

    start = time.perf_counter()
    passed, failure, elapsed = run_tier_1(None)
    if not passed:
        print(f"the unmutated copy fails ({elapsed:.1f} s): {failure}")
        return 2
    print(f"unmutated: passed in {elapsed:.1f} s", flush=True)
    survivors = []
    for mutant in mutants:
        passed, failure, elapsed = run_tier_1(mutant)
        print(f"{'SURVIVED' if passed else 'killed'}  {elapsed:5.1f} s  {mutant}  {failure}",
              flush=True)
        if passed:
            survivors.append(str(mutant))
    print(f"{len(survivors)} of {len(mutants)} mutants survived"
          f"{': ' + '; '.join(survivors) if survivors else ''} "
          f"({time.perf_counter() - start:.0f} s in all)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
