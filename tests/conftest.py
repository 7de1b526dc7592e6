import importlib.util
import sys
from pathlib import Path

import pytest

import ottospin  # noqa: F401 - loads every module whose caches are cleared below

_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record a one-line verdict for an acceptance criterion, then assert it."""

    def record(number: int, label: str, passed: bool) -> None:
        line = f"criterion {number:02d} {'PASS' if passed else 'FAIL'}: {label}"
        _CRITERION_LINES.append(line)
        print(line)
        assert passed, line

    return record


def _package_caches():
    """Every ``functools.lru_cache`` defined at module level in the package."""
    return [
        value
        for name, module in sorted(sys.modules.items())
        if name.startswith("ottospin.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
        and getattr(value, "__module__", None) == name
    ]


def _tracing_module():
    """``perfbench/tracing.py``, loaded from its file: the benchmark's
    tracer, whose ``BOUNDARIES`` name the package functions it wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Start each test with every package cache empty, so that a test that
    patches the kernel or ``eigensystem`` sees its patch called rather than
    a product, eigenbasis or plan kept by an earlier test."""
    for cache in _package_caches():
        cache.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
