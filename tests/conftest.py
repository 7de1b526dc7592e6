import pytest

from ottospin import cycle, propagator

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


@pytest.fixture(autouse=True)
def _fresh_drive_caches():
    """Start each test with no kept propagators or cycle plan, so a test
    that patches the kernel or ``eigensystem`` sees its patch called rather
    than a product or eigenbasis kept by an earlier test."""
    propagator._converged.cache_clear()
    cycle._cycle_plan.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
