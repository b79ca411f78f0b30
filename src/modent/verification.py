"""Result type returned by the exhaustive and symbolic verifiers."""

from types import MappingProxyType
from typing import NamedTuple

FAILURE_SAMPLES = 20  # failure lines a verifier keeps; data["failures_total"] counts all


class VerificationReport(NamedTuple):
    """Outcome of a verification run.

    `checks` counts the individual assertions that were evaluated and
    `failures` holds a human-readable line per violation (empty on success;
    the modular verifiers and the aggregated grouping report keep the first
    FAILURE_SAMPLES and count all of them in data["failures_total"]).  Extra
    measured quantities (dimensions, generators, ...) go in `data`, an empty
    read-only mapping when omitted.
    """

    name: str
    checks: int
    failures: tuple = ()
    data: dict = MappingProxyType({})

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed


class Failures:
    """The first FAILURE_SAMPLES failure lines of a verifier, and the count of all."""

    def __init__(self):
        self.lines, self.total = [], 0

    def add(self, items, line_of=str):
        """Count one failure per item; keep line_of(item) while there is room."""
        self.total += len(items)
        room = max(FAILURE_SAMPLES - len(self.lines), 0)
        self.lines += [line_of(x) for x in items[:room]]
