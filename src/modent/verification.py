"""Result type returned by the exhaustive and symbolic verifiers."""

from types import MappingProxyType
from typing import NamedTuple


class VerificationReport(NamedTuple):
    """Outcome of a verification run.

    `checks` counts the individual assertions that were evaluated and
    `failures` holds a human-readable line per violation (empty on success;
    the modular verifiers keep the first 20 and count all of them in
    data["failures_total"]).  Extra measured quantities (dimensions,
    generators, ...) go in `data`, an empty read-only mapping when omitted.
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
