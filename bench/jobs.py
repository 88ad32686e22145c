"""What a workload hands the runner: rounds of jobs, each timed apart from
its check."""

from __future__ import annotations


class OperationFailed(Exception):
    """The program did not complete the operation (as opposed to completing
    it with a wrong result, which its check reports)."""


class Job:
    """``run()`` is the timed call into the program; ``check(output)`` runs
    afterwards, untimed, and raises AssertionError on a wrong result."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check):
        self.kind = kind
        self.run = run
        self.check = check
