"""Shared exception types and the report object returned by verification runs."""


class StructureError(ValueError):
    """Operands do not fit together (cap or variable mismatch, non-square matrix)."""


class NonInvertibleError(ArithmeticError):
    """Inversion or exact division requested where none exists."""


class VerificationError(AssertionError):
    """A mathematical identity that must hold exactly failed to hold."""


class ResourceGuardError(RuntimeError):
    """A search was asked to exceed its configured size guard."""


class CheckReport:
    """Outcome of a verification routine: a named list of checks that all passed.

    Routines raise VerificationError on the first failing identity, so the
    lines record what was checked and passed; a report with no line ran no
    check, and a check that ran nothing is not a pass.
    """

    def __init__(self, name):
        self.name = name
        self.lines = []

    @property
    def passed(self):
        return bool(self.lines)

    def add(self, line):
        self.lines.append(line)

    def __repr__(self):
        return f"CheckReport({self.name!r}, {len(self.lines)} checks, passed={self.passed})"
