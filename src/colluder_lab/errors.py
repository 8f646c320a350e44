"""Exception types shared across the package."""

from __future__ import annotations

import math
from numbers import Integral, Real


class ColluderLabError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(ColluderLabError):
    """A graph definition (file or constructor arguments) is malformed."""


class GraphQueryError(ColluderLabError):
    """A graph query referenced unknown vertices or violated a precondition."""


class LawError(ColluderLabError):
    """A categorical law or probability table is invalid."""


class DataError(ColluderLabError):
    """A dataset (CSV or in-memory records) is malformed or inconsistent.

    ``reason`` is the message without its location; ``row`` is the index of
    the offending in-memory record and ``line`` its line in a file.
    """

    def __init__(self, message: str, line: int | None = None, row: int | None = None):
        self.reason, self.line, self.row = message, line, row
        if line is not None:
            message = f"{message} (line {line})"
        elif row is not None:
            message = f"{message} (record {row})"
        super().__init__(message)


class PositivityError(ColluderLabError):
    """A conditioning event or stratum has probability below the positivity threshold."""

    def __init__(self, message: str, stratum: dict | None = None):
        self.stratum = dict(stratum) if stratum is not None else None
        super().__init__(message)


class ConditionalIndependenceError(ColluderLabError):
    """The m-separation condition required by the colluder equations fails."""

    def __init__(self, message: str, colluder=None):
        self.colluder = colluder
        super().__init__(message)


class RankDeficiencyError(ColluderLabError):
    """A colluder matrix is rank deficient: the system is not identifiable there."""

    def __init__(self, message: str, colluder=None, stratum: dict | None = None,
                 rank: int | None = None, required: int | None = None,
                 singular_values=None):
        self.colluder = colluder
        self.stratum = dict(stratum) if stratum is not None else None
        self.rank = rank
        self.required = required
        self.singular_values = None if singular_values is None else list(singular_values)
        super().__init__(message)

    def signature(self) -> tuple:
        """Hashable identity of the failure, for comparing structured errors."""
        stratum = tuple(sorted(self.stratum.items())) if self.stratum else ()
        return (str(self.colluder), stratum, self.rank, self.required)


class FitError(ColluderLabError):
    """Estimation cannot proceed (empty data, graph mismatch, non-identifiable model)."""


def check_integer(name: str, value, low: int, error: type[ColluderLabError]) -> None:
    """Raise ``error`` unless ``value`` is an integer of at least ``low``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be non-negative, got {value!r}" if low == 0
                    else f"{name} must be at least {low}, got {value!r}")


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
