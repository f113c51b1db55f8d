"""Exception types shared across the pipeline.

Exit codes mirror the CLI contract: 2 config, 3 data, 4 numerical, 5 out of
memory.
"""

from __future__ import annotations


class BondTcaError(Exception):
    exit_code = 1


class ConfigError(BondTcaError):
    """Invalid run configuration (bad flag, bad range, missing file)."""

    exit_code = 2


class DataError(BondTcaError):
    """Input data violates a contract (unknown cusip, bad schema, ...)."""

    exit_code = 3


class ParseError(DataError):
    """Malformed input row; carries the row number and offending column."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.message = message
        self.row = row
        self.column = column
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)


class NumericalError(BondTcaError):
    """A solve or estimate failed (ill-conditioning, no root in bracket)."""

    exit_code = 4


class ResourceError(BondTcaError):
    """The run needs more memory than the machine gives it."""

    exit_code = 5
