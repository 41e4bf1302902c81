"""Exception hierarchy. Every error the library raises derives from SonoError.

Problems a run works around are logged as warnings through log_warning.
"""


def log_warning(logger: str, msg: str, *args) -> None:
    """Log a warning under the named logger. logging is imported here, on
    the first warning, so a run that warns of nothing never loads it."""
    import logging
    logging.getLogger(logger).warning(msg, *args, stacklevel=2)


class SonoError(Exception):
    """Base class for all sono errors."""


class IngestionError(SonoError):
    """Malformed input table (ragged rows, bad options, unparseable file)."""


class EmptyDatasetError(SonoError):
    """No rows left after cleaning."""


class DomainError(SonoError):
    """A code, label or probability is outside its declared domain."""


class CISearchFailure(SonoError):
    """The integer half-width sweep exhausted c = n without bracketing the level."""


class TableExplosion(SonoError):
    """A contingency table exceeds the configured cell cap."""

    def __init__(self, subset, cells, cap):
        self.subset = tuple(subset)
        self.cells = cells
        self.cap = cap
        super().__init__(
            f"table over variables {self.subset} has {cells:.3g} cells, "
            f"exceeding the cap of {cap:.3g}"
        )


class OracleRefusal(SonoError):
    """Input is beyond the reference oracle's deliberate size caps."""


class InternalConsistencyError(SonoError):
    """Thresholds and flags disagree; indicates a bug, not a user error."""
