"""Exception hierarchy shared by all chronofuse modules.

Every error raised on a contract violation derives from ChronofuseError so
the CLI can map any pipeline failure to exit code 2.
"""


class ChronofuseError(Exception):
    """Base class for all chronofuse errors."""


def read_text(path, error: type[ChronofuseError], what: str) -> str:
    """The UTF-8 text of the file at `path` (a Path), line breaks as they are; `what` names it."""
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not valid UTF-8: {exc}") from exc


class OutputWriteError(ChronofuseError, OSError):
    """An output file or directory cannot be written; the message names its path."""


# --- ingest ---

class ReportReadError(ChronofuseError):
    """Report file is missing, unreadable, or not valid UTF-8."""


class UnknownFormat(ChronofuseError):
    """Report extension is not recognized and no format hint was given."""


class NoTimestamp(ChronofuseError):
    """Text contains no timestamp in any accepted format."""


class NoTimestampInDocument(ChronofuseError):
    """Document yields observations but never a parseable timestamp."""


class InvalidLexicon(ChronofuseError):
    """Lexicon file violates its grammar or uniqueness invariants."""


class DuplicateReport(ChronofuseError):
    """Two reports in one run resolved to the same report id."""


# --- temporal store ---

class UnitConflict(ChronofuseError):
    """One metric arrived with two different non-empty units."""


class InvertedRange(ChronofuseError):
    """A time range was given with start after end."""


class NonFiniteValue(ChronofuseError, ValueError):
    """An observation to fuse or archive has a NaN or infinite value."""


class FinerGranularity(ChronofuseError, ValueError):
    """A table was asked to rebucket to a finer granularity than its own."""


class EmptyCell(ChronofuseError):
    """Aggregation was requested for a cell with no entries."""


class MalformedStore(ChronofuseError):
    """Store or archive file does not match its documented grammar."""


class VersionMismatch(ChronofuseError):
    """Store or archive file declares an unsupported schema version."""


# --- charts ---

class DegenerateRange(ChronofuseError):
    """Reference range has low == high."""


class DegenerateValueRange(ChronofuseError):
    """Value range has vmin == vmax for radial placement, or is too wide to draw."""


class UnknownMetric(ChronofuseError):
    """Requested metric has no column in the table."""


class EmptySelection(ChronofuseError):
    """No cells fall inside the requested metric/time selection."""


class TooFewSlices(ChronofuseError):
    """Radial line charts need at least three time slices."""


class MissingRange(ChronofuseError):
    """reference_range normalization requested for a metric without one."""


# --- render ---

class PanelTooSmall(ChronofuseError):
    """Panel cannot fit the plot box even at maximal tick thinning and 8px text."""


# --- cli ---

class ConfigError(ChronofuseError):
    """Config file is malformed or references unresolvable paths."""
