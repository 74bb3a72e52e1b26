"""Error taxonomy shared across the toolkit.

Every domain error derives from ArlifError so the CLI can catch one type
and turn it into a nonzero exit with a diagnostic.
"""


class ArlifError(Exception):
    """Base class for all toolkit errors."""


# --- ingest ---------------------------------------------------------------

class FieldCountMismatch(ArlifError):
    """A record line carries the wrong number of comma-separated fields."""


class NumericParse(ArlifError):
    """A numeric column holds text, a value or a range that is not a finite number."""


class NotUtf8(ArlifError):
    """A record file or stream line is not valid UTF-8."""


class LineTooLong(ArlifError):
    """A record file or stream line is longer than ingest.MAX_LINE_BYTES, the most
    that ingest.read_lines keeps of one line."""


class SingleClass(ArlifError):
    """All labels identical; a supervised statistic is undefined."""


# --- iforest --------------------------------------------------------------

class InsufficientData(ArlifError):
    """Too few points to build a forest."""


# --- attention / detector -------------------------------------------------

class DimensionMismatch(ArlifError):
    """Array shape incompatible with the configured k / m."""


class StaleCache(ArlifError):
    """Forward cache does not match the parameters it is replayed against."""


class EmptyStream(ArlifError):
    """No rows where at least one is required: to train online, to fit the
    preprocessor on, or to evaluate and tally."""


class BufferTooLarge(ArlifError):
    """A buffer sized from the model's shape would pass its stated byte limit."""


class Diverged(ArlifError):
    """Online SGD blew the attention layer up: its readout or parameters are not finite."""


# --- model file -----------------------------------------------------------

class BadMagic(ArlifError):
    """File does not start with the ARLF magic."""


class VersionUnsupported(ArlifError):
    """Model file version or layout flags this build cannot read."""


class TruncatedFile(ArlifError):
    """Model file ends (or continues) where the layout says it must not."""


class CorruptModel(ArlifError, ValueError):
    """Model contents, loaded or handed to a constructor, break an invariant."""


# --- metrics --------------------------------------------------------------

class LengthMismatch(ArlifError):
    """Predictions and labels differ in length."""
