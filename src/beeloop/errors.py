"""Error taxonomy shared by all modules, and the artifact text encoding.

Every error carries a stable machine-readable ``code`` so the CLI can report
exactly one error name on stderr and tests can match on it. ``read_utf8``
reads a text input, ``plain_number`` a number in it, and ``write_utf8``
writes every artifact: UTF-8, LF line ends.
"""


class SimError(Exception):
    """Base class for all domain errors; ``code`` is the stable error name."""

    code = "SimError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


def read_utf8(path, error: type[SimError]) -> str:
    """The text of ``path``; bytes that are not UTF-8 raise ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise error(f"{path} is not UTF-8: byte {err.start} {err.reason}") from None


def plain_number(raw: str, kind=float):
    """``kind(raw)`` for ASCII text without ``_``; ValueError otherwise.

    ``int`` and ``float`` alone also read ``_`` digit separators and other
    scripts' digits, so ``1_50`` and the Arabic-Indic ``١٥٠`` would alias 150.
    """
    if not raw.isascii() or "_" in raw:
        raise ValueError(raw)
    return kind(raw)


def write_utf8(path, lines) -> None:
    """Write the strings of ``lines`` to ``path`` as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


# -- map parsing ------------------------------------------------------------

class NoHiveError(SimError):
    code = "NoHive"


class MultipleHivesError(SimError):
    code = "MultipleHives"


class RaggedRowsError(SimError):
    code = "RaggedRows"


class UnknownSymbolError(SimError):
    code = "UnknownSymbol"


class ZeroRegionsError(SimError):
    code = "ZeroRegions"


# -- weather ----------------------------------------------------------------

class MissingDayError(SimError):
    code = "MissingDay"


class DuplicateDayError(SimError):
    code = "DuplicateDay"


class OutOfRangeValueError(SimError):
    code = "OutOfRangeValue"


# -- monitor ----------------------------------------------------------------

class InsufficientSamplesError(SimError):
    code = "InsufficientSamples"


class DegenerateDesignError(SimError):
    code = "DegenerateDesign"


class ArityMismatchError(SimError):
    code = "ArityMismatch"


class ZeroVarianceError(SimError):
    code = "ZeroVariance"


# -- control ----------------------------------------------------------------

class TilingMismatchError(SimError):
    code = "TilingMismatch"


class ClassImbalanceError(SimError):
    code = "ClassImbalance"


# -- supervisor / metrics ---------------------------------------------------

class RegionSetMismatchError(SimError):
    code = "RegionSetMismatch"


class PatchUniverseMismatchError(SimError):
    code = "PatchUniverseMismatch"


class ZeroBaselineVisitsError(SimError):
    code = "ZeroBaselineVisits"


class BadWeightsError(SimError):
    code = "BadWeights"


# -- cli --------------------------------------------------------------------

class MapNotFoundError(SimError):
    code = "MapNotFound"


class WeatherNotFoundError(SimError):
    code = "WeatherNotFound"


class ConfigError(SimError):
    code = "ConfigError"


class MissingArtifactsError(SimError):
    code = "MissingArtifacts"
