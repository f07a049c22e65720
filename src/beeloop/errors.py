"""Error taxonomy shared by all modules.

Every error carries a stable machine-readable ``code`` so the CLI can report
exactly one error name on stderr and tests can match on it.
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
