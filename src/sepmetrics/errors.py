"""Exception hierarchy shared by all sepmetrics modules, and the number check
every configuration class runs on its fields."""

import math
import numbers


class SepMetricsError(Exception):
    """Base class for all sepmetrics errors."""


class IoError(SepMetricsError):
    """Reading or writing a file failed."""


class FormatError(SepMetricsError):
    """A file is not in a supported format (unsupported WAV encoding, bad chunk layout)."""


class EmptySignalError(SepMetricsError):
    """An audio payload contains no samples."""


class LengthMismatchError(SepMetricsError):
    """Two signals (or a spectrogram and a mask) that must agree in length do not."""


class SampleRateMismatchError(SepMetricsError):
    """Signals that are compared sample by sample carry different sample rates."""


class NonFiniteError(SepMetricsError):
    """A metric's energy ratio is NaN or infinite: the inputs hold NaN/inf
    samples, or an energy of finite samples lies beyond the float64 range."""


class ZeroReferenceError(SepMetricsError):
    """The reference signal is identically zero, so no ratio against it is defined."""


class ZeroEstimateError(SepMetricsError):
    """The estimate is identically zero; scale-invariant metrics are undefined for it."""


class ZeroTargetError(SepMetricsError):
    """A decomposition has a zero target component."""


class DegenerateSourcesError(SepMetricsError):
    """The source set is (numerically) linearly dependent beyond the jitter safeguard."""


class CountMismatchError(SepMetricsError):
    """Reference and estimate collections differ in size."""


class SignalTooShortError(SepMetricsError):
    """The signal is shorter than one analysis window or than the FIR filter."""


class ConfigError(SepMetricsError, ValueError):
    """A configuration field holds a value of the wrong type or out of range.

    ``field`` names the offending field and ``reason`` says what is wrong
    with it. A ``ValueError`` too, like any bad argument.
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class SpecValidationError(ConfigError):
    """An experiment description is invalid.

    ``field`` holds the dotted path of the offending entry.
    """


def _check_number(field: str, value, integer: bool = False, error=ConfigError) -> None:
    """Raise ``error(field, ...)`` unless ``value`` is a finite real number.

    With ``integer`` it must be an ``int`` or a numpy integer: an integral
    float such as ``512.0`` is rejected, as is ``True``/``False`` either way.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(field, f"must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not integer and not math.isfinite(value):
        raise error(field, f"must be finite, got {value!r}")
