"""Exception hierarchy shared by all sepmetrics modules, and the number check
every configuration class runs on its fields.

A new error class picks its category by its base, and the CLI exit code
follows the category: ``InputError`` 2, ``PreconditionError`` 3, and 1 for
the uncategorised ``SepMetricsError`` and ``ConfigError``.
"""

import math
import numbers


class SepMetricsError(Exception):
    """Base class for all sepmetrics errors."""


class InputError(SepMetricsError):
    """Category base: a file, format or experiment spec cannot be used (CLI exit 2)."""


class PreconditionError(SepMetricsError):
    """Category base: the inputs break a metric's precondition (CLI exit 3)."""


class IoError(InputError):
    """Reading or writing a file failed."""


class FormatError(InputError):
    """A file is not in a supported format (unsupported WAV encoding, bad chunk layout)."""


class EmptySignalError(InputError):
    """An audio payload contains no samples."""


class LengthMismatchError(PreconditionError):
    """Two signals (or a spectrogram and a mask) that must agree in length do not."""


class SampleRateMismatchError(PreconditionError):
    """Signals that are compared sample by sample carry different sample rates."""


class NonFiniteError(PreconditionError, ValueError):
    """Samples, spectrogram frames or mask weights hold NaN/inf, or a metric's
    energy of finite samples lies beyond the float64 range. A ``ValueError`` too."""


class ZeroReferenceError(PreconditionError):
    """The reference signal is identically zero, so no ratio against it is defined."""


class ZeroEstimateError(PreconditionError):
    """The estimate is identically zero; scale-invariant metrics are undefined for it."""


class ZeroTargetError(PreconditionError):
    """A decomposition has a zero target component."""


class DegenerateSourcesError(PreconditionError):
    """A source Gram system misses Cholesky's backward-error bound even solved on
    its numerical rank, or a legacy projection has more delayed copies
    (``taps*sources``) than its padded support has samples (``L + taps - 1``)."""


class CountMismatchError(PreconditionError):
    """Reference and estimate collections differ in size."""


class SignalTooShortError(PreconditionError):
    """The signal is shorter than one analysis window or than the FIR filter."""


class ProblemTooLargeError(PreconditionError, ValueError):
    """taps*sources exceeds the legacy projection's size cap. A ``ValueError`` too."""


class ConfigError(SepMetricsError, ValueError):
    """A configuration field holds a value of the wrong type or out of range.

    ``field`` names the offending field and ``reason`` says what is wrong
    with it. A ``ValueError`` too, like any bad argument.
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class SpecValidationError(ConfigError, InputError):
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
