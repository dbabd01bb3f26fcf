"""Exception hierarchy shared by all sepmetrics modules."""


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
    """A metric's energy ratio is NaN or infinite: the inputs hold NaN/inf samples."""


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
    """The signal is shorter than one analysis window."""


class SpecValidationError(SepMetricsError):
    """An experiment description read from JSON is invalid.

    ``field`` holds the dotted path of the offending entry.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
