"""Scale-aware source-separation evaluation metrics and experiment harnesses.

The library centers on three pairwise measures (SNR, scale-invariant SDR,
scale-dependent SDR), the orthogonal interference/artifact split behind
SI-SIR and SI-SAR, and a faithful reimplementation of the legacy
FIR-projection SDR whose permissive reference deformation the experiment
harnesses demonstrate.

Diagnostics go to the ``sepmetrics`` logger, which is silent unless the
application configures logging.
"""

import logging

from .adversary import (
    AdversaryConfig,
    AdversaryResult,
    gradient,
    mask_from_weights,
    objective,
    optimize,
)
from .audio import Signal, read_wav, write_csv, write_wav
from .dsp import (
    MaskVector,
    Spectrogram,
    StftConfig,
    apply_mask,
    band_center,
    band_edges,
    hz_to_bins,
    istft,
    mix_at_snr,
    stft,
    white_noise,
)
from .errors import (
    ConfigError,
    CountMismatchError,
    DegenerateSourcesError,
    EmptySignalError,
    FormatError,
    InputError,
    IoError,
    LengthMismatchError,
    NonFiniteError,
    PreconditionError,
    ProblemTooLargeError,
    SampleRateMismatchError,
    SepMetricsError,
    SignalTooShortError,
    SpecValidationError,
    ZeroEstimateError,
    ZeroReferenceError,
    ZeroTargetError,
)
from .experiments import (
    CurveRow,
    ExperimentSpec,
    run_adversarial,
    run_bandstop_sweep,
    run_progressive_deletion,
    run_rescale_sweep,
    run_to_directory,
)
from .fixtures import speech_like
from .legacy import (
    FirProjectionConfig,
    LegacyDecomposition,
    fir_project,
    legacy_sar,
    legacy_sdr,
    legacy_sir,
)
from .metrics import (
    Decomposition,
    MetricReport,
    decompose,
    evaluate,
    evaluate_permuted,
    sd_sdr,
    si_sar,
    si_sdr,
    si_sir,
    snr,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
