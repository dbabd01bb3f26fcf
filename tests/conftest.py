import numpy as np
import pytest

from sepmetrics.fixtures import speech_like


@pytest.fixture(scope="session")
def speech():
    """The shipped 2 s / 16 kHz speech-like fixture."""
    return speech_like()


@pytest.fixture(scope="session")
def short_speech():
    """A short fixture slice for gradient checks and quick loops."""
    sig = speech_like(duration_s=0.25, sample_rate_hz=16000, seed=3)
    return sig


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


_DEPENDENT = {
    "zero": lambda s, r: ([np.zeros_like(s)], []),
    "duplicated": lambda s, r: ([s.copy()], []),
    "scaled": lambda s, r: ([3.0 * s], []),
    "duplicated_and_independent": lambda s, r: ([s.copy(), r], [r]),
}


@pytest.fixture(params=sorted(_DEPENDENT))
def dependent(request):
    """``(s, r) -> (interferers, independent)`` for interferers linearly dependent on ``s``.

    ``[s] + interferers`` spans what ``[s] + independent`` spans, so every
    projection onto the sources is the same for both lists.
    """
    return _DEPENDENT[request.param]
