"""Audio and CSV file handling.

WAV support is deliberately narrow: RIFF files carrying 16-bit integer PCM or
32-bit IEEE float, mono or multichannel (one channel is selected on read),
tagged directly or through a WAVE_FORMAT_EXTENSIBLE sub-format GUID.
Everything is converted to 64-bit floats at full scale +-1.0 on the way in;
files are always written as 32-bit float so that a write/read round trip
reproduces sample values bit-exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptySignalError,
    FormatError,
    IoError,
    NonFiniteError,
    _check_number,
)

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# the last 14 bytes of every KSDATAFORMAT_SUBTYPE_* GUID; the first 2 hold the tag
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000AA00389B71")

__all__ = ["Signal", "read_wav", "write_wav", "write_csv", "rows_to_csv", "format_cell"]


def _float_samples(x) -> np.ndarray:
    """``x`` as a 1-D float64 array.

    Only integer and floating dtypes are cast; complex, boolean, string,
    bytes or object input, or other than 1-D, raises ``ValueError``.
    """
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf":
        what = "real signal" if arr.dtype.kind == "c" else "signal of integer or float samples"
        raise ValueError(f"expected a {what}, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {arr.shape}")
    return arr


@dataclass(eq=False)
class Signal:
    """A mono sample buffer plus its sample rate.

    Samples are 64-bit floats, full scale +-1.0 (values beyond full scale are
    legal; float WAV does not clip). At least one sample, all finite, given
    with an integer or floating dtype. The sample rate is an ``int`` or
    numpy integer >= 1.
    """

    samples: np.ndarray
    sample_rate_hz: int = 16000

    def __post_init__(self):
        samples = _float_samples(self.samples)
        if samples.size < 1:
            raise EmptySignalError("a Signal needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise NonFiniteError("samples must be finite (no NaN/Inf)")
        _check_number("sample_rate_hz", self.sample_rate_hz, integer=True)
        if self.sample_rate_hz < 1:
            raise ConfigError("sample_rate_hz", f"must be >= 1, got {self.sample_rate_hz}")
        self.samples = samples
        self.sample_rate_hz = int(self.sample_rate_hz)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def _read_chunks(data: bytes, path: str) -> dict[bytes, memoryview]:
    """Chunk bodies by id, as views into ``data`` (the payload is not copied)."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    view = memoryview(data)
    chunks: dict[bytes, memoryview] = {}
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if pos + 8 + size > len(data):  # a missing final pad byte is tolerated
            raise FormatError(
                f"{path}: chunk {cid.decode('latin-1')!r} declares {size} bytes "
                f"but only {len(data) - pos - 8} remain"
            )
        body = view[pos + 8:pos + 8 + size]
        if cid not in chunks:  # keep the first occurrence
            chunks[cid] = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def read_wav(path: str, channel: int | None = None) -> Signal:
    """Read a WAV file into a :class:`Signal`.

    Args:
        path: file to read.
        channel: which channel of a multichannel file to return. Defaults to
            the first channel.

    Raises:
        IoError: the file cannot be read.
        FormatError: encoding other than PCM16/float32 (plain or under a
            WAVE_FORMAT_EXTENSIBLE GUID), malformed chunks, a zero sample
            rate, or a float payload containing non-finite values.
        EmptySignalError: the file has no frames.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    chunks = _read_chunks(data, path)
    if b"fmt " not in chunks or b"data" not in chunks:
        raise FormatError(f"{path}: missing fmt/data chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise FormatError(f"{path}: truncated fmt chunk")
    audio_format, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == _EXTENSIBLE:
        if len(fmt) < 40:
            raise FormatError(f"{path}: truncated WAVE_FORMAT_EXTENSIBLE fmt chunk")
        if fmt[26:40] != _SUBFORMAT_TAIL:
            raise FormatError(f"{path}: unknown WAVE_FORMAT_EXTENSIBLE sub-format GUID")
        (audio_format,) = struct.unpack_from("<H", fmt, 24)
    if n_channels < 1:
        raise FormatError(f"{path}: invalid channel count {n_channels}")
    if rate < 1:
        raise FormatError(f"{path}: invalid sample rate {rate}")

    if audio_format == _PCM and bits == 16:
        dtype = np.dtype("<i2")
    elif audio_format == _IEEE_FLOAT and bits == 32:
        dtype = np.dtype("<f4")
    else:
        raise FormatError(
            f"{path}: unsupported encoding (format={audio_format}, bits={bits}); "
            "only 16-bit PCM and 32-bit float are supported"
        )
    payload = chunks[b"data"]
    raw = np.frombuffer(payload[: len(payload) - len(payload) % dtype.itemsize], dtype=dtype)

    frames = raw.size // n_channels
    if frames == 0:
        raise EmptySignalError(f"{path}: no audio frames")
    ch = 0 if channel is None else int(channel)
    if not 0 <= ch < n_channels:
        raise FormatError(f"{path}: channel {ch} out of range (file has {n_channels})")
    # The one float64 buffer: the channel is picked on the raw view, converted once.
    samples = raw[: frames * n_channels].reshape(frames, n_channels)[:, ch].astype(np.float64)
    if dtype.kind == "i":
        samples /= 32768.0
    try:
        return Signal(samples, int(rate))  # its finiteness check is the one scan
    except ValueError as exc:  # the only check left that these samples can fail
        raise FormatError(f"{path}: float payload contains non-finite samples") from exc


def write_wav(signal: Signal, path: str) -> None:
    """Write ``signal`` as a mono 32-bit float WAV file.

    Values are stored unclipped; ``read_wav(write_wav(s))`` returns the same
    samples bit-exactly (up to the float32 payload width).
    """
    samples = signal.samples.astype("<f4")
    payload = samples.tobytes()
    n = samples.size
    fmt = struct.pack(
        "<HHIIHH", _IEEE_FLOAT, 1, signal.sample_rate_hz,
        signal.sample_rate_hz * 4, 4, 32,
    )
    fact = struct.pack("<I", n)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<I", len(fact)) + fact
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def format_cell(value) -> str:
    """Serialize one CSV cell: 9 significant digits, inf/-inf/nan sentinels."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.9g}"


def rows_to_csv(rows) -> str:
    """Render records as CSV text (header + rows, '\\n' line endings).

    The header is the first row's key order. Raises ValueError when rows
    disagree on their column set, or when there are no rows to take it from.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("cannot infer columns from an empty row set")
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for i, row in enumerate(rows):
        if set(row.keys()) != set(columns):
            raise ValueError(f"row {i} columns {sorted(row)} != header {sorted(columns)}")
        lines.append(",".join(format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def write_csv(rows, path: str) -> None:
    """Write records as UTF-8 comma-separated values with a header row.

    Args:
        rows: non-empty sequence of mappings sharing one column set; the
            header is the first row's key order.
        path: output file.

    Raises:
        IoError: on I/O failure.
        ValueError: when rows are empty or disagree on their column set.
    """
    text = rows_to_csv(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
