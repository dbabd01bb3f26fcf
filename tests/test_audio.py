import math
import struct
import tracemalloc

import numpy as np
import pytest

from sepmetrics.audio import Signal, format_cell, read_wav, rows_to_csv, write_csv, write_wav
from sepmetrics.errors import ConfigError, EmptySignalError, FormatError, IoError


def make_wav(path, payload: bytes, audio_format: int, channels: int, bits: int,
             rate: int = 16000, extension: bytes = b"") -> str:
    """Hand-assembled RIFF file, independent of the library's writer."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block, block, bits)
    fmt += extension
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    path.write_bytes(blob)
    return str(path)


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -32768)
        sig = read_wav(make_wav(tmp_path / "a.wav", payload, 1, 1, 16))
        assert sig.samples.tolist() == [0.0, 0.5, -1.0]
        assert sig.sample_rate_hz == 16000

    def test_stereo_channel_selection(self, tmp_path):
        payload = struct.pack("<6h", 100, 200, 300, 400, 500, 600)
        path = make_wav(tmp_path / "st.wav", payload, 1, 2, 16)
        left = read_wav(path)
        right = read_wav(path, channel=1)
        assert np.allclose(left.samples * 32768, [100, 300, 500])
        assert np.allclose(right.samples * 32768, [200, 400, 600])

    def test_24_bit_rejected(self, tmp_path):
        path = make_wav(tmp_path / "b.wav", b"\x00" * 9, 1, 1, 24)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_float64_rejected(self, tmp_path):
        path = make_wav(tmp_path / "c.wav", b"\x00" * 16, 3, 1, 64)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_zero_length_audio(self, tmp_path):
        path = make_wav(tmp_path / "d.wav", b"", 1, 1, 16)
        with pytest.raises(EmptySignalError):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_wav(str(tmp_path / "nope.wav"))

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not a wav file at all")
        with pytest.raises(FormatError):
            read_wav(str(path))

    def test_float_nan_payload_rejected(self, tmp_path):
        payload = struct.pack("<2f", 0.5, math.nan)
        path = make_wav(tmp_path / "n.wav", payload, 3, 1, 32)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_zero_sample_rate(self, tmp_path):
        path = make_wav(tmp_path / "r.wav", struct.pack("<2h", 1, 2), 1, 1, 16, rate=0)
        with pytest.raises(FormatError, match="sample rate 0"):
            read_wav(path)

    def test_channel_out_of_range(self, tmp_path):
        payload = struct.pack("<2h", 1, 2)
        path = make_wav(tmp_path / "e.wav", payload, 1, 1, 16)
        with pytest.raises(FormatError):
            read_wav(path, channel=1)


GUID_TAIL = bytes.fromhex("000000001000800000AA00389B71")


def extensible(sub_format: int, bits: int, tail: bytes = GUID_TAIL) -> bytes:
    """WAVE_FORMAT_EXTENSIBLE fields after the 16-byte base: cbSize, valid
    bits, channel mask (front centre), sub-format GUID."""
    return struct.pack("<HHIH", 22, bits, 0x4, sub_format) + tail


class TestExtensible:
    def test_pcm16(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -32768)
        path = make_wav(tmp_path / "x.wav", payload, 0xFFFE, 1, 16, extension=extensible(1, 16))
        assert read_wav(path).samples.tolist() == [0.0, 0.5, -1.0]

    def test_float32_stereo(self, tmp_path):
        payload = struct.pack("<4f", 0.25, -1.5, 0.75, 2.0)
        path = make_wav(tmp_path / "f.wav", payload, 0xFFFE, 2, 32, rate=44100,
                        extension=extensible(3, 32))
        sig = read_wav(path, channel=1)
        assert sig.samples.tolist() == [-1.5, 2.0]
        assert sig.sample_rate_hz == 44100

    def test_unknown_guid_rejected(self, tmp_path):
        tail = bytes(reversed(GUID_TAIL))
        path = make_wav(tmp_path / "g.wav", b"\x00" * 4, 0xFFFE, 1, 16,
                        extension=extensible(1, 16, tail))
        with pytest.raises(FormatError, match="sub-format GUID"):
            read_wav(path)

    def test_unsupported_sub_format_rejected(self, tmp_path):
        path = make_wav(tmp_path / "a.wav", b"\x00" * 4, 0xFFFE, 1, 8,
                        extension=extensible(6, 8))  # A-law
        with pytest.raises(FormatError, match=r"format=6,"):
            read_wav(path)

    @pytest.mark.parametrize("keep", [0, 8, 22])
    def test_truncated_extension_rejected(self, tmp_path, keep):
        path = make_wav(tmp_path / "t.wav", b"\x00" * 4, 0xFFFE, 1, 16,
                        extension=extensible(1, 16)[:keep])
        with pytest.raises(FormatError, match="truncated WAVE_FORMAT_EXTENSIBLE"):
            read_wav(path)


class TestOneBuffer:
    """Decoded samples equal a plain reference decode and own their memory."""

    @pytest.mark.parametrize("audio_format, channels, bits, channel, extension", [
        (1, 1, 16, None, b""),
        (3, 1, 32, None, b""),
        (1, 2, 16, 1, b""),
        (3, 2, 32, 1, b""),
        (0xFFFE, 1, 16, None, extensible(1, 16)),
        (0xFFFE, 2, 32, 1, extensible(3, 32)),
    ])
    def test_samples_match_and_own_memory(self, tmp_path, rng, audio_format, channels,
                                          bits, channel, extension):
        n = 1001 * channels
        if bits == 16:
            raw = rng.integers(-32768, 32768, n).astype("<i2")
            want = raw.astype(np.float64) / 32768.0
        else:
            raw = (rng.standard_normal(n) * 2.0).astype("<f4")
            want = raw.astype(np.float64)
        want = want.reshape(-1, channels)[:, channel or 0]
        path = make_wav(tmp_path / "w.wav", raw.tobytes(), audio_format, channels, bits,
                        extension=extension)
        sig = read_wav(path, channel)
        assert sig.samples.dtype == np.float64
        assert sig.samples.tobytes() == want.tobytes()
        assert sig.samples.base is None  # no view pins the file's bytes
        assert sig.samples.flags.c_contiguous and sig.samples.flags.writeable

    def test_peak_memory_is_file_plus_one_buffer(self, tmp_path, rng):
        n = 200_000
        path = make_wav(tmp_path / "m.wav", rng.integers(-32768, 32768, n).astype("<i2").tobytes(),
                        1, 1, 16)
        tracemalloc.start()
        try:
            sig = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes plus the float64 samples, with room for bookkeeping
        assert peak < 2 * n + 1.25 * sig.samples.nbytes


class TestChunkSizes:
    """Chunk sizes checked against the bytes present, on ``write_wav`` output."""

    @pytest.fixture()
    def written(self, tmp_path):
        path = tmp_path / "w.wav"
        write_wav(Signal(np.array([0.25, -0.5, 0.75]), 16000), str(path))
        return path

    def test_size_past_eof_rejected(self, written):
        blob = bytearray(written.read_bytes())
        at = blob.index(b"data") + 4
        (size,) = struct.unpack_from("<I", blob, at)
        struct.pack_into("<I", blob, at, size + 4)
        written.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="'data'"):
            read_wav(str(written))

    def test_missing_final_pad_byte_accepted(self, written):
        # An odd-sized last chunk whose word-alignment pad byte was never written.
        written.write_bytes(written.read_bytes() + b"LIST" + struct.pack("<I", 3) + b"abc")
        assert read_wav(str(written)).samples.tolist() == [0.25, -0.5, 0.75]


class TestWriteWav:
    def test_round_trip_identity(self, tmp_path, rng):
        samples = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
        sig = Signal(samples, 22050)
        path = str(tmp_path / "rt.wav")
        write_wav(sig, path)
        back = read_wav(path)
        assert back.sample_rate_hz == 22050
        assert np.array_equal(back.samples, samples)

    def test_above_full_scale_not_clipped(self, tmp_path):
        sig = Signal(np.array([1.5, -2.0, 0.25]), 16000)
        path = str(tmp_path / "hot.wav")
        write_wav(sig, path)
        assert read_wav(path).samples.tolist() == [1.5, -2.0, 0.25]

    def test_unwritable_path(self, tmp_path):
        sig = Signal(np.zeros(4) + 0.1, 16000)
        with pytest.raises(IoError):
            write_wav(sig, str(tmp_path / "no" / "such" / "dir.wav"))


class TestSignal:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, np.nan]), 16000)

    def test_rejects_empty(self):
        with pytest.raises(EmptySignalError):
            Signal(np.array([]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.1]), 0)

    @pytest.mark.parametrize("rate", [16000.9, 16000.0, True, math.nan, "16000", None])
    def test_rate_must_be_an_integer(self, rate):
        with pytest.raises(ConfigError, match="^sample_rate_hz: must be an integer"):
            Signal(np.array([0.1]), rate)

    def test_numpy_integer_rate(self):
        sig = Signal(np.array([0.1]), np.int32(8000))
        assert sig.sample_rate_hz == 8000 and type(sig.sample_rate_hz) is int

    @pytest.mark.filterwarnings("error")  # no ComplexWarning: refused before any cast
    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="^expected a real signal, got dtype complex128"):
            Signal(np.array([0.1, 1j]), 16000)

    def test_casts_to_float64(self):
        sig = Signal([1, 2, 3], 8000)
        assert sig.samples.dtype == np.float64
        assert len(sig) == 3
        assert sig.duration_s == pytest.approx(3 / 8000)


class TestCsv:
    def test_two_line_file(self, tmp_path):
        path = str(tmp_path / "m.csv")
        write_csv([{"gain": 0.5, "snr_db": 3.0103}], path)
        with open(path) as fh:
            assert fh.read() == "gain,snr_db\n0.5,3.0103\n"

    def test_sentinels(self):
        text = rows_to_csv([{"a": math.inf, "b": -math.inf, "c": math.nan}])
        assert text == "a,b,c\ninf,-inf,nan\n"

    def test_empty_rows_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        with pytest.raises(ValueError, match="empty row set"):
            write_csv([], str(path))
        assert not path.exists()

    def test_nine_significant_digits(self):
        assert format_cell(math.pi) == "3.14159265"
        assert format_cell(1234567891234.0) == "1.23456789e+12"
        assert format_cell(3) == "3"

    def test_mismatched_columns(self):
        with pytest.raises(ValueError):
            rows_to_csv([{"a": 1}, {"b": 2}])

    def test_io_error(self, tmp_path):
        with pytest.raises(IoError):
            write_csv([{"a": 1}], str(tmp_path / "no" / "dir.csv"))
