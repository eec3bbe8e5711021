"""WAV round trips, format rejection, and synthetic-speaker properties."""

import math
import os
import struct
import wave

import numpy as np
import pytest

import sepscan.audio as audio
from sepscan.errors import DataFormatError


class TestWavRoundTrip:
    def test_error_bounded_by_half_lsb_scale(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.clip(rng.standard_normal(512) * 0.3, -1.0, 1.0)
        p = tmp_path / "a.wav"
        audio.wav_write(p, x, 8000)
        back, rate = audio.wav_read(p)
        assert rate == 8000
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) <= 1.0 / 32768

    def test_full_scale_edges(self, tmp_path):
        x = np.array([-1.0, 1.0, 0.0, 32767 / 32768])
        p = tmp_path / "edges.wav"
        audio.wav_write(p, x, 8000)
        back, _ = audio.wav_read(p)
        assert np.max(np.abs(back - x)) <= 1.0 / 32768
        assert back[0] == -1.0

    def test_out_of_range_clipped(self, tmp_path):
        p = tmp_path / "clip.wav"
        audio.wav_write(p, np.array([2.0, -2.0]), 8000)
        back, _ = audio.wav_read(p)
        assert back[0] == 32767 / 32768
        assert back[1] == -1.0

    def test_sample_rate_preserved(self, tmp_path):
        p = tmp_path / "sr.wav"
        audio.wav_write(p, np.zeros(10), 16000)
        assert audio.wav_read(p)[1] == 16000


class TestWavRejection:
    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 20)
        with pytest.raises(DataFormatError, match="mono"):
            audio.wav_read(p)

    def test_8bit_rejected(self, tmp_path):
        p = tmp_path / "w8.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(8000)
            f.writeframes(b"\x00" * 20)
        with pytest.raises(DataFormatError, match="16-bit"):
            audio.wav_read(p)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"this is not audio at all")
        with pytest.raises(DataFormatError):
            audio.wav_read(p)

    def test_truncated_mid_sample_rejected(self, tmp_path):
        p = tmp_path / "cut.wav"
        audio.wav_write(p, np.linspace(-0.5, 0.5, 20), 8000)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(DataFormatError, match="truncated"):
            audio.wav_read(p)

    def test_truncated_on_a_sample_boundary_rejected(self, tmp_path):
        # 19 whole samples where the header promises 20
        p = tmp_path / "short.wav"
        audio.wav_write(p, np.linspace(-0.5, 0.5, 20), 8000)
        p.write_bytes(p.read_bytes()[:-2])
        with pytest.raises(DataFormatError, match="truncated"):
            audio.wav_read(p)

    def test_frames_reads_a_prefix_and_still_refuses_a_cut(self, tmp_path):
        # a cut past the prefix is found by a seek to the last sample
        p = tmp_path / "long.wav"
        audio.wav_write(p, np.linspace(-0.5, 0.5, 3 * (1 << 14) + 5), 8000)
        whole = audio.wav_read(p)[0]
        for frames in (0, 7, whole.size, whole.size + 1):
            assert np.array_equal(audio.wav_read(p, frames)[0], whole[:frames])
        p.write_bytes(p.read_bytes()[:-2])      # the last sample, past the prefix
        with pytest.raises(DataFormatError, match="truncated"):
            audio.wav_read(p, 7)

    def test_frames_reads_only_the_prefix_and_the_last_sample(self, tmp_path,
                                                             monkeypatch):
        p = tmp_path / "minute.wav"
        audio.wav_write(p, np.zeros(60 * 8000), 8000)
        got = []
        real = wave.Wave_read.readframes
        monkeypatch.setattr(wave.Wave_read, "readframes",
                            lambda f, k: got.append(real(f, k)) or got[-1])
        frames = 2 * 8000
        assert audio.wav_read(p, frames)[0].size == frames
        assert sum(map(len, got)) <= 2 * (frames + 1)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_cut_short_is_truncated_not_unreadable(self, tmp_path):
        # a whole read never seeks, so a pipe cut short is reported as such
        p = tmp_path / "cut.wav"
        audio.wav_write(p, np.linspace(-0.5, 0.5, 20), 8000)
        r, w = os.pipe()
        try:
            os.write(w, p.read_bytes()[:-2])
            os.close(w)
            with pytest.raises(DataFormatError, match="truncated"):
                audio.wav_read(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_chunk_overrunning_the_file_rejected(self, tmp_path):
        # wave itself raises a bare RuntimeError when it skips this chunk
        p = tmp_path / "overrun.wav"
        audio.wav_write(p, np.zeros(20), 8000)
        blob = p.read_bytes()
        p.write_bytes(blob[:36] + b"LIST" + struct.pack("<I", 1000) + blob[36:])
        with pytest.raises(DataFormatError):
            audio.wav_read(p)

    def test_nonfinite_write_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="finite"):
            audio.wav_write(tmp_path / "x.wav", np.array([0.0, np.nan]), 8000)

    def test_2d_write_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            audio.wav_write(tmp_path / "x.wav", np.zeros((2, 10)), 8000)


def _centroid(x: np.ndarray, rate: int) -> float:
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / rate)
    return float((freqs * spec).sum() / spec.sum())


class TestSynth:
    def test_deterministic_per_identity(self):
        a = audio.synth_utterance(1, 0.1, 8000, seed=5, utterance=2)
        b = audio.synth_utterance(1, 0.1, 8000, seed=5, utterance=2)
        assert np.array_equal(a, b)

    def test_distinct_across_identity_axes(self):
        base = audio.synth_utterance(1, 0.1, 8000, seed=5, utterance=2)
        assert not np.array_equal(
            base, audio.synth_utterance(2, 0.1, 8000, seed=5, utterance=2))
        assert not np.array_equal(
            base, audio.synth_utterance(1, 0.1, 8000, seed=6, utterance=2))
        assert not np.array_equal(
            base, audio.synth_utterance(1, 0.1, 8000, seed=5, utterance=3))

    def test_peak_half_scale(self):
        x = audio.synth_utterance(0, 0.2, 8000, seed=1)
        assert abs(float(np.max(np.abs(x))) - 0.5) < 1e-12

    def test_spectral_centroids_ordered_by_speaker(self):
        # fundamental ladder 100 * 1.6^k must show up as ordered centroids
        cents = [
            _centroid(audio.synth_utterance(k, 0.25, 8000, seed=7), 8000)
            for k in range(4)
        ]
        assert cents == sorted(cents)
        assert cents[1] / cents[0] > 1.2

    def test_nyquist_guard(self):
        with pytest.raises(DataFormatError, match="Nyquist"):
            audio.synth_utterance(8, 0.1, 8000, seed=0)


class TestCorpus:
    def test_corpus_files_and_manifest(self, tmp_path):
        paths = audio.synth_corpus(tmp_path / "c", num_speakers=2,
                                   utts_per_speaker=2, duration_s=0.05,
                                   sample_rate=8000, seed=3)
        assert len(paths) == 4
        names = (tmp_path / "c" / "manifest.txt").read_text().split()
        assert names == [p.name for p in paths]
        listed = audio.read_manifest(tmp_path / "c" / "manifest.txt")
        assert [p.name for p in listed] == names

    def test_corpus_byte_deterministic(self, tmp_path):
        a = audio.synth_corpus(tmp_path / "a", 2, 1, 0.05, 8000, seed=9)
        b = audio.synth_corpus(tmp_path / "b", 2, 1, 0.05, 8000, seed=9)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_manifest_missing_file_rejected(self, tmp_path):
        m = tmp_path / "manifest.txt"
        m.write_text("ghost.wav\n")
        with pytest.raises(DataFormatError, match="missing file"):
            audio.read_manifest(m)

    def test_manifest_comments_skipped(self, tmp_path):
        audio.synth_corpus(tmp_path, 1, 1, 0.05, 8000, seed=1)
        m = tmp_path / "manifest.txt"
        m.write_text("# comment\n\nspk0_utt0.wav\n")
        assert len(audio.read_manifest(m)) == 1

    def test_empty_manifest_rejected(self, tmp_path):
        m = tmp_path / "manifest.txt"
        m.write_text("# nothing\n")
        with pytest.raises(DataFormatError, match="no entries"):
            audio.read_manifest(m)

    def test_manifest_not_utf8_rejected(self, tmp_path):
        m = tmp_path / "manifest.txt"
        m.write_bytes(b"caf\xe9.wav\n")
        with pytest.raises(DataFormatError, match="UTF-8"):
            audio.read_manifest(m)

    def test_manifest_overlong_name_rejected(self, tmp_path):
        m = tmp_path / "manifest.txt"
        m.write_text("a" * 5000 + ".wav\n")
        with pytest.raises(DataFormatError, match="line 1"):
            audio.read_manifest(m)
