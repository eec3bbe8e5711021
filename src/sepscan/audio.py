"""WAV files and synthetic speakers.

Only mono 16-bit PCM is supported, via the stdlib wave module. Floats
map to integers as round(x * 32768) with clipping, so a write/read
round trip moves any in-range sample by at most 1/32768.

Synthetic "speakers" are harmonic stacks: speaker k gets fundamental
100 * 1.6**k Hz with a handful of randomly weighted partials, a slow
amplitude envelope, and a little noise. Every utterance is a pure
function of (seed, speaker, utterance) through a seeded generator, so a
corpus is reproducible byte for byte.
"""

from __future__ import annotations

import math
import os
import wave
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_SCALE = 32768.0
BASE_F0_HZ = 100.0
F0_RATIO = 1.6
NUM_PARTIALS = 5


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------


# wave raises a bare RuntimeError when a chunk overruns its parent
_WAVE_ERRORS = (wave.Error, EOFError, OSError, RuntimeError)


def _pcm16_params(f, path) -> tuple[int, int]:
    """(sample count, rate) of an open WAV, refusing all but mono PCM16."""
    if f.getnchannels() != 1:
        raise DataFormatError(
            f"{path}: expected mono, got {f.getnchannels()} channels")
    if f.getsampwidth() != 2:
        raise DataFormatError(
            f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
    return f.getnframes(), f.getframerate()


def wav_info(path) -> tuple[int, int]:
    """The sample count and rate a mono PCM16 WAV's header declares; no
    sample is read, so a truncated file passes here and fails wav_read."""
    try:
        with wave.open(str(path), "rb") as f:
            return _pcm16_params(f, path)
    except _WAVE_ERRORS as exc:
        raise DataFormatError(f"{path}: not a readable WAV file ({exc!r})") from exc


def wav_read(path, frames: int | None = None) -> tuple[np.ndarray, int]:
    """Read a mono PCM16 WAV into float64 in [-1, 1) plus its sample rate.

    Only the samples returned are read: all, or given frames, the first
    frames.  A prefix short of the header's count is followed by a seek to
    the header's last sample, so a file cut short is refused either way and
    memory is set by frames; a whole read never seeks, so a pipe works too.
    """
    try:
        with wave.open(str(path), "rb") as f:
            n, rate = _pcm16_params(f, path)
            want = n if frames is None else min(frames, n)
            raw = f.readframes(want)
            complete = len(raw) == 2 * want
            if complete and want < n:
                f.setpos(n - 1)
                complete = len(f.readframes(1)) == 2
    except _WAVE_ERRORS as exc:
        raise DataFormatError(f"{path}: not a readable WAV file ({exc!r})") from exc
    if not complete:
        raise DataFormatError(
            f"{path}: truncated: the header promises {n} samples, the data "
            f"ends before the last")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _SCALE
    return data, rate


def wav_write(path, x: np.ndarray, sample_rate: int) -> None:
    """Write float samples as mono PCM16; values outside [-1, 1] are clipped."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DataFormatError(f"wav_write expects a 1-D signal, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataFormatError("wav_write: non-finite samples")
    q = np.clip(np.round(arr * _SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(int(sample_rate))
        f.writeframes(q.tobytes())


# ---------------------------------------------------------------------------
# synthetic speakers
# ---------------------------------------------------------------------------


def speaker_f0(speaker: int) -> float:
    return BASE_F0_HZ * F0_RATIO ** speaker


def synth_utterance(speaker: int, duration_s: float, sample_rate: int,
                    seed: int, utterance: int = 0) -> np.ndarray:
    """One deterministic utterance of a synthetic speaker, peak 0.5."""
    rng = np.random.default_rng([seed, speaker, utterance])
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise DataFormatError(f"synth_utterance: duration {duration_s}s too short")
    f0 = speaker_f0(speaker) * 2.0 ** rng.uniform(-1 / 12, 1 / 12)
    if f0 * NUM_PARTIALS >= sample_rate / 2:
        raise DataFormatError(
            f"synth_utterance: speaker {speaker} partials exceed Nyquist "
            f"at rate {sample_rate}")
    t = np.arange(n, dtype=np.float64) / sample_rate
    sig = np.zeros(n)
    for p in range(1, NUM_PARTIALS + 1):
        amp = rng.uniform(0.5, 1.0) / p
        phase = rng.uniform(0.0, 2.0 * math.pi)
        sig += amp * np.sin(2.0 * math.pi * p * f0 * t + phase)
    env_rate = rng.uniform(1.5, 4.0)
    env_phase = rng.uniform(0.0, 2.0 * math.pi)
    sig *= 0.6 + 0.4 * np.sin(2.0 * math.pi * env_rate * t + env_phase)
    sig += 0.05 * _band_noise(rng, n, sample_rate, center_hz=f0 * (NUM_PARTIALS + 2),
                              halfwidth_hz=f0)
    return 0.5 * sig / float(np.max(np.abs(sig)))


def _band_noise(rng: np.random.Generator, n: int, sample_rate: int,
                center_hz: float, halfwidth_hz: float) -> np.ndarray:
    """Unit-RMS noise confined to one frequency band (FFT-masked white noise)."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    # raised-cosine band so the mask has no hard spectral edges
    x = np.clip(np.abs(freqs - center_hz) / max(halfwidth_hz, 1e-9), 0.0, 1.0)
    spec *= 0.5 * (1.0 + np.cos(math.pi * x))
    band = np.fft.irfft(spec, n)
    rms = math.sqrt(float(band @ band) / n)
    return band / max(rms, 1e-30)


def synth_corpus(out_dir, num_speakers: int, utts_per_speaker: int,
                 duration_s: float, sample_rate: int, seed: int) -> list[Path]:
    """Write a WAV corpus plus manifest.txt; returns the file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for k in range(num_speakers):
        for u in range(utts_per_speaker):
            sig = synth_utterance(k, duration_s, sample_rate, seed, u)
            p = out / f"spk{k}_utt{u}.wav"
            wav_write(p, sig, sample_rate)
            paths.append(p)
    manifest = out / "manifest.txt"
    manifest.write_text("".join(f"{p.name}\n" for p in paths))
    return paths


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file; any other encoding is a DataFormatError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def read_manifest(path) -> list[Path]:
    """One WAV path per line, relative paths resolved against the manifest."""
    mp = Path(path)
    if not os.path.isfile(mp):      # False, not OSError, for an unusable name
        raise DataFormatError(f"manifest {path}: no such file")
    base = mp.parent
    out: list[Path] = []
    for lineno, raw in enumerate(read_utf8(mp).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        if not p.is_absolute():
            p = base / p
        if not os.path.isfile(p):
            raise DataFormatError(f"manifest line {lineno}: missing file {p}")
        out.append(p)
    if not out:
        raise DataFormatError(f"manifest {path}: no entries")
    return out
