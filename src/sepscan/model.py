"""Two-speaker time-domain separation model, its config, and its checkpoint.

Signal path: a strided linear encoder lifts the waveform [T] to
D-channel frames [N, D] (kernel 16, stride 8); a dual-path masking
network produces one nonnegative mask [N, D] per speaker; masked frames
go through a transposed strided linear decoder (overlap-add) back to
waveforms of the original length (nm.frame pads to whole frames and
nm.overlap_add trims back to T).  Frames stay on axis 0 and channels on
the last axis throughout; only a block's intra-chunk pass swaps axes.

The masking network is the standard dual-path shell:

    norm -> 1x1 -> chunk -> R dual-path blocks -> dechunk -> mask head
    (D -> 2D) -> per speaker: tanh(1x1) * sigmoid(1x1) -> 1x1 -> ReLU

The head maps each frame alone and dechunk averages the chunks covering a
frame, so the two commute: the head runs on N frames rather than K * S.

Checkpoints are a readable text header (format line, config key-values,
one name/shape record per parameter) followed by raw little-endian
float32 data, the parameters back to back in record order, so a saved
model can be inspected with a pager and loaded without pickle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import blocks as blocks_mod
from . import dualpath as dp
from . import numerics as nm
from .audio import read_utf8
from .dualpath import NORM_KINDS
from .errors import DataFormatError
from .numerics import NumericsError, Tensor

CHECKPOINT_MAGIC = "sepscan-checkpoint"
CHECKPOINT_VERSION = 2

# the SepFormer front end that DPMamba keeps: never varied, so not config
ENC_KERNEL = 16
ENC_STRIDE = 8
SPEAKERS = 2
SAMPLE_RATE = 8000


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ModelConfig:
    d: int                      # feature channels
    r: int                      # dual-path block count
    h: int = 16                 # states per scan channel
    chunk_len: int = 250        # K; hop is K // 2
    norm_kind: str = "rmsnorm"
    bidirectional: bool = True
    exact_zoh: bool = False
    encoder_relu: bool = False

    def __post_init__(self):
        if self.d < 1 or self.r < 1 or self.h < 1:
            raise DataFormatError(f"config: d/r/h must be positive, got "
                                  f"{self.d}/{self.r}/{self.h}")
        if self.chunk_len < 2 or self.chunk_len % 2:
            raise DataFormatError(f"config: chunk_len must be even and >= 2 "
                                  f"(chunks overlap by half), got {self.chunk_len}")
        if self.norm_kind not in NORM_KINDS:
            raise DataFormatError(f"config: norm_kind must be one of {NORM_KINDS}")

    @property
    def e(self) -> int:
        """Expanded channel count inside each directional branch."""
        return 2 * self.d

    @property
    def dt_rank(self) -> int:
        return blocks_mod.dt_rank_for(self.d)


# published size ladder: (d, r)
PRESETS = {
    "xs": (128, 8),
    "s": (256, 8),
    "m": (256, 16),
    "l": (512, 16),
}


def preset(name: str) -> ModelConfig:
    key = name.lower()
    if key not in PRESETS:
        raise DataFormatError(f"unknown preset '{name}' (have {sorted(PRESETS)})")
    d, r = PRESETS[key]
    return ModelConfig(d=d, r=r)


_BOOL_WORDS = {"true": True, "false": False}


def config_to_text(cfg: ModelConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ModelConfig:
    """Parse the flat key-value config format ('#' starts a comment)."""
    known = {f.name: f.type for f in fields(ModelConfig)}
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise DataFormatError(f"config line {lineno}: unknown key '{key}'")
        if key in seen:
            raise DataFormatError(f"config line {lineno}: duplicate key '{key}'")
        ann = known[key]
        try:
            if ann in ("bool", bool):
                if value.lower() not in _BOOL_WORDS:
                    raise ValueError(value)
                seen[key] = _BOOL_WORDS[value.lower()]
            elif ann in ("int", int):
                seen[key] = int(value)
            else:
                seen[key] = value
        except ValueError as exc:
            raise DataFormatError(
                f"config line {lineno}: bad value {value!r} for '{key}'") from exc
    if "d" not in seen or "r" not in seen:
        raise DataFormatError("config must set at least 'd' and 'r'")
    return ModelConfig(**seen)


def load_config(source: str | Path) -> ModelConfig:
    """Accept either a preset name or a path to a config file."""
    p = Path(source)
    if os.path.exists(p):      # False, not OSError, for an unusable name
        return config_from_text(read_utf8(p))
    if str(source).lower() in PRESETS:
        return preset(str(source))
    raise DataFormatError(f"config '{source}': no such file and not a preset name")


# ---------------------------------------------------------------------------
# parameter inventory (names and shapes, no allocation)
# ---------------------------------------------------------------------------


def _norm_shapes(prefix: str, d: int, kind: str):
    out = [(f"{prefix}.gain", (d,))]
    if kind == "layernorm":
        out.append((f"{prefix}.bias", (d,)))
    return out


def _bi_scan_shapes(prefix: str, cfg: ModelConfig):
    d, e, h, dtr = cfg.d, cfg.e, cfg.h, cfg.dt_rank
    out = [
        (f"{prefix}.w_in", (e, d)),
        (f"{prefix}.w_gate", (e, d)),
        (f"{prefix}.w_out", (d, e)),
    ]
    directions = ("fwd", "bwd") if cfg.bidirectional else ("fwd",)
    for dn in directions:
        p = f"{prefix}.{dn}"
        out += [
            (f"{p}.conv_kernel", (e, blocks_mod.CONV_WIDTH)),
            (f"{p}.conv_bias", (e,)),
            (f"{p}.proj.w_delta_down", (dtr, e)),
            (f"{p}.proj.w_delta_up", (e, dtr)),
            (f"{p}.proj.b_delta", (e,)),
            (f"{p}.proj.w_b", (h, e)),
            (f"{p}.proj.w_c", (h, e)),
            (f"{p}.a_log", (e, h)),
            (f"{p}.d_skip", (e,)),
        ]
    return out


def parameter_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every learnable tensor of the model, in checkpoint order."""
    d = cfg.d
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("encoder", (d, ENC_KERNEL)),
        ("decoder", (ENC_KERNEL, d)),
    ]
    shapes += _norm_shapes("pre_norm", d, cfg.norm_kind)
    shapes.append(("input_proj", (d, d)))
    for i in range(cfg.r):
        base = f"blocks.{i}"
        shapes += _norm_shapes(f"{base}.intra_norm", d, cfg.norm_kind)
        shapes += _bi_scan_shapes(f"{base}.intra_scan", cfg)
        shapes += _norm_shapes(f"{base}.inter_norm", d, cfg.norm_kind)
        shapes += _bi_scan_shapes(f"{base}.inter_scan", cfg)
    shapes += [
        ("mask_head_w", (SPEAKERS * d, d)),
        ("mask_head_b", (SPEAKERS * d,)),
        ("out_proj_w", (d, d)),
        ("out_proj_b", (d,)),
        ("out_gate_w", (d, d)),
        ("out_gate_b", (d,)),
        ("final_proj", (d, d)),
    ]
    return shapes


def count_parameters(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for _, s in parameter_shapes(cfg))


# ---------------------------------------------------------------------------
# weights and the model
# ---------------------------------------------------------------------------


@dataclass
class ModelWeights:
    encoder: Tensor
    decoder: Tensor
    pre_norm: dp.NormWeights
    input_proj: Tensor
    blocks: list
    mask_head_w: Tensor
    mask_head_b: Tensor
    out_proj_w: Tensor
    out_proj_b: Tensor
    out_gate_w: Tensor
    out_gate_b: Tensor
    final_proj: Tensor


def _init_weights(cfg: ModelConfig, rng: np.random.Generator) -> ModelWeights:
    d = cfg.d
    lin = blocks_mod._linear_init
    bound = 1.0 / math.sqrt(d)
    return ModelWeights(
        encoder=lin(rng, d, ENC_KERNEL),
        decoder=lin(rng, ENC_KERNEL, d),
        pre_norm=dp.init_norm(d, cfg.norm_kind),
        input_proj=lin(rng, d, d),
        blocks=[
            dp.init_dp_block(d, cfg.h, cfg.norm_kind, rng,
                             cfg.bidirectional, cfg.exact_zoh)
            for _ in range(cfg.r)
        ],
        mask_head_w=lin(rng, SPEAKERS * d, d),
        mask_head_b=nm.uniform((SPEAKERS * d,), -bound, bound, rng,
                               requires_grad=True),
        out_proj_w=lin(rng, d, d),
        out_proj_b=nm.uniform((d,), -bound, bound, rng, requires_grad=True),
        out_gate_w=lin(rng, d, d),
        out_gate_b=nm.uniform((d,), -bound, bound, rng, requires_grad=True),
        final_proj=lin(rng, d, d),
    )


class SeparationModel:
    """Encoder, dual-path masking network, and decoder under one config."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.weights = _init_weights(config, rng if rng is not None
                                     else np.random.default_rng(0))

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return blocks_mod.named_parameters(self.weights)

    # -- signal path --------------------------------------------------------

    def encode(self, x: Tensor) -> Tensor:
        """Waveform [T] -> frames [N, D], N = ceil(max(T - kernel, 0) / stride) + 1."""
        if x.ndim != 1:
            raise NumericsError(f"encode expects a 1-D waveform, got {x.shape}")
        frames = nm.frame(x, ENC_KERNEL, ENC_STRIDE)
        feats = nm.matmul(self.weights.encoder, frames)
        if self.config.encoder_relu:
            feats = nm.relu(feats)
        return feats

    def decode(self, feats: Tensor, out_len: int) -> Tensor:
        """Frames [N, D] -> waveform [out_len] by transposed strided projection."""
        if feats.ndim != 2 or feats.shape[1] != self.config.d:
            raise NumericsError(f"decode expects [N, D], got {feats.shape}")
        frames = nm.matmul(self.weights.decoder, feats)
        return nm.overlap_add(frames, ENC_STRIDE, out_len)

    def masks(self, feats: Tensor) -> tuple[Tensor, ...]:
        """Frames [N, D] -> one nonnegative mask [N, D] per speaker."""
        w = self.weights
        cfg = self.config
        h = dp.apply_norm(feats, w.pre_norm)
        h = nm.matmul(w.input_proj, h)
        cf = dp.chunk(h, cfg.chunk_len)
        for blk in w.blocks:
            cf.data = dp.dp_block(cf.data, blk)
        merged = nm.matmul(w.mask_head_w, dp.dechunk(cf), w.mask_head_b)
        out = []
        for i in range(SPEAKERS):
            sl = nm.narrow(merged, 1, i * cfg.d, cfg.d)
            o = nm.tanh(nm.matmul(w.out_proj_w, sl, w.out_proj_b))
            g = nm.sigmoid(nm.matmul(w.out_gate_w, sl, w.out_gate_b))
            out.append(nm.relu(nm.matmul(w.final_proj, nm.mul(o, g))))
        return tuple(out)

    def separate(self, x) -> tuple[Tensor, ...]:
        """Waveform [T] -> per-speaker waveforms, each exactly [T]."""
        if not isinstance(x, Tensor):
            x = Tensor(x, dtype=self.weights.encoder.dtype)
        T = x.shape[0]
        feats = self.encode(x)
        est = []
        for m in self.masks(feats):
            est.append(self.decode(nm.mul(m, feats), T))
        return tuple(est)

    # -- persistence --------------------------------------------------------

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy arrays into the parameters, cast to the model's dtype.

        requires_grad is left alone, so SeparationModel(cfg).load_state(...)
        gives a float64 model that trains (fine-tuning from a checkpoint).
        A non-finite weight is refused: the mask head's relu would turn a
        NaN into silence rather than into an error.
        """
        params = self.named_parameters()
        have = {n for n, _ in params}
        missing = [n for n, _ in params if n not in arrays]
        extra = [n for n in arrays if n not in have]
        if missing or extra:
            raise DataFormatError(
                f"state mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for name, p in params:
            a = arrays[name]
            if tuple(a.shape) != p.shape:
                raise DataFormatError(
                    f"state '{name}': stored shape {tuple(a.shape)} != model {p.shape}")
            if not np.all(np.isfinite(a)):
                raise DataFormatError(f"state '{name}': non-finite values")
            p.data = a.astype(p.dtype)

    @classmethod
    def from_checkpoint(cls, path: str | Path) -> "SeparationModel":
        """An inference model: the checkpoint's float32 weights, frozen.

        No weight requires a gradient, so no op records a tape node and
        separate() runs in float32 at the memory of its live arrays.
        """
        cfg, arrays = load_checkpoint(path)
        model = cls(cfg, rng=np.random.default_rng(0))
        model.load_state(arrays)            # checks names and shapes
        for name, p in model.named_parameters():
            p.data = arrays[name]
            p.requires_grad = False
        return model


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, cfg: ModelConfig,
                    named_params: list[tuple[str, Tensor]]) -> None:
    """Text header + raw little-endian float32 payload; see load_checkpoint."""
    records = []
    payload = bytearray()
    for name, p in named_params:
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        shape = ",".join(str(s) for s in arr.shape) or "1"
        records.append(f"{name} {shape}")
        payload += arr.tobytes()
    header = "\n".join([
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        "[config]",
        config_to_text(cfg).rstrip("\n"),
        "[params]",
        *records,
        f"[data] {len(payload) // 4}",
    ]) + "\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(bytes(payload))


def save_model(path: str | Path, model: SeparationModel) -> None:
    save_checkpoint(path, model.config, model.named_parameters())


def _header_int(path, what: str, text: str) -> int:
    """A nonnegative integer field of a checkpoint header, else DataFormatError."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise DataFormatError(
        f"checkpoint {path}: {what} {text!r} is not a nonnegative integer")


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """The config and every parameter, each a view of one float32 array
    that holds the payload: the file's data is read once, into it."""
    with open(path, "rb") as f:
        head = []
        for raw in f:
            head.append(raw)
            if raw.startswith(b"[data] "):
                break
        else:
            raise DataFormatError(f"checkpoint {path}: missing [data] section")
        if not raw.endswith(b"\n"):
            raise DataFormatError(f"checkpoint {path}: truncated [data] line")
        try:
            lines = b"".join(head).decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"checkpoint {path}: non-ascii header") from exc

        magic = lines[0].split()
        if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
            raise DataFormatError(f"checkpoint {path}: bad magic line {lines[0]!r}")
        if _header_int(path, "version", magic[1]) != CHECKPOINT_VERSION:
            raise DataFormatError(f"checkpoint {path}: unsupported version {magic[1]}")
        try:
            cfg_at = lines.index("[config]")
            par_at = lines.index("[params]")
        except ValueError as exc:
            raise DataFormatError(f"checkpoint {path}: missing header section") from exc
        cfg = config_from_text("\n".join(lines[cfg_at + 1 : par_at]))

        total = _header_int(path, "[data] size", lines[-1][len("[data] "):].strip())
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left != total * 4:     # before allocating: the count is untrusted
            raise DataFormatError(
                f"checkpoint {path}: payload is {left} bytes, "
                f"header promises {total * 4}")
        flat = np.fromfile(f, dtype="<f4", count=total)

    arrays: dict[str, np.ndarray] = {}
    off = 0       # each record's data follows the previous record's
    for record in lines[par_at + 1 : -1]:
        parts = record.split()
        if len(parts) != 2:
            raise DataFormatError(f"checkpoint {path}: bad param record {record!r}")
        name, shape_s = parts
        shape = tuple(_header_int(path, f"'{name}' shape", s)
                      for s in shape_s.split(","))
        size = math.prod(shape)
        if off + size > total:
            raise DataFormatError(
                f"checkpoint {path}: record '{name}' overruns the payload")
        if name in arrays:
            raise DataFormatError(f"checkpoint {path}: duplicate param '{name}'")
        try:      # numpy refuses some shapes even of an empty record
            arrays[name] = flat[off : off + size].reshape(shape)
        except ValueError as exc:
            raise DataFormatError(f"checkpoint {path}: bad shape {shape_s}") from exc
        off += size
    if off != total:
        raise DataFormatError(
            f"checkpoint {path}: the records hold {off} values, [data] {total}")
    return cfg, arrays
