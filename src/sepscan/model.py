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

The parameters are one ordered dict from checkpoint name to tensor.
parameter_shapes is the only list of their names and shapes:
init_parameters draws each entry by a rule keyed on its name, and
from_checkpoint wraps the arrays a checkpoint holds without drawing
anything.  Each stage reads its entries by name, a block the ones below
its prefix (blocks.scope).

Checkpoints are a readable text header (format line, config key-values,
a bare [data] line) followed by raw little-endian float32 data, the
parameters back to back in parameter_shapes order, so a saved model can
be inspected with a pager and loaded without pickle.  The config fixes
every name and shape, so the header lists none.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
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
CHECKPOINT_VERSION = 3
HEADER_LINE_MAX = 4096          # bytes; a config line is under 30
CONFIG_LINES_MAX = 64           # a saved config is 8 lines
CHUNK_LEN_MAX = 4096            # frames; the presets use 250

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
        if not 2 <= self.chunk_len <= CHUNK_LEN_MAX or self.chunk_len % 2:
            raise DataFormatError(f"config: chunk_len must be even and in [2, "
                                  f"{CHUNK_LEN_MAX}] (chunks overlap by half), "
                                  f"got {self.chunk_len}")
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


def _size(shapes) -> int:
    return sum(math.prod(s) for _, s in shapes)


def count_parameters(cfg: ModelConfig) -> int:
    """The size of parameter_shapes(cfg), by arithmetic: the size at r = 1
    plus r - 1 blocks, so any r costs the same (a checkpoint's r is
    untrusted until its payload size has been checked against it)."""
    one = _size(parameter_shapes(replace(cfg, r=1)))
    return one + (cfg.r - 1) * (_size(parameter_shapes(replace(cfg, r=2))) - one)


# ---------------------------------------------------------------------------
# initial values and the model
# ---------------------------------------------------------------------------

DT_MIN, DT_MAX = 1e-3, 1e-1     # range of the initial step softplus(b_delta)


def init_parameters(cfg: ModelConfig,
                    rng: np.random.Generator) -> dict[str, Tensor]:
    """Freshly drawn float64 parameters, each requiring a gradient.

    Every entry of parameter_shapes is drawn from rng in turn, by a rule
    keyed on its name: norm gains and d_skip start at one and norm biases
    at zero; a_log makes a[e, k] = -(k + 1), a slow-to-fast decay ladder
    shared by every channel; b_delta puts softplus(b_delta) log-uniformly
    in [DT_MIN, DT_MAX]; every other entry is U(+-1/sqrt(fan_in)), fan_in
    being a matrix's input width, the conv width for conv_bias and d for
    the head biases.
    """
    params = {}
    for name, shape in parameter_shapes(cfg):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("gain", "d_skip"):
            value = np.ones(shape)
        elif leaf == "bias":
            value = np.zeros(shape)
        elif leaf == "a_log":
            value = np.tile(np.log(np.arange(1, shape[1] + 1)), (shape[0], 1))
        elif leaf == "b_delta":
            dt = rng.uniform(np.log(DT_MIN), np.log(DT_MAX), size=shape)
            value = np.log(np.expm1(np.exp(dt)))
        else:
            if len(shape) == 2:
                fan_in = shape[1]
            else:
                fan_in = blocks_mod.CONV_WIDTH if leaf == "conv_bias" else cfg.d
            bound = 1.0 / math.sqrt(fan_in)
            value = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(value, requires_grad=True)
    return params


def _check_shapes(cfg: ModelConfig, params: dict) -> None:
    """Refuse params (arrays or tensors) that are not cfg's parameters by
    name and shape."""
    shapes = dict(parameter_shapes(cfg))
    missing = [n for n in shapes if n not in params]
    extra = [n for n in params if n not in shapes]
    if missing or extra:
        raise DataFormatError(
            f"state mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
    for name, shape in shapes.items():
        if tuple(params[name].shape) != shape:
            raise DataFormatError(f"state '{name}': shape "
                                  f"{tuple(params[name].shape)} != config {shape}")


def _check_finite(name: str, a: np.ndarray) -> None:
    """Refuse a non-finite weight: the mask head's relu would turn a NaN
    into silence rather than into an error."""
    if not np.all(np.isfinite(a)):
        raise DataFormatError(f"state '{name}': non-finite values")


class SeparationModel:
    """Encoder, dual-path masking network, and decoder under one config.

    The parameters are one dict, `params`, from checkpoint name to tensor
    in the order of parameter_shapes; each stage reads its entries by name.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.params = init_parameters(config, rng if rng is not None
                                      else np.random.default_rng(0))

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    # -- signal path --------------------------------------------------------

    def encode(self, x: Tensor) -> Tensor:
        """Waveform [T] -> frames [N, D], N = ceil(max(T - kernel, 0) / stride) + 1."""
        if x.ndim != 1:
            raise NumericsError(f"encode expects a 1-D waveform, got {x.shape}")
        frames = nm.frame(x, ENC_KERNEL, ENC_STRIDE)
        feats = nm.matmul(self.params["encoder"], frames)
        if self.config.encoder_relu:
            feats = nm.relu(feats)
        return feats

    def decode(self, feats: Tensor, out_len: int) -> Tensor:
        """Frames [N, D] -> waveform [out_len] by transposed strided projection."""
        if feats.ndim != 2 or feats.shape[1] != self.config.d:
            raise NumericsError(f"decode expects [N, D], got {feats.shape}")
        frames = nm.matmul(self.params["decoder"], feats)
        return nm.overlap_add(frames, ENC_STRIDE, out_len)

    def masks(self, feats: Tensor) -> tuple[Tensor, ...]:
        """Frames [N, D] -> one nonnegative mask [N, D] per speaker."""
        w = self.params
        cfg = self.config
        # the projection goes straight into chunk, so only the chunks outlive it
        h = dp.chunk(nm.matmul(w["input_proj"],
                               dp.apply_norm(feats, blocks_mod.scope(w, "pre_norm"))),
                     cfg.chunk_len)
        for i in range(cfg.r):
            h = dp.dp_block(h, blocks_mod.scope(w, f"blocks.{i}"), cfg.exact_zoh)
        merged = nm.matmul(w["mask_head_w"], dp.dechunk(h, feats.shape[0]),
                           w["mask_head_b"])
        out = []
        for i in range(SPEAKERS):
            sl = nm.narrow(merged, 1, i * cfg.d, cfg.d)
            o = nm.tanh(nm.matmul(w["out_proj_w"], sl, w["out_proj_b"]))
            g = nm.sigmoid(nm.matmul(w["out_gate_w"], sl, w["out_gate_b"]))
            out.append(nm.relu(nm.matmul(w["final_proj"], nm.mul(o, g))))
        return tuple(out)

    def separate(self, x) -> tuple[Tensor, ...]:
        """Waveform [T] -> per-speaker waveforms, each exactly [T]."""
        if not isinstance(x, Tensor):
            x = Tensor(x, dtype=self.params["encoder"].dtype)
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
        """
        _check_shapes(self.config, arrays)
        for name, a in arrays.items():      # all checked before any is copied
            _check_finite(name, a)
        for name, p in self.params.items():
            p.data = arrays[name].astype(p.dtype)

    @classmethod
    def from_checkpoint(cls, path: str | Path) -> "SeparationModel":
        """An inference model: the checkpoint's float32 weights, frozen.

        No weight requires a gradient, so no op records a tape node and
        separate() runs in float32 at the memory of its live arrays.  The
        weights are views of the payload load_checkpoint read, so nothing
        is drawn or copied.
        """
        cfg, arrays = load_checkpoint(path)
        for name, a in arrays.items():
            _check_finite(name, a)
        model = cls.__new__(cls)        # __init__ would draw weights to discard
        model.config = cfg
        model.params = {name: nm.as_tensor(a) for name, a in arrays.items()}
        return model


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


def save_model(path: str | Path, model: SeparationModel) -> None:
    """Text header + raw little-endian float32 payload; see load_checkpoint.

    The parameters must have the shapes of the model's config, else no
    file is written.  They are written one at a time, so at most one of
    them is held as float32 bytes, into a file beside path that is renamed
    onto path at the end: a save that fails leaves an older file as it was.
    """
    _check_shapes(model.config, model.params)
    header = "\n".join([
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        "[config]",
        config_to_text(model.config).rstrip("\n"),
        "[data]",
    ]) + "\n"
    path = Path(path)
    part = path.with_name(f".{path.name}.{os.urandom(4).hex()}.part")
    try:
        with open(part, "xb") as f:
            f.write(header.encode("ascii"))
            for name, _ in parameter_shapes(model.config):
                f.write(np.ascontiguousarray(model.params[name].data, dtype="<f4").data)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)        # gone already once renamed


def _header_line(f, path) -> str:
    """The next header line of an open checkpoint, without its newline.

    At most HEADER_LINE_MAX bytes are read, so a file that is not a
    checkpoint is refused after its first line however large it is.
    """
    raw = f.readline(HEADER_LINE_MAX)
    if not raw:
        raise DataFormatError(f"checkpoint {path}: missing [data] section")
    if not raw.endswith(b"\n"):
        raise DataFormatError(
            f"checkpoint {path}: header line cut short or over "
            f"{HEADER_LINE_MAX} bytes")
    try:
        return raw[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"checkpoint {path}: non-ascii header") from exc


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """The config and every parameter of parameter_shapes(config), each a
    view of one float32 array that holds the payload: the file's data is
    read once, into it.

    The header is read a bounded line at a time, at most CONFIG_LINES_MAX
    config lines, and the payload's size is checked against
    count_parameters(config) before anything is allocated for it, so a file
    that is not a checkpoint is refused within a few KiB of memory however
    long it is.
    """
    with open(path, "rb") as f:
        line = _header_line(f, path)
        if not line.startswith(CHECKPOINT_MAGIC + " "):
            raise DataFormatError(f"checkpoint {path}: bad magic line {line!r}")
        if line != f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}":
            raise DataFormatError(f"checkpoint {path}: unsupported version "
                                  f"{line[len(CHECKPOINT_MAGIC) + 1:]}")
        if _header_line(f, path) != "[config]":
            raise DataFormatError(f"checkpoint {path}: missing [config] section")
        config_lines = []
        while (line := _header_line(f, path)) != "[data]":
            if len(config_lines) == CONFIG_LINES_MAX:
                raise DataFormatError(f"checkpoint {path}: [config] section "
                                      f"over {CONFIG_LINES_MAX} lines")
            config_lines.append(line)
        cfg = config_from_text("\n".join(config_lines))
        total = count_parameters(cfg)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left != total * 4:
            raise DataFormatError(
                f"checkpoint {path}: payload is {left} bytes, its config's "
                f"parameters take {total * 4}")
        flat = np.fromfile(f, dtype="<f4", count=total)

    arrays: dict[str, np.ndarray] = {}
    off = 0
    for name, shape in parameter_shapes(cfg):
        size = math.prod(shape)
        arrays[name] = flat[off : off + size].reshape(shape)
        off += size
    return cfg, arrays
