"""Property tests of the readers: config text, checkpoints, WAVs, manifests.

Malformed input must raise DataFormatError and nothing else (the CLI maps
it to exit 3), and a write/read round trip must be bit-exact.  Example
counts are small so the whole file runs in seconds, and the examples are
derandomized, so every run checks the same ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepscan.audio as audio
import sepscan.model as M
from sepscan.dualpath import NORM_KINDS
from sepscan.errors import DataFormatError

FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)
ROUND_TRIP = settings(FUZZ, max_examples=40)

TINY_CFG = M.ModelConfig(d=2, r=1, h=1, chunk_len=4)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """blob with 1-4 random byte edits: overwrite, insert, delete or cut."""
    b = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, max(len(b) - 1, 0)))
        kind = draw(st.sampled_from(["set", "insert", "delete", "cut"]))
        if kind == "set" and b:
            b[i] = draw(st.integers(0, 255))
        elif kind == "insert":
            b[i:i] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del b[i : i + draw(st.integers(1, 8))]
        else:
            del b[i:]
    return bytes(b)


def _valid_checkpoint(path) -> bytes:
    M.save_model(path, M.SeparationModel(TINY_CFG, rng=np.random.default_rng(0)))
    return path.read_bytes()


def _valid_wav(path) -> bytes:
    audio.wav_write(path, np.linspace(-0.5, 0.5, 24), 8000)
    return path.read_bytes()


# -- only DataFormatError escapes -------------------------------------------


@FUZZ
@given(text=st.one_of(
    st.text(max_size=200),
    mutations(M.config_to_text(TINY_CFG).encode()).map(
        lambda b: b.decode("utf-8", errors="replace")),
))
def test_config_text_fuzz(text):
    try:
        M.config_from_text(text)
    except DataFormatError:
        pass


@FUZZ
@given(data=st.data())
def test_checkpoint_fuzz(scratch, data):
    p = scratch / "fuzz.ckpt"
    blob = data.draw(mutations(_valid_checkpoint(p)))
    p.write_bytes(blob)
    try:
        M.load_checkpoint(p)
    except DataFormatError:
        pass


@FUZZ
@given(data=st.data())
def test_wav_fuzz(scratch, data):
    p = scratch / "fuzz.wav"
    blob = data.draw(mutations(_valid_wav(p)))
    p.write_bytes(blob)
    try:
        audio.wav_read(p)
    except DataFormatError:
        pass


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=300),
    st.text(max_size=300).map(lambda s: s.encode("utf-8")),
))
def test_manifest_fuzz(scratch, blob):
    p = scratch / "manifest.txt"
    p.write_bytes(blob)
    try:
        audio.read_manifest(p)
    except DataFormatError:
        pass


# -- round trips are bit-exact ----------------------------------------------


configs = st.builds(
    M.ModelConfig,
    d=st.integers(1, 512), r=st.integers(1, 32), h=st.integers(1, 64),
    chunk_len=st.integers(1, 200).map(lambda k: 2 * k),
    norm_kind=st.sampled_from(NORM_KINDS), bidirectional=st.booleans(),
    exact_zoh=st.booleans(), encoder_relu=st.booleans(),
)


@ROUND_TRIP
@given(cfg=configs)
def test_config_round_trip(cfg):
    assert M.config_from_text(M.config_to_text(cfg)) == cfg


@ROUND_TRIP
@given(cfg=st.builds(
    M.ModelConfig,
    d=st.integers(1, 8), r=st.integers(1, 3), h=st.integers(1, 4),
    chunk_len=st.just(4), norm_kind=st.sampled_from(NORM_KINDS),
    bidirectional=st.booleans(), exact_zoh=st.booleans(),
    encoder_relu=st.booleans(),
), seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip(scratch, cfg, seed):
    """Every float32 bit pattern, NaN payloads included, survives."""
    p = scratch / "round.ckpt"
    model = M.SeparationModel(cfg)
    bits = np.random.default_rng(seed)
    for t in model.params.values():
        t.data = bits.integers(0, 2**32, t.shape, dtype=np.uint32).view(np.float32)
    M.save_model(p, model)
    back_cfg, back = M.load_checkpoint(p)
    assert back_cfg == cfg
    assert list(back) == list(model.params)
    for (name, t), got in zip(model.params.items(), back.values()):
        assert got.shape == t.shape
        assert np.array_equal(got.view(np.uint32), t.data.view(np.uint32)), name


@ROUND_TRIP
@given(q=st.lists(st.integers(-32768, 32767), max_size=200),
       rate=st.integers(1, 192000))
def test_wav_round_trip(scratch, q, rate):
    p = scratch / "round.wav"
    x = np.array(q, dtype=np.float64) / 32768.0
    audio.wav_write(p, x, rate)
    back, back_rate = audio.wav_read(p)
    assert back_rate == rate
    assert np.array_equal(back.view(np.uint64), x.view(np.uint64))


@ROUND_TRIP
@given(names=st.lists(st.from_regex(r"[a-z0-9_]{1,12}\.wav", fullmatch=True),
                      min_size=1, max_size=5, unique=True))
def test_manifest_round_trip(scratch, names):
    root = scratch / "corpus"
    root.mkdir(exist_ok=True)
    for n in names:
        (root / n).touch()
    m = root / "list.txt"
    m.write_text("".join(f"{n}\n" for n in names), encoding="utf-8")
    assert audio.read_manifest(m) == [root / n for n in names]
