"""Spans and counters around the public functions of every sepscan module.

The tracer wraps module and class attributes in place, so no source file
changes, and `uninstall` puts every original back. A span records its name,
start, end, parent span and operation id; spans live in memory until the
run writes them out. A layer's self time is its span minus the part of that
interval its child spans cover. `numerics.primitive` gets counters instead
of a span (it only records an op that has already run), plus a timed
wrapper around each VJP it records, tagged with the stage that recorded it.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict

MODULES = ("numerics", "ssm", "blocks", "dualpath", "model", "training",
           "audio", "cli")
SCAN_OPS = ("scan_sequential", "scan_parallel")

# (name, unit) of every per-layer metric. Values are per timed operation,
# except model.load_s (per load) and model.peak_mb_ratio, trace.overhead_s
# and process.vmhwm_mb (per run).
LAYER_METRICS = [
    ("numerics.nodes", "count"),
    ("numerics.tape_mb", "MB"),
    ("numerics.primitive_calls", "count"),
    ("numerics.backward_s", "s"),
    ("numerics.backward_self_s", "s"),
    ("numerics.vjp_other_s", "s"),
    ("ssm.scan_fwd_intra_s", "s"),
    ("ssm.scan_fwd_inter_s", "s"),
    ("ssm.scan_elems", "count"),
    ("ssm.scan_fwd_gelem_per_s", "Gelem/s"),
    ("ssm.scan_bwd_intra_s", "s"),
    ("ssm.scan_bwd_inter_s", "s"),
    ("ssm.select_param_s", "s"),
    ("blocks.bi_scan_intra_self_s", "s"),
    ("blocks.bi_scan_inter_self_s", "s"),
    ("dualpath.dp_block_self_s", "s"),
    ("dualpath.chunking_s", "s"),
    ("model.encode_s", "s"),
    ("model.masks_self_s", "s"),
    ("model.decode_s", "s"),
    ("model.load_s", "s"),
    ("model.separate_wait_s", "s"),
    ("model.peak_mb_ratio", "ratio"),
    ("training.forward_s", "s"),
    ("training.pit_loss_s", "s"),
    ("training.adam_step_s", "s"),
    ("audio.wav_read_s", "s"),
    ("audio.wav_write_s", "s"),
    ("cli.self_s", "s"),
    ("cli.worker_threads", "count"),
    *((f"{m}.errors", "count") for m in MODULES),
    ("trace.overhead_s", "s"),
    ("process.vmhwm_mb", "MB"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag", "extra", "scans")

    def __init__(self, name, parent, op, tag):
        self.name, self.parent, self.op, self.tag = name, parent, op, tag
        self.start = self.end = 0.0
        self.extra = None     # thread CPU seconds, or the op name of a VJP
        self.scans = 0

    @property
    def stage(self) -> str:
        return f"{self.name}:{self.tag}" if self.tag else self.name


def _scan_direction(parent: Span | None) -> str | None:
    """The first bi_scan inside a dp_block is intra-chunk, the second inter."""
    if parent is None or parent.name != "dualpath.dp_block":
        return None
    parent.scans += 1
    return "intra" if parent.scans == 1 else "inter"


def _scan_elems(x, params) -> int:
    """B*E*L*H of one scan call: x is [E, L] or [B, E, L], params.a is [E, H]."""
    return x.size * params.a.shape[1]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple, float] = defaultdict(float)   # (op, stage, key)
        self.errors: dict[tuple, int] = defaultdict(int)        # (op, module)
        self.threads: dict[object, int] = defaultdict(int)     # op -> most alive
        self.op = None
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._home: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name: str, tag_fn=None) -> tuple[list[Span], Span]:
        stack = self._stack()
        # a worker thread's outermost span hangs off the caller's open span
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        tag = tag_fn(parent) if tag_fn else (parent.tag if parent else None)
        span = Span(name, parent, self.op, tag)
        alive = threading.active_count()
        with self._lock:
            if alive > self.threads[self.op]:
                self.threads[self.op] = alive
        stack.append(span)
        return stack, span

    def _error(self, module: str, exc: BaseException) -> None:
        """Count `exc` once for `module`, however many wrapped calls it leaves."""
        seen = vars(exc).setdefault("_traced_modules", set())
        if module in seen:
            return
        seen.add(module)
        with self._lock:
            self.errors[self.op, module] += 1

    def _wrap(self, name: str, fn, tag_fn=None, count=None, cpu=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                key, value = count(*args)
                tracer._add(key, value)
            stack, span = tracer._open(name, tag_fn)
            span.start = time.perf_counter()
            c0 = time.thread_time() if cpu else 0.0
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(name.split(".", 1)[0], exc)
                raise
            finally:
                if cpu:
                    span.extra = time.thread_time() - c0
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
        return wrapper

    def _add(self, key: str, value: float, stage: str | None = None) -> None:
        if stage is None:
            stack = self._stack()
            stage = stack[-1].stage if stack else "-"
        with self._lock:
            self.counts[(self.op, stage, key)] += value

    def _primitive(self, original):
        tracer = self

        @functools.wraps(original)
        def primitive(data, parents, vjp, op):
            stack = tracer._stack()
            top = stack[-1] if stack else None
            try:
                out = original(data, parents, tracer._timed_vjp(vjp, op, top), op)
            except BaseException as exc:
                tracer._error("numerics", exc)
                raise
            stage = top.stage if top else "-"
            tracer._add("primitive_calls", 1, stage)
            if out.requires_grad:          # the op was recorded on the tape
                tracer._add("nodes", 1, stage)
                tracer._add("tape_bytes", data.nbytes, stage)
            return out
        return primitive

    def _timed_vjp(self, vjp, op: str, top: Span | None):
        tracer = self
        tag = top.tag if top else None

        def timed(g):
            stack = tracer._stack()
            span = Span("numerics.vjp", stack[-1] if stack else None, tracer.op,
                        tag)
            span.extra = op
            span.start = time.perf_counter()
            try:
                return vjp(g)
            finally:
                span.end = time.perf_counter()
                tracer.spans.append(span)
        return timed

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def targets(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._plan()]

    def _plan(self):
        """(owner, attribute, wrapper factory) for every wrapped function."""
        from sepscan import audio, blocks, cli, dualpath, model, numerics, ssm, training

        def span(name, **kw):
            return lambda fn: self._wrap(name, fn, **kw)
        M = model.SeparationModel
        return [
            (numerics, "primitive", self._primitive),
            (numerics.Tensor, "backward", span("numerics.Tensor.backward")),
            (ssm, "scan_sequential", span(
                "ssm.scan_sequential",
                count=lambda x, p, *a, **k: ("scan_elems", _scan_elems(x, p)))),
            (ssm, "selective_parameterize", span("ssm.selective_parameterize")),
            (blocks, "bi_scan_forward",
             span("blocks.bi_scan_forward", tag_fn=_scan_direction)),
            (dualpath, "dp_block", span("dualpath.dp_block")),
            (dualpath, "chunk", span("dualpath.chunk")),
            (dualpath, "dechunk", span("dualpath.dechunk")),
            (M, "encode", span("model.encode")),
            (M, "masks", span("model.masks")),
            (M, "decode", span("model.decode")),
            (M, "separate", span("model.separate", cpu=True)),
            (M, "from_checkpoint", span("model.from_checkpoint")),
            (training, "pit_loss", span("training.pit_loss")),
            (training.Adam, "step", span("training.Adam.step")),
            (audio, "wav_read", span("audio.wav_read")),
            (audio, "wav_write", span("audio.wav_write")),
            (cli, "main", span("cli.main")),
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home = self._stack()
        for owner, attr, make in self._plan():
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- export -----------------------------------------------------------------

    def dump(self) -> dict:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {
            "columns": ["name", "start", "end", "parent", "op", "tag", "extra"],
            "spans": [[s.name, s.start, s.end,
                       index.get(id(s.parent)) if s.parent else None,
                       s.op, s.tag, s.extra] for s in self.spans],
            "counts": [[op, stage, key, v]
                       for (op, stage, key), v in self.counts.items()],
            "errors": [[op, module, v] for (op, module), v in self.errors.items()],
        }

    def layer_metrics(self, ops: list) -> dict[str, float]:
        """Per-layer metrics averaged over the operations `ops` (ids of timed ops)."""
        opset = set(ops)
        n = max(len(opset), 1)
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.start, s.end))
        wall = defaultdict(float)        # (name, tag) -> summed duration
        self_ = defaultdict(float)       # (name, tag) -> summed self time
        wait = 0.0
        vjp_other = 0.0
        train_ops = set()
        for s in self.spans:
            if s.op not in opset:
                continue
            d = s.end - s.start
            wall[s.name, s.tag] += d
            self_[s.name, s.tag] += d - _covered(s.start, s.end, children[id(s)])
            if s.name == "model.separate":
                wait += max(d - s.extra, 0.0)    # clocks differ by microseconds
            elif s.name == "numerics.vjp":
                if s.extra in SCAN_OPS:
                    wall["scan_vjp", s.tag] += d
                else:
                    vjp_other += d
            elif s.name == "training.Adam.step":
                train_ops.add(s.op)
        counts = defaultdict(float)
        for (op, _, key), v in self.counts.items():
            if op in opset:
                counts[key] += v
        errors = defaultdict(float)
        for (op, module), v in self.errors.items():
            if op in opset:
                errors[module] += v

        def total(name, tag=None, table=wall):
            return table[name, tag] / n

        loads = [s.end - s.start for s in self.spans if s.name == "model.from_checkpoint"]
        scan_fwd = total("ssm.scan_sequential", "intra") + total("ssm.scan_sequential", "inter")
        cli_ops = {s.op for s in self.spans if s.name == "cli.main"} & opset
        out = {
            "numerics.nodes": counts["nodes"] / n,
            "numerics.tape_mb": counts["tape_bytes"] / n / 1e6,
            "numerics.primitive_calls": counts["primitive_calls"] / n,
            "numerics.backward_s": total("numerics.Tensor.backward"),
            "numerics.backward_self_s": total("numerics.Tensor.backward", table=self_),
            "numerics.vjp_other_s": vjp_other / n,
            "ssm.scan_fwd_intra_s": total("ssm.scan_sequential", "intra"),
            "ssm.scan_fwd_inter_s": total("ssm.scan_sequential", "inter"),
            "ssm.scan_elems": counts["scan_elems"] / n,
            "ssm.scan_fwd_gelem_per_s": (counts["scan_elems"] / n / scan_fwd / 1e9
                                         if scan_fwd else 0.0),
            "ssm.scan_bwd_intra_s": total("scan_vjp", "intra"),
            "ssm.scan_bwd_inter_s": total("scan_vjp", "inter"),
            "ssm.select_param_s": (total("ssm.selective_parameterize", "intra")
                                   + total("ssm.selective_parameterize", "inter")),
            "blocks.bi_scan_intra_self_s": total("blocks.bi_scan_forward", "intra", self_),
            "blocks.bi_scan_inter_self_s": total("blocks.bi_scan_forward", "inter", self_),
            "dualpath.dp_block_self_s": total("dualpath.dp_block", table=self_),
            "dualpath.chunking_s": total("dualpath.chunk") + total("dualpath.dechunk"),
            "model.encode_s": total("model.encode"),
            "model.masks_self_s": total("model.masks", table=self_),
            "model.decode_s": total("model.decode"),
            "model.load_s": statistics.fmean(loads) if loads else 0.0,
            "model.separate_wait_s": wait / n,
            "training.forward_s": total("model.separate") if train_ops else 0.0,
            "training.pit_loss_s": total("training.pit_loss"),
            "training.adam_step_s": total("training.Adam.step"),
            "audio.wav_read_s": total("audio.wav_read"),
            "audio.wav_write_s": total("audio.wav_write"),
            "cli.self_s": total("cli.main", table=self_),
            "cli.worker_threads": float(max((self.threads[op] - 1 for op in cli_ops),
                                            default=0)),
        }
        for m in MODULES:
            out[f"{m}.errors"] = errors[m] / n
        return out
