"""Command-line front end.

Subcommands:

    separate    apply a checkpoint to a mixture WAV, write s1.wav / s2.wav
    train-toy   overfit a small model on mixtures built from a WAV corpus
    gradcheck   run the finite-difference suites
    params      print the parameter count for a config
    bench-scan  benchmark scan implementations, CSV to stdout
    eval        score a checkpoint against mixtures from a corpus manifest

Exit codes: 0 success, 2 usage error (argparse), 3 malformed input data
(including a malformed checkpoint, one of a format version other than 3 or
one with a non-finite weight, a config key the model does not have, a
train-toy config whose parameters numpy cannot address, a WAV whose rate
is not model.SAMPLE_RATE, a path the operating system refuses, a constant
corpus file, separate inputs whose outputs would collide, and an output
of separate or train-toy that would overwrite an input), 4
numeric/training failure (failed gradcheck, count mismatch, divergence,
non-finite separated stems).

separate writes its stems into a stage, a new .sepscan-* directory in the
output directory, and renames them into place once every input has
succeeded.  A failure or an interrupt removes the stage, so a nonzero exit
leaves no partial output and the directory's earlier files as they were;
a rename that fails part-way removes the stems already renamed (and so
any file they replaced).  Several inputs run in forked child processes,
at most one per CPU, forked once the checkpoint is loaded so that they
share its weights copy-on-write; one input, or a platform without
os.fork, runs in process.  A failing child sends its error, which the
parent raises as the same class.  The parent reaps every child, killing
the running ones on an error or an interrupt.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import signal
import sys
import tempfile
import traceback
from collections import Counter
from multiprocessing.connection import Pipe, wait
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import audio, bench, gradcheck, model as model_mod, ssm, training
from .errors import DataFormatError, TrainingDiverged
from .numerics import NumericsError

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _wav_length_checked(path) -> int:
    """The sample count in the header of a WAV at the model's rate."""
    n, rate = audio.wav_info(path)
    if rate != model_mod.SAMPLE_RATE:
        raise DataFormatError(f"{path}: sample rate {rate} does not match "
                              f"the model's {model_mod.SAMPLE_RATE}")
    if n == 0:
        raise DataFormatError(f"{path}: empty WAV")
    return n


def _same_file(a, b) -> bool:
    """a and b name one file: the same resolved path, or two existing paths
    with one inode (another spelling, a symlink or a hard link)."""
    return (Path(a).resolve() == Path(b).resolve()
            or os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def _refuse_overwrite(outputs, inputs) -> None:
    """Refuse, before anything is written, an output that is an input."""
    for dest in outputs:
        for path in inputs:
            if _same_file(dest, path):
                raise DataFormatError(
                    f"the output {dest} would overwrite the input {path}")


def _corpus_pairs(manifest, count: int,
                  rng: np.random.Generator) -> list[training.MixExample]:
    """Build fixed mixtures by pairing distinct corpus files.

    The draws do not depend on the audio, so they are made once the
    headers have given the shortest length; then each file's prefix of
    that length is read and checked in turn (the rest only counted, for
    the truncation check) and only the drawn prefixes are kept, so memory
    is set by count, not by the number or the length of the files.
    """
    paths = audio.read_manifest(manifest)
    if len(paths) < 2:
        raise DataFormatError(f"{manifest}: need at least 2 corpus files")
    shortest = min(_wav_length_checked(p) for p in paths)
    draws = [(rng.choice(len(paths), size=2, replace=False),
              training.sample_snr(rng)) for _ in range(count)]
    drawn = {int(k) for pair, _ in draws for k in pair}
    prefixes = {}
    for k, path in enumerate(paths):
        w = audio.wav_read(path, shortest)[0]
        if np.all(w == w[0]):
            raise DataFormatError(f"{path}: constant (silent or DC) over the first "
                                  f"{shortest} samples, the shortest file's length")
        if k in drawn:
            prefixes[k] = w
    return [training.mix_sources(prefixes[i], prefixes[j], snr)
            for (i, j), snr in draws]


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _separate_one(model, path, outs) -> None:
    """Separate one input and write its stems; both are checked before
    either is written."""
    _wav_length_checked(path)
    mix = audio.wav_read(path)[0]
    stems = [est.data for est in model.separate(mix)]
    if not all(np.isfinite(s).all() for s in stems):
        raise NumericsError(f"{path}: separation produced non-finite samples")
    for dest, stem in zip(outs, stems, strict=True):
        audio.wav_write(dest, stem, model_mod.SAMPLE_RATE)


def _work(model, jobs, conn) -> NoReturn:
    """A forked child's whole life: separate its (input, stems) jobs, send
    its error if it fails, exit."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent decides
        for path, outs in jobs:
            _separate_one(model, path, outs)
        code = 0
    except (DataFormatError, OSError, NumericsError) as exc:
        conn.send((type(exc), str(exc)))
    except BaseException:
        conn.send((RuntimeError, traceback.format_exc()))
    finally:
        os._exit(code)        # never back into the caller's stack


def _fork_workers(model, shares) -> None:
    """Run each share of (input, stems) jobs in a forked child; the children
    share the model's pages copy-on-write.  A child's error comes back on its
    own pipe and is raised as its class.  Every child is reaped on every
    path, the running ones killed first on an error or an interrupt; a child
    that ends without reporting, by a signal say, fails."""
    children = {}       # read end of each child's pipe -> the child's pid
    ended = set()       # the read ends at end of file: their child has exited
    statuses = []
    try:
        for jobs in shares:
            reader, writer = Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                _work(model, jobs, writer)
            children[reader] = pid
            writer.close()
        while len(ended) < len(children):
            for reader in wait(children.keys() - ended):
                try:
                    cls, message = reader.recv()
                except EOFError:
                    ended.add(reader)
                    continue
                raise cls(message)
    finally:
        for reader, pid in children.items():
            if reader not in ended:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
            reader.close()
    for status, jobs in zip(statuses, shares, strict=True):
        if status:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited {code}"
            names = ", ".join(str(p) for p, _ in jobs)
            raise RuntimeError(f"the worker separating {names} {how} without reporting")


def _cmd_separate(args) -> int:
    inputs = getattr(args, "in")
    out_dir = Path(args.out)
    shared = sorted(s for s, n in Counter(Path(p).stem for p in inputs).items()
                    if n > 1)
    if shared:
        raise DataFormatError(
            f"inputs share the file stem(s) {', '.join(shared)}, so their "
            f"outputs in {out_dir} would overwrite each other")
    speakers = range(1, model_mod.SPEAKERS + 1)
    prefixes = [""] if len(inputs) == 1 else [f"{Path(p).stem}_" for p in inputs]
    names = [[f"{pre}s{i}.wav" for i in speakers] for pre in prefixes]
    outputs = [out_dir / n for ns in names for n in ns]
    _refuse_overwrite(outputs, inputs)
    model = model_mod.SeparationModel.from_checkpoint(args.ckpt)
    out_dir.mkdir(parents=True, exist_ok=True)
    # in the output directory, so each stem's rename into place is atomic
    stage = Path(tempfile.mkdtemp(prefix=".sepscan-", dir=out_dir))
    jobs = [(path, [stage / n for n in ns])
            for path, ns in zip(inputs, names, strict=True)]
    workers = min(len(jobs), os.cpu_count() or 1)
    published = []
    try:
        if workers > 1 and hasattr(os, "fork"):
            _fork_workers(model, [jobs[w::workers] for w in range(workers)])
        else:
            for path, outs in jobs:
                _separate_one(model, path, outs)
        for dest in outputs:
            os.replace(stage / dest.name, dest)
            published.append(dest)
    except BaseException:
        for dest in published:
            dest.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    for p in outputs:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_train_toy(args) -> int:
    if Path(args.out).is_dir() or not Path(args.out).parent.is_dir():
        raise DataFormatError(f"--out {args.out}: not a file in an existing directory")
    _refuse_overwrite([p for p in (args.out, args.log) if p is not None],
                      [args.config, args.corpus, *audio.read_manifest(args.corpus)])
    cfg = model_mod.load_config(args.config)
    n = model_mod.count_parameters(cfg)
    if 8 * n > np.iinfo(np.intp).max:
        raise DataFormatError(f"config {args.config}: {n} float64 parameters "
                              f"are more than numpy can address")
    rng = np.random.default_rng(args.seed)
    examples = _corpus_pairs(args.corpus, args.pairs, rng)
    net = model_mod.SeparationModel(cfg, rng=rng)
    sched = training.TrainSchedule(peak_lr=args.peak_lr,
                                   warmup_steps=args.warmup,
                                   total_steps=args.steps)
    res = training.train_toy(net, examples, sched, log_path=args.log,
                             val_every=args.val_every,
                             stop_at_si_snri=args.stop_at, verbose=True)
    model_mod.save_model(args.out, net)
    print(f"saved {args.out} after {res.steps_run} steps, "
          f"si_snri {res.final_si_snri:.2f} dB")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(args.module, seed=args.seed)
    failed = 0
    for r in results:
        flag = "PASS" if r.ok else "FAIL"
        print(f"{flag} {r.name}: max_rel_err {r.max_rel_err:.3e} (tol {r.tol:g})")
        failed += 0 if r.ok else 1
    if failed:
        print(f"{failed} of {len(results)} gradchecks failed")
        return EXIT_NUMERIC
    print(f"all {len(results)} gradchecks passed")
    return EXIT_OK


def _cmd_params(args) -> int:
    cfg = model_mod.load_config(args.config)
    n = model_mod.count_parameters(cfg)
    print(n)
    # n may be past any float; an int compares with a float exactly
    if args.expect is not None and not (args.expect * (1 - args.tol) <= n
                                        <= args.expect * (1 + args.tol)):
        print(f"expected {args.expect:.6g} +/- {args.tol:.0%}, got {n}")
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_bench_scan(args) -> int:
    rows = bench.run_table(args.impl, args.L, args.E, args.H, seed=args.seed)
    print(",".join(bench.CSV_COLUMNS))
    for row in rows:
        print(",".join(str(row[c]) for c in bench.CSV_COLUMNS))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = model_mod.SeparationModel.from_checkpoint(args.ckpt)
    rng = np.random.default_rng(args.seed)
    examples = _corpus_pairs(args.manifest, args.pairs, rng)
    si_snri, sdri = training.evaluate(model, examples)
    print(f"si_snri {si_snri:.2f} dB")
    print(f"sdri {sdri:.2f} dB")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _bounded(kind, low=-math.inf, strict=False):
    """An argparse type: finite `kind` values >= low (> low when strict)."""
    def parse(text):
        value = kind(text)
        if not math.isfinite(value) or value < low or (strict and value == low):
            bound = (f"{'>' if strict else '>='} {low}" if low > -math.inf
                     else "finite")
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value
    parse.__name__ = kind.__name__    # argparse names the type in its errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sepscan",
                                description="dual-path scan speech separation")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("separate", help="separate mixture WAVs")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--in", required=True, nargs="+",
                   help="mixture WAV path(s); several fan out to forked "
                        "processes, one per CPU at most")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(fn=_cmd_separate)

    s = sub.add_parser("train-toy", help="overfit a small model on corpus pairs")
    s.add_argument("--config", required=True, help="config file or preset name")
    s.add_argument("--corpus", required=True, help="manifest of WAV files")
    s.add_argument("--out", required=True, help="checkpoint output path")
    s.add_argument("--steps", type=_bounded(int, 0), default=2000)
    s.add_argument("--warmup", type=_bounded(int, 0), default=200)
    s.add_argument("--peak-lr", type=_bounded(float, 0, strict=True),
                   default=1.5e-4)
    s.add_argument("--pairs", type=_bounded(int, 1), default=2)
    s.add_argument("--val-every", type=_bounded(int, 1), default=25)
    s.add_argument("--stop-at", type=_bounded(float), default=None,
                   help="stop once si_snri reaches this many dB")
    s.add_argument("--log", default=None, help="CSV training log path")
    s.add_argument("--seed", type=_bounded(int, 0), default=0)
    s.set_defaults(fn=_cmd_train_toy)

    s = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    s.add_argument("--module", default="all",
                   choices=sorted(gradcheck.SUITES) + ["all"])
    s.add_argument("--seed", type=_bounded(int, 0), default=0)
    s.set_defaults(fn=_cmd_gradcheck)

    s = sub.add_parser("params", help="parameter count for a config")
    s.add_argument("--config", required=True, help="config file or preset name")
    s.add_argument("--expect", type=_bounded(float, 0, strict=True), default=None)
    s.add_argument("--tol", type=_bounded(float, 0), default=0.02)
    s.set_defaults(fn=_cmd_params)

    s = sub.add_parser("bench-scan", help="scan benchmarks as CSV")
    s.add_argument("--impl", nargs="+", choices=list(bench.IMPLS),
                   default=["seq", "par"])
    s.add_argument("--L", type=_bounded(int, 1), nargs="+", default=[1000, 8000])
    s.add_argument("--E", type=_bounded(int, 1), default=4)
    s.add_argument("--H", type=_bounded(int, 1), default=16)
    s.add_argument("--seed", type=_bounded(int, 0), default=0)
    s.set_defaults(fn=_cmd_bench_scan)

    s = sub.add_parser("eval", help="score a checkpoint on corpus mixtures")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--manifest", required=True)
    s.add_argument("--pairs", type=_bounded(int, 1), default=4)
    s.add_argument("--seed", type=_bounded(int, 0), default=0)
    s.set_defaults(fn=_cmd_eval)
    return p


def main(argv=None) -> int:
    # no variable holds the parser, so it is freed before the command runs
    args = build_parser().parse_args(argv)
    if args.command == "train-toy" and args.warmup > args.steps:
        build_parser().error(f"argument --warmup: must be <= --steps "
                             f"({args.steps}), got {args.warmup}")
    if (args.command == "train-toy" and args.log is not None
            and _same_file(args.log, args.out)):
        build_parser().error("argument --log: must not be the --out checkpoint")
    if args.command == "bench-scan" and "oracle" in args.impl:
        for flag, value, top in (("L", max(args.L), ssm.MAX_ORACLE_L),
                                 ("H", args.H, ssm.MAX_ORACLE_H)):
            if value > top:
                build_parser().error(
                    f"argument --{flag}: must be <= {top} with --impl oracle")
    try:
        return args.fn(args)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericsError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
