"""CLI contracts: subcommands, exit codes, determinism, file outputs."""

import gc
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import sepscan.audio as audio
import sepscan.cli as cli
import sepscan.gradcheck as gradcheck
import sepscan.model as M
import sepscan.numerics as nm
import sepscan.training as T
from sepscan.errors import DataFormatError

TINY_CFG = "d = 4\nr = 1\nh = 2\nchunk_len = 8\n"


def assert_no_children():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "sepscan.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared corpus, config, checkpoint, and mixture for CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    audio.synth_corpus(corpus, num_speakers=2, utts_per_speaker=1,
                       duration_s=0.06, sample_rate=8000, seed=4)
    cfg_file = root / "tiny.cfg"
    cfg_file.write_text(TINY_CFG)

    cfg = M.config_from_text(TINY_CFG)
    model = M.SeparationModel(cfg, rng=np.random.default_rng(0))
    ckpt = root / "tiny.ckpt"
    M.save_model(ckpt, model)

    s1, _ = audio.wav_read(corpus / "spk0_utt0.wav")
    s2, _ = audio.wav_read(corpus / "spk1_utt0.wav")
    mix = root / "mix.wav"
    audio.wav_write(mix, T.mix_sources(s1, s2, 0.0).mix, 8000)
    return {"root": root, "corpus": corpus, "cfg": cfg_file,
            "ckpt": ckpt, "mix": mix}


class TestUsage:
    def test_no_args_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("params").returncode == 2

    TRAIN = ["train-toy", "--config", "xs", "--corpus", "c", "--out", "o"]
    OUT_OF_RANGE = {
        "expect_zero": ["params", "--config", "xs", "--expect", "0"],
        "expect_negative": ["params", "--config", "xs", "--expect", "-5"],
        "expect_nan": ["params", "--config", "xs", "--expect", "nan"],
        "tol_negative": ["params", "--config", "xs", "--tol", "-0.1"],
        "L_negative": ["bench-scan", "--L", "100", "-5"],
        "E_zero": ["bench-scan", "--E", "0"],
        "H_zero": ["bench-scan", "--H", "0"],
        "oracle_L_over_max": ["bench-scan", "--impl", "oracle", "--L", "64", "1025"],
        "oracle_H_over_max": ["bench-scan", "--impl", "seq", "oracle",
                              "--L", "64", "--H", "33"],
        "eval_pairs_zero": ["eval", "--ckpt", "m", "--manifest", "f", "--pairs", "0"],
        "train_pairs_zero": TRAIN + ["--pairs", "0"],
        "val_every_zero": TRAIN + ["--val-every", "0"],
        "steps_negative": TRAIN + ["--steps", "-1"],
        "warmup_negative": TRAIN + ["--warmup", "-1"],
        "warmup_over_steps": TRAIN + ["--steps", "3", "--warmup", "5"],
        "peak_lr_zero": TRAIN + ["--peak-lr", "0"],
        "peak_lr_negative": TRAIN + ["--peak-lr", "-0.001"],
        "peak_lr_nan": TRAIN + ["--peak-lr", "nan"],
        "stop_at_nan": TRAIN + ["--stop-at", "nan"],
        "stop_at_inf": TRAIN + ["--stop-at", "inf"],
    }

    @pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_count_flag_is_usage_error(self, argv, capsys):
        # refused while parsing, before any file is opened
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gradcheck"], ["bench-scan"], TRAIN, ["eval", "--ckpt", "m", "--manifest", "f"],
    ], ids=["gradcheck", "bench-scan", "train-toy", "eval"])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        # numpy's default_rng refuses a negative seed with a traceback
        with pytest.raises(SystemExit) as e:
            cli.main(argv + ["--seed", "-5"])
        assert e.value.code == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err


class TestParams:
    def test_preset_count(self):
        r = run_cli("params", "--config", "s")
        assert r.returncode == 0
        assert r.stdout.split()[0] == "8123648"

    def test_expect_gate_pass(self):
        r = run_cli("params", "--config", "s", "--expect", "8.1e6",
                    "--tol", "0.02")
        assert r.returncode == 0

    def test_expect_gate_fail(self):
        r = run_cli("params", "--config", "s", "--expect", "1e6")
        assert r.returncode == 4

    def test_expect_gate_fail_past_any_float(self, tmp_path, capsys):
        # the count is exact integer arithmetic, far beyond the float range
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"d = {10**200}\nr = 1\nh = 2\n")
        assert cli.main(["params", "--config", str(cfg), "--expect", "1e6"]) == 4
        n = M.count_parameters(M.load_config(cfg))
        assert capsys.readouterr().out == f"{n}\nexpected 1e+06 +/- 2%, got {n}\n"

    def test_missing_config_file(self):
        r = run_cli("params", "--config", "no_such_file.cfg")
        assert r.returncode == 3
        assert "error" in r.stderr

    def test_nonpositive_sample_rate_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("d = 8\nr = 2\nsample_rate = 0\n")
        r = run_cli("params", "--config", str(bad))
        assert r.returncode == 3
        assert "sample_rate" in r.stderr and "Traceback" not in r.stderr


    def test_front_end_key_is_data_error(self, tmp_path):
        # the encoder stride is a module constant, not a config key
        bad = tmp_path / "stride.cfg"
        bad.write_text("d = 8\nr = 2\nenc_stride = 8\n")
        r = run_cli("params", "--config", str(bad))
        assert r.returncode == 3
        assert "unknown key 'enc_stride'" in r.stderr and "Traceback" not in r.stderr

    def test_non_utf8_config_is_data_error(self, tmp_path):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"d = 8\nr = 2\n# caf\xe9\n")
        r = run_cli("params", "--config", str(bad))
        assert r.returncode == 3
        assert "UTF-8" in r.stderr and "Traceback" not in r.stderr


    def test_overlong_config_name_is_data_error(self):
        r = run_cli("params", "--config", "a" * 5000)
        assert r.returncode == 3
        assert "Traceback" not in r.stderr


class TestGradcheckCommand:
    def test_numerics_suite_passes(self):
        r = run_cli("gradcheck", "--module", "numerics")
        assert r.returncode == 0
        assert "all" in r.stdout and "passed" in r.stdout

    def test_unknown_module_rejected(self):
        assert run_cli("gradcheck", "--module", "bogus").returncode == 2

    def test_a_failing_check_is_numeric_error(self, monkeypatch, capsys):
        suite, make, _tol = gradcheck.CHECKS["add"]
        monkeypatch.setitem(gradcheck.CHECKS, "add", (suite, make, 0.0))
        assert cli.main(["gradcheck", "--module", "numerics"]) == 4
        out = capsys.readouterr().out
        assert "FAIL add" in out and "1 of 25 gradchecks failed" in out


class TestBenchCommand:
    def test_csv_shape(self):
        r = run_cli("bench-scan", "--impl", "seq", "--L", "64", "128",
                    "--E", "2", "--H", "4")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "impl,L,E,H,wall_ns,peak_bytes"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "seq" and first[1] == "64"
        assert int(first[4]) > 0 and int(first[5]) > 0

    def test_defaults_run(self):
        # seq and par at L = 1000 and 8000
        r = run_cli("bench-scan")
        assert r.returncode == 0, r.stderr
        rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
        assert [(row[0], row[1]) for row in rows] == [
            ("seq", "1000"), ("seq", "8000"), ("par", "1000"), ("par", "8000")]


class TestSeparateCommand:
    def test_writes_two_stems_same_length_and_rate(self, workspace):
        out = workspace["root"] / "sep"
        r = run_cli("separate", "--ckpt", str(workspace["ckpt"]),
                    "--in", str(workspace["mix"]), "--out", str(out))
        assert r.returncode == 0, r.stderr
        mix, rate = audio.wav_read(workspace["mix"])
        for stem in ("s1.wav", "s2.wav"):
            est, est_rate = audio.wav_read(out / stem)
            assert est_rate == rate
            assert est.shape == mix.shape

    def test_multiple_inputs_fan_out(self, workspace):
        out = workspace["root"] / "sep_many"
        mix2 = workspace["root"] / "mix2.wav"
        m, rate = audio.wav_read(workspace["mix"])
        audio.wav_write(mix2, m[::-1].copy(), rate)
        r = run_cli("separate", "--ckpt", str(workspace["ckpt"]),
                    "--in", str(workspace["mix"]), str(mix2),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        for name in ("mix_s1.wav", "mix_s2.wav", "mix2_s1.wav", "mix2_s2.wav"):
            assert (out / name).is_file()

    def test_sample_rate_mismatch_is_data_error(self, workspace):
        bad = workspace["root"] / "wrong_rate.wav"
        audio.wav_write(bad, np.zeros(100), 16000)
        r = run_cli("separate", "--ckpt", str(workspace["ckpt"]),
                    "--in", str(bad), "--out",
                    str(workspace["root"] / "nowhere"))
        assert r.returncode == 3
        assert "sample rate" in r.stderr

    def test_missing_checkpoint_is_data_error(self, workspace):
        r = run_cli("separate", "--ckpt", "ghost.ckpt",
                    "--in", str(workspace["mix"]),
                    "--out", str(workspace["root"] / "x"))
        assert r.returncode == 3

    @pytest.mark.parametrize("command", ["separate", "eval"])
    def test_non_finite_checkpoint_is_data_error(self, workspace, command):
        model = M.SeparationModel(M.config_from_text(TINY_CFG))
        model.params["final_proj"].data[0, 0] = np.nan
        bad = workspace["root"] / "nan.ckpt"
        M.save_model(bad, model)
        out = workspace["root"] / f"nan_{command}"
        argv = {"separate": ["--in", str(workspace["mix"]), "--out", str(out)],
                "eval": ["--manifest", str(workspace["corpus"] / "manifest.txt")]}
        r = run_cli(command, "--ckpt", str(bad), *argv[command])
        assert r.returncode == 3
        assert "final_proj" in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    def test_malformed_checkpoint_is_data_error(self, workspace):
        blob = workspace["ckpt"].read_bytes()
        bad = workspace["root"] / "bad.ckpt"
        bad.write_bytes(blob.replace(b"\nh = ", b"\nh = z", 1))
        r = run_cli("separate", "--ckpt", str(bad),
                    "--in", str(workspace["mix"]),
                    "--out", str(workspace["root"] / "x"))
        assert r.returncode == 3
        assert "error" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("chunk_len", [2_000_000_000, 10**200],
                             ids=["2e9", "1e200"])
    def test_oversized_chunk_len_checkpoint_is_data_error(self, workspace,
                                                          chunk_len):
        blob = workspace["ckpt"].read_bytes()
        bad = workspace["root"] / "long_chunks.ckpt"
        bad.write_bytes(blob.replace(b"\nchunk_len = 8\n",
                                     f"\nchunk_len = {chunk_len}\n".encode(), 1))
        out = workspace["root"] / "long_chunks_out"
        r = run_cli("separate", "--ckpt", str(bad),
                    "--in", str(workspace["mix"]), "--out", str(out))
        assert r.returncode == 3
        assert "chunk_len" in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    def test_version_2_checkpoint_is_data_error(self, workspace,
                                                old_format_checkpoint):
        model = M.SeparationModel(M.config_from_text(TINY_CFG))
        old = workspace["root"] / "v2.ckpt"
        old.write_bytes(old_format_checkpoint(model, 2))
        out = workspace["root"] / "v2_out"
        r = run_cli("separate", "--ckpt", str(old),
                    "--in", str(workspace["mix"]), "--out", str(out))
        assert r.returncode == 3
        assert "unsupported version 2" in r.stderr
        assert "Traceback" not in r.stderr and not out.exists()

    def test_truncated_wav_is_data_error(self, workspace, tmp_path):
        cut = tmp_path / "cut.wav"
        cut.write_bytes(workspace["mix"].read_bytes()[:-1])
        r = run_cli("separate", "--ckpt", str(workspace["ckpt"]),
                    "--in", str(cut), "--out", str(tmp_path / "out"))
        assert r.returncode == 3
        assert "truncated" in r.stderr and "Traceback" not in r.stderr

    def test_wav_cut_on_a_sample_boundary_is_data_error(self, workspace,
                                                         tmp_path):
        cut = tmp_path / "cut.wav"
        cut.write_bytes(workspace["mix"].read_bytes()[:-2])
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", str(cut), "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_overlong_checkpoint_name_is_data_error(self, workspace, tmp_path):
        # the OS refuses the name itself (ENAMETOOLONG), not a missing file
        rc = cli.main(["separate", "--ckpt", "c" * 5000,
                       "--in", str(workspace["mix"]), "--out", str(tmp_path)])
        assert rc == 3

    def test_colliding_output_names_rejected(self, workspace):
        ins = []
        for sub in ("a", "b"):
            (workspace["root"] / sub).mkdir(exist_ok=True)
            ins.append(workspace["root"] / sub / "x.wav")
            ins[-1].write_bytes(workspace["mix"].read_bytes())
        out = workspace["root"] / "sep_collide"
        r = run_cli("separate", "--ckpt", str(workspace["ckpt"]),
                    "--in", *map(str, ins), "--out", str(out))
        assert r.returncode == 3
        assert "stem" in r.stderr and "wrote" not in r.stdout
        assert list(out.glob("*.wav")) == []

    def test_output_over_the_input_rejected(self, workspace, tmp_path, capsys):
        # the lone input is named like its own first stem
        mix = tmp_path / "s1.wav"
        mix.write_bytes(workspace["mix"].read_bytes())
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", str(mix), "--out", str(tmp_path)])
        assert rc == 3
        assert f"overwrite the input {mix}" in capsys.readouterr().err
        assert mix.read_bytes() == workspace["mix"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.wav"]

    def test_output_over_another_input_rejected(self, workspace, tmp_path,
                                                capsys):
        # a's first stem, a_s1.wav, would land on the second input; the
        # output directory is named by another spelling of tmp_path
        a, a_s1 = tmp_path / "a.wav", tmp_path / "a_s1.wav"
        for p in (a, a_s1):
            p.write_bytes(workspace["mix"].read_bytes())
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", str(a), str(a_s1),
                       "--out", str(tmp_path / ".." / tmp_path.name)])
        assert rc == 3
        assert f"overwrite the input {a_s1}" in capsys.readouterr().err
        assert a_s1.read_bytes() == workspace["mix"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "a_s1.wav"]

    # (os.cpu_count(), expected workers for two inputs); never many inputs
    @pytest.mark.parametrize("cpus,workers", [(1, 1), (None, 1), (4, 2)])
    def test_workers_capped_at_cpu_count(self, workspace, tmp_path, monkeypatch,
                                         cpus, workers):
        forks = []
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(cli.os, "fork", recording)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        ins = [tmp_path / "p.wav", tmp_path / "q.wav"]
        for path in ins:
            path.write_bytes(workspace["mix"].read_bytes())
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", *map(str, ins), "--out", str(tmp_path / "out")])
        assert rc == 0
        # one worker separates in process and forks nothing
        assert len(forks) == (workers if workers > 1 else 0)
        assert len(list((tmp_path / "out").glob("*.wav"))) == 4
        assert_no_children()

    @pytest.mark.parametrize("missing_first", [False, True])
    def test_failed_input_leaves_no_stems(self, workspace, tmp_path, capsys,
                                          missing_first):
        good = tmp_path / "good.wav"
        good.write_bytes(workspace["mix"].read_bytes())
        ins = [str(good), str(tmp_path / "missing.wav")]
        if missing_first:
            ins.reverse()
        out = tmp_path / "out"
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", *ins, "--out", str(out)])
        assert rc == 3
        assert "wrote" not in capsys.readouterr().out
        assert list(out.glob("*_s?.wav")) == []

    def test_nonfinite_stems_are_numeric_error(self, workspace, tmp_path,
                                               monkeypatch):
        def separate(self, x):
            return (nm.Tensor(np.full(len(x), np.nan)), nm.Tensor(np.zeros(len(x))))

        monkeypatch.setattr(M.SeparationModel, "separate", separate)
        out = tmp_path / "out"
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", str(workspace["mix"]), "--out", str(out)])
        assert rc == 4
        assert list(out.glob("*")) == []


class TestForkedWorkers:
    """Several inputs run in forked children; each failure removes every
    stem, leaves earlier files untouched and leaves no child behind."""

    SLOW_LEN = 300          # an input of this length sets off the patched fault

    @pytest.fixture
    def inputs(self, workspace, tmp_path, monkeypatch):
        """Forking forced on, and a writer of inputs cut from the mixture."""
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        mix, _ = audio.wav_read(workspace["mix"])

        def make(*lengths):
            paths = []
            for k, n in enumerate(lengths):
                paths.append(tmp_path / f"in{k}.wav")
                audio.wav_write(paths[-1], mix[:n], 8000)
            return paths
        return make

    @staticmethod
    def fault_at(monkeypatch, n, fault):
        """Patch separate to call fault(x) on an input of n samples."""
        real = M.SeparationModel.separate

        def separate(self, x):
            return fault(x) if len(x) == n else real(self, x)
        monkeypatch.setattr(M.SeparationModel, "separate", separate)

    @staticmethod
    def separate(workspace, ins, out):
        return cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                         "--in", *map(str, ins), "--out", str(out)])

    def test_nonfinite_stems_in_a_child_are_numeric_error(self, workspace, tmp_path,
                                                          inputs, monkeypatch,
                                                          capsys):
        self.fault_at(monkeypatch, self.SLOW_LEN, lambda x: (
            nm.Tensor(np.full(len(x), np.nan)), nm.Tensor(np.zeros(len(x)))))
        out = tmp_path / "out"
        assert self.separate(workspace, inputs(480, self.SLOW_LEN), out) == 4
        assert "non-finite" in capsys.readouterr().err
        assert list(out.glob("*")) == []
        assert_no_children()

    def test_missing_wav_in_a_child_is_data_error(self, workspace, tmp_path,
                                                  inputs, capsys):
        out = tmp_path / "out"
        ins = [*inputs(480, 400), tmp_path / "missing.wav"]
        assert self.separate(workspace, ins, out) == 3
        assert "missing.wav" in capsys.readouterr().err
        assert list(out.glob("*")) == []
        assert_no_children()

    def test_other_error_in_a_child_carries_its_traceback(self, workspace, tmp_path,
                                                           inputs, monkeypatch):
        self.fault_at(monkeypatch, self.SLOW_LEN, lambda x: 1 / 0)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="(?s)Traceback.*ZeroDivisionError"):
            self.separate(workspace, inputs(480, self.SLOW_LEN), out)
        assert list(out.glob("*")) == []
        assert_no_children()

    def test_child_killed_mid_separation_fails(self, workspace, tmp_path, inputs,
                                               monkeypatch):
        parent = os.getpid()

        def kill(x):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
        self.fault_at(monkeypatch, self.SLOW_LEN, kill)
        out = tmp_path / "out"
        # an uncaught error: the sepscan command exits 1 with its traceback
        with pytest.raises(RuntimeError, match="killed by signal 9 without reporting"):
            self.separate(workspace, inputs(480, self.SLOW_LEN, 400), out)
        assert list(out.glob("*")) == []
        assert_no_children()

    def test_interrupt_kills_the_children_and_removes_every_stem(
            self, workspace, tmp_path, inputs, monkeypatch):
        # two workers: child 0 separates in0 and then holds on in2 for a
        # minute; child 1 separates in1.  The parent is interrupted once the
        # four stems of in0 and in1 exist.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        self.fault_at(monkeypatch, self.SLOW_LEN, lambda x: time.sleep(60))
        out = tmp_path / "out"
        seen, deadline = [], time.monotonic() + 20

        def interrupt(signum, frame):
            stems = sorted(p.name for p in out.glob("*/*.wav"))
            if len(stems) == 4 or time.monotonic() > deadline:
                signal.setitimer(signal.ITIMER_REAL, 0)
                seen.extend([stems, time.monotonic()])
                raise KeyboardInterrupt

        old = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.02, 0.02)
        try:
            with pytest.raises(KeyboardInterrupt):
                self.separate(workspace, inputs(480, 400, self.SLOW_LEN), out)
            returned = time.monotonic()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        stems, interrupted = seen
        assert stems == ["in0_s1.wav", "in0_s2.wav", "in1_s1.wav", "in1_s2.wav"]
        assert returned - interrupted < 5          # not the held minute
        assert list(out.glob("*")) == []
        assert_no_children()

    def test_success_leaves_exactly_the_stems(self, workspace, tmp_path, inputs):
        out = tmp_path / "out"
        assert self.separate(workspace, inputs(480, 400), out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "in0_s1.wav", "in0_s2.wav", "in1_s1.wav", "in1_s2.wav"]
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 4], ids=["in_process", "forked"])
    def test_failure_leaves_an_earlier_stem_untouched(self, workspace, tmp_path,
                                                      inputs, monkeypatch, cpus):
        # in1 fails late, once in0's stems are written, whatever the order
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)

        def late(x):
            time.sleep(0.5)
            raise DataFormatError("in1: refused late")
        self.fault_at(monkeypatch, self.SLOW_LEN, late)
        out = tmp_path / "out"
        out.mkdir()
        (out / "in0_s1.wav").write_bytes(b"an earlier run")
        assert self.separate(workspace, inputs(480, self.SLOW_LEN), out) == 3
        assert [p.name for p in out.iterdir()] == ["in0_s1.wav"]
        assert (out / "in0_s1.wav").read_bytes() == b"an earlier run"
        assert_no_children()

    def test_directory_in_a_stems_place_publishes_nothing(self, workspace,
                                                          tmp_path, inputs,
                                                          capsys):
        # the last of the four renames fails, after three stems are in place
        out = tmp_path / "out"
        (out / "in1_s2.wav").mkdir(parents=True)
        assert self.separate(workspace, inputs(480, 400), out) == 3
        assert "in1_s2.wav" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["in1_s2.wav"]
        assert list((out / "in1_s2.wav").iterdir()) == []
        assert_no_children()

    def test_a_callers_own_child_keeps_its_status(self, workspace, tmp_path,
                                                  inputs):
        # the caller's child has exited, unreaped, before the workers fork
        own = subprocess.Popen(["sh", "-c", "exit 7"])
        os.waitid(os.P_PID, own.pid, os.WEXITED | os.WNOWAIT)
        assert self.separate(workspace, inputs(480, 400), tmp_path / "out") == 0
        assert own.wait(timeout=10) == 7
        assert_no_children()

    def test_without_fork_inputs_run_in_process(self, workspace, tmp_path, inputs,
                                                monkeypatch):
        monkeypatch.delattr(cli.os, "fork")
        out = tmp_path / "out"
        assert self.separate(workspace, inputs(480, 400), out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "in0_s1.wav", "in0_s2.wav", "in1_s1.wav", "in1_s2.wav"]

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_stems_match_one_input_at_a_time(self, workspace, tmp_path,
                                             monkeypatch, cpus):
        # two workers give child 0 two inputs; four give each input a child
        rng = np.random.default_rng(7)
        ins = []
        for n in (4000, 4003, 7):
            ins.append(tmp_path / f"len{n}.wav")
            audio.wav_write(ins[-1], rng.uniform(-0.5, 0.5, n), 8000)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert self.separate(workspace, ins, tmp_path / "forked") == 0
        assert_no_children()
        for path in ins:
            alone = tmp_path / f"alone_{path.stem}"
            assert self.separate(workspace, [path], alone) == 0
            for k in (1, 2):
                forked = tmp_path / "forked" / f"{path.stem}_s{k}.wav"
                assert forked.read_bytes() == (alone / f"s{k}.wav").read_bytes()


_t = np.arange(400) / 8000
EDGE_INPUTS = {
    "silence": np.zeros(400),
    "constant": np.full(400, 0.25),
    "single_sample": np.array([0.3]),
    "shorter_than_enc_kernel": np.linspace(-0.2, 0.2, 7),     # enc_kernel 16
    "clipped_square": np.where(np.sin(2 * np.pi * 200 * _t) >= 0, 1.0, -1.0),
}


class TestEdgeInputs:
    """Degenerate mixtures still give finite stems of the input's length."""

    @pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
    def test_loaded_model(self, workspace, name):
        x = EDGE_INPUTS[name]
        model = M.SeparationModel.from_checkpoint(workspace["ckpt"])
        for est in model.separate(x):
            assert est.dtype == np.float32 and est.shape == x.shape
            assert np.all(np.isfinite(est.data))

    @pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
    def test_separate_command(self, workspace, tmp_path, name):
        x = EDGE_INPUTS[name]
        mix = tmp_path / f"{name}.wav"
        audio.wav_write(mix, x, 8000)
        out = tmp_path / "out"
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", str(mix), "--out", str(out)])
        assert rc == 0
        for stem in ("s1.wav", "s2.wav"):
            est, _ = audio.wav_read(out / stem)
            assert est.shape == x.shape

    def test_empty_wav_is_data_error(self, workspace, tmp_path):
        mix = tmp_path / "empty.wav"
        audio.wav_write(mix, np.zeros(0), 8000)
        rc = cli.main(["separate", "--ckpt", str(workspace["ckpt"]),
                       "--in", str(mix), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert not (tmp_path / "out" / "s1.wav").exists()


class TestTrainToyCommand:
    def test_trains_and_writes_checkpoint_and_log(self, workspace):
        out = workspace["root"] / "trained.ckpt"
        log = workspace["root"] / "train.csv"
        r = run_cli("train-toy", "--config", str(workspace["cfg"]),
                    "--corpus", str(workspace["corpus"] / "manifest.txt"),
                    "--out", str(out), "--steps", "4", "--warmup", "2",
                    "--log", str(log), "--seed", "1")
        assert r.returncode == 0, r.stderr
        assert out.is_file()
        cfg, arrays = M.load_checkpoint(out)
        assert cfg.d == 4
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "step,lr,loss,si_snri"
        assert len(lines) == 5

    def test_deterministic_given_seed(self, workspace):
        outs = []
        for name in ("det_a.ckpt", "det_b.ckpt"):
            out = workspace["root"] / name
            r = run_cli("train-toy", "--config", str(workspace["cfg"]),
                        "--corpus", str(workspace["corpus"] / "manifest.txt"),
                        "--out", str(out), "--steps", "3", "--warmup", "1",
                        "--seed", "7")
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_unwritable_out_refused_before_the_corpus_is_read(
            self, workspace, tmp_path, capsys, monkeypatch, where):
        def unread(*_args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "_corpus_pairs", unread)
        out = {"missing_parent": tmp_path / "ghost" / "x.ckpt",
               "directory": tmp_path}[where]
        rc = cli.main(["train-toy", "--config", str(workspace["cfg"]),
                       "--corpus", str(workspace["corpus"] / "manifest.txt"),
                       "--out", str(out)])
        assert rc == 3
        assert f"--out {out}: not a file in an existing directory" in \
            capsys.readouterr().err

    def test_unaddressable_config_refused_before_the_corpus_is_read(
            self, workspace, tmp_path, capsys, monkeypatch):
        def unread(*_args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "_corpus_pairs", unread)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"d = {10**200}\nr = 1\nh = 2\n")
        rc = cli.main(["train-toy", "--config", str(cfg),
                       "--corpus", str(workspace["corpus"] / "manifest.txt"),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3
        n = M.count_parameters(M.load_config(cfg))
        assert f"config {cfg}: {n} float64 parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["config", "manifest", "entry"])
    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_output_over_an_input_rejected(self, tmp_path, capsys, flag, target):
        # a corpus of its own, so a regression cannot spoil the shared one
        corpus = tmp_path / "corpus"
        audio.synth_corpus(corpus, num_speakers=2, utts_per_speaker=1,
                           duration_s=0.06, sample_rate=8000, seed=4)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        victim = {"config": cfg, "manifest": corpus / "manifest.txt",
                  "entry": corpus / "spk0_utt0.wav"}[target]
        before = victim.read_bytes()
        paths = {"--out": tmp_path / "x.ckpt", "--log": tmp_path / "x.csv"}
        # another spelling of the input's path
        paths[flag] = victim.parent / ".." / victim.parent.name / victim.name
        rc = cli.main(["train-toy", "--config", str(cfg),
                       "--corpus", str(corpus / "manifest.txt"),
                       "--out", str(paths["--out"]), "--log", str(paths["--log"]),
                       "--steps", "1", "--warmup", "0"])
        assert rc == 3
        assert f"would overwrite the input {victim}" in capsys.readouterr().err
        assert victim.read_bytes() == before
        assert not (tmp_path / "x.ckpt").exists() and not (tmp_path / "x.csv").exists()

    def test_log_over_the_checkpoint_is_usage_error(self, workspace, tmp_path,
                                                    capsys):
        out = tmp_path / "x.ckpt"
        with pytest.raises(SystemExit) as e:
            cli.main(["train-toy", "--config", str(workspace["cfg"]),
                      "--corpus", str(workspace["corpus"] / "manifest.txt"),
                      "--out", str(out), "--log", str(tmp_path / "." / "x.ckpt"),
                      "--steps", "1", "--warmup", "0"])
        assert e.value.code == 2
        assert "argument --log: must not be the --out checkpoint" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_bad_corpus_is_data_error(self, workspace):
        r = run_cli("train-toy", "--config", str(workspace["cfg"]),
                    "--corpus", "ghost_manifest.txt",
                    "--out", str(workspace["root"] / "x.ckpt"))
        assert r.returncode == 3


class TestConstantCorpusFile:
    """A corpus file that is constant over the common trimmed length has no
    SI-SNR to score against: both commands refuse it by name, exit 3."""

    @staticmethod
    def _manifest(workspace, tmp_path, kind):
        n = 480                         # the good files' length, 0.06 s
        wave = {"silent": np.zeros(n), "dc": np.full(n, 0.25),
                "silent_prefix": np.concatenate(
                    [np.zeros(n), 0.5 * np.sin(np.arange(n) * 0.3)])}[kind]
        bad = tmp_path / f"{kind}.wav"
        audio.wav_write(bad, wave, 8000)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(
            f"{p}\n" for p in (workspace["corpus"] / "spk0_utt0.wav", bad,
                               workspace["corpus"] / "spk1_utt0.wav")))
        return manifest, bad

    @pytest.mark.parametrize("kind", ["silent", "dc", "silent_prefix"])
    @pytest.mark.parametrize("command", ["train-toy", "eval"])
    def test_refused_by_name(self, workspace, tmp_path, capsys, command, kind):
        manifest, bad = self._manifest(workspace, tmp_path, kind)
        out = tmp_path / "out.ckpt"
        argv = {"train-toy": ["--config", str(workspace["cfg"]), "--corpus",
                              str(manifest), "--out", str(out), "--steps", "2",
                              "--warmup", "1"],
                "eval": ["--ckpt", str(workspace["ckpt"]), "--manifest",
                         str(manifest)]}[command]
        assert cli.main([command, *argv]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: constant (silent or DC) over the first 480 samples" in err
        assert not out.exists()


class TestCorpusPairs:
    """The pairs are drawn from header lengths; each file's prefix of the
    shortest length is then read once, and only the drawn prefixes are
    kept."""

    @staticmethod
    def _corpus(root, seconds):
        """A WAV per entry of seconds, utterance i % 2 of that length (each
        distinct one synthesized once), and their manifest."""
        root.mkdir()
        blobs = {}
        for i, s in enumerate(seconds):
            if (i % 2, s) not in blobs:
                audio.wav_write(root / "src.wav",
                                audio.synth_utterance(i % 2, s, 8000, seed=5), 8000)
                blobs[i % 2, s] = (root / "src.wav").read_bytes()
            (root / f"f{i}.wav").write_bytes(blobs[i % 2, s])
        (root / "manifest.txt").write_text(
            "".join(f"f{i}.wav\n" for i in range(len(seconds))))
        return root / "manifest.txt"

    @staticmethod
    def _peak(manifest) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            cli._corpus_pairs(manifest, 2, np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_examples_match_reading_every_file_first(self, tmp_path, seed):
        # files longer than the shortest give up only their 1 s prefix
        manifest = self._corpus(tmp_path / "c", [1.0, 1.0, 3.0, 1.0, 2.0, 1.0])
        waves = [audio.wav_read(p)[0][:8000] for p in audio.read_manifest(manifest)]
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(3):
            i, j = rng.choice(len(waves), size=2, replace=False)
            want.append(T.mix_sources(waves[i], waves[j], T.sample_snr(rng)))
        got = cli._corpus_pairs(manifest, 3, np.random.default_rng(seed))
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.mix, w.mix) and g.snr_db == w.snr_db
            assert all(np.array_equal(a, b) for a, b in zip(g.sources, w.sources))

    def test_peak_is_set_by_the_pairs_not_the_files(self, tmp_path):
        """Reading every file before drawing would hold 64 KB per 1 s file,
        12 MB more at 200 files than at 10; only the manifest's paths may
        grow with the file count."""
        peaks = {files: self._peak(self._corpus(tmp_path / str(files), [1.0] * files))
                 for files in (10, 200)}
        assert peaks[200] - peaks[10] < 256_000, peaks

    def test_peak_is_set_by_the_shortest_file_not_the_longest(self, tmp_path):
        """A 60 s file read whole would hold its 0.96 MB of PCM and 3.84 MB
        of float64; past the shortest file's 2 s its data is only counted,
        a block of audio._SKIP_FRAMES (32 KB) at a time."""
        peaks = {name: self._peak(self._corpus(tmp_path / name, seconds))
                 for name, seconds in (("short", [2.0] * 3),
                                       ("long", [2.0, 2.0, 60.0]))}
        assert peaks["long"] - peaks["short"] < 64_000, peaks

    def test_long_file_cut_past_the_prefix_is_data_error(self, workspace,
                                                          tmp_path, capsys):
        manifest = self._corpus(tmp_path / "c", [0.5, 0.5, 3.0])
        cut = manifest.parent / "f2.wav"
        cut.write_bytes(cut.read_bytes()[:-2])
        rc = cli.main(["eval", "--ckpt", str(workspace["ckpt"]),
                       "--manifest", str(manifest)])
        assert rc == 3
        assert f"{cut}: truncated: the header promises 24000 samples" in \
            capsys.readouterr().err


class TestEvalCommand:
    def test_prints_both_metrics(self, workspace):
        r = run_cli("eval", "--ckpt", str(workspace["ckpt"]),
                    "--manifest", str(workspace["corpus"] / "manifest.txt"),
                    "--pairs", "2")
        assert r.returncode == 0, r.stderr
        assert "si_snri" in r.stdout and "sdri" in r.stdout

    def test_prints_the_scores_of_the_seeded_examples(self, workspace, capsys):
        manifest = workspace["corpus"] / "manifest.txt"
        assert cli.main(["eval", "--ckpt", str(workspace["ckpt"]), "--manifest",
                         str(manifest), "--pairs", "2", "--seed", "5"]) == 0
        model = M.SeparationModel.from_checkpoint(workspace["ckpt"])
        examples = cli._corpus_pairs(manifest, 2, np.random.default_rng(5))
        ests = [tuple(e.data for e in model.separate(ex.mix)) for ex in examples]
        perms = [T.best_permutation(est, ex.sources) for est, ex in zip(ests, examples)]
        si, sd = (np.mean([T._improvement(metric, perm, est, ex.sources, ex.mix)
                           for perm, est, ex in zip(perms, ests, examples)])
                  for metric in (T.si_snr_value, T.sdr_value))
        assert capsys.readouterr().out == f"si_snri {si:.2f} dB\nsdri {sd:.2f} dB\n"

    def test_deterministic_given_seed(self, workspace):
        args = ("eval", "--ckpt", str(workspace["ckpt"]),
                "--manifest", str(workspace["corpus"] / "manifest.txt"),
                "--pairs", "2", "--seed", "5")
        assert run_cli(*args).stdout == run_cli(*args).stdout
