"""Shared pytest wiring: the acceptance report, printed after capture
ends, and the writer of checkpoints in the formats the reader refuses."""

import numpy as np
import pytest

import sepscan.model as M

# One line per acceptance criterion, appended by tests/test_acceptance.py.
# Printed in the terminal summary because output capture would otherwise
# swallow in-test prints for passing tests.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def _old_format_checkpoint(model, version: int) -> bytes:
    """model as a format-1 or format-2 file: its config (plus the front-end
    keys in format 1), one record per parameter under [params] (with its
    offset in format 1), then [data] N and the float32 payload."""
    config = M.config_to_text(model.config).rstrip("\n").split("\n")
    if version == 1:
        config += ["enc_kernel = 16", "enc_stride = 8", "num_speakers = 2",
                   "sample_rate = 8000"]
    records, off = [], 0
    for name, p in model.params.items():
        shape = ",".join(str(n) for n in p.shape)
        records.append(f"{name} {shape} {off}" if version == 1 else f"{name} {shape}")
        off += p.size
    header = "\n".join([f"sepscan-checkpoint {version}", "[config]", *config,
                        "[params]", *records, f"[data] {off}"]) + "\n"
    payload = b"".join(np.asarray(p.data, "<f4").tobytes()
                       for p in model.params.values())
    return header.encode("ascii") + payload


@pytest.fixture
def old_format_checkpoint():
    return _old_format_checkpoint
