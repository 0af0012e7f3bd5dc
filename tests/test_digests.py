"""The output contract: every command the benchmark can run exits with its
recorded code and prints exactly the bytes recorded in bench/digests.json.

The commands and the digests are read from bench/ (nothing there is
written, not even bytecode); each command runs in-process through
``cli.main``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from kq2 import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def test_every_benchmark_command_matches_its_recorded_digest():
    workloads = _workloads()
    digests = json.loads((BENCH / "digests.json").read_text())["stdout_sha256"]
    commands = workloads.all_commands()
    assert len(commands) == len(digests)
    mismatches = []
    for argv, expected in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        key = workloads.command_key(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (expected, digests[key]):
            mismatches.append(f"{key}: exit {code} (expected {expected}), digest {digest[:12]}")
    assert not mismatches, mismatches
