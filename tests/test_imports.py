"""Start-up hygiene: ``import kq2.cli`` loads only kq2's own modules, ``math``
and ``__future__``; the modules that only some commands need load in those
commands, and no command loads argparse, re, json or the stdlib they pull in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("dataclasses", "inspect", "typing", "json", "kq2.verify", "kq2.adams")
NEVER = ("argparse", "re", "enum", "gettext", "locale", "shutil", "functools", "collections", "contextlib")
COMMANDS = [
    ["group", "--theory", "KQ-", "--n", "3", "--field", "Q(sqrt 6)"],
    ["regular", "--oracle", "--field", "Q(sqrt 34)"],
    ["table", "--n-max", "8", "--json"],
    ["verify", "--n-max", "16"],
    ["adams", "--q", "5", "--json"],
]

# stdout is swapped by hand: contextlib is one of the modules under watch
PROBE = f"""
import io, sys
before = set(sys.modules)
import kq2.cli
print(sorted(set(sys.modules) - before))
for argv in {COMMANDS!r}:
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = kq2.cli.main(argv)
    finally:
        sys.stdout = out
    print(code, sorted(set({LAZY + NEVER!r}) & set(sys.modules)))
"""


@pytest.fixture(scope="module")
def probe():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_only_kq2_math_and_future(probe):
    added = set(ast.literal_eval(probe[0]))
    assert "kq2.cli" in added
    assert {m for m in added if m != "kq2" and not m.startswith("kq2.")} <= {"math", "__future__"}


def test_cli_start_up_loads_no_lazy_module(probe):
    # group, regular --oracle, table --json, verify, adams --json in turn:
    # kq2.verify and kq2.adams load where used; --json output does not import
    # the json package, which would bring re, enum, functools and collections
    assert probe[1:] == [
        "0 []",
        "0 []",
        "0 []",
        "0 ['kq2.verify']",
        "0 ['kq2.adams', 'kq2.verify']",
    ]
