"""Start-up hygiene: ``import kq2.cli`` loads none of the modules that only
some commands need, and those commands still import them when they run."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("dataclasses", "inspect", "typing", "json", "kq2.verify", "kq2.adams")

PROBE = f"""
import sys
import kq2.cli
print(sorted(set({LAZY!r}) & set(sys.modules)))
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    codes = [kq2.cli.main(["verify", "--n-max", "16"]), kq2.cli.main(["adams", "--q", "5", "--json"])]
print(codes, sorted(set({LAZY!r}[3:]) - set(sys.modules)))
"""


def test_cli_start_up_loads_no_lazy_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0] []"]
