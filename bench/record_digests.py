"""Record the stdout digest of every command the CLI workloads can run.

Usage: python3 bench/record_digests.py

Runs each command once as ``python -S -m kq2.cli``, requires its pool exit
code, and writes bench/digests.json.  Run it only on a commit whose CLI
output is known to be right; the benchmark then fails any op whose stdout
differs from the recorded digest.
"""

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    digests, bad = {}, []
    for argv, expected in workloads.all_commands():
        code, _ = run.run_child([run.PY, *run.PY_FLAGS, "-m", "kq2.cli", *argv], 120,
                                   run.WORK / "cmd.out", run.WORK / "cmd.err")
        key = workloads.command_key(argv)
        if code != expected:
            bad.append(f"{key}: exit {code}, expected {expected}")
        digests[key] = hashlib.sha256((run.WORK / "cmd.out").read_bytes()).hexdigest()
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    with open(run.BENCH / "digests.json", "w") as fh:
        json.dump({"stdout_sha256": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
