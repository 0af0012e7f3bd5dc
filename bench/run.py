"""kq2 benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout; nothing has to be installed (kq2 is taken
from ``src/`` through PYTHONPATH) and only the standard library is used::

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --seed 1            # every workload, one row each
    python3 bench/run.py --smoke             # small self-check of the benchmark
    python3 bench/spread.py --seeds 1-10     # run-to-run spread over seeds

Each workload is a closed loop with one client: the next op starts when
the previous one has ended, and one kq2 process runs at a time.  Inputs
come from ``--seed`` only (see workloads.py).

- oracle_sweep: in-process library calls, one process per pass.  An op is
  one field Q(sqrt d), d squarefree and log-uniform in [2, 10^6]; it runs
  is_two_regular and two_regular_oracle, which must agree.
- cli_short: a session of small commands, each a real process running
  kq2.cli as ``python -m kq2.cli`` does (see launch_cli), so interpreter
  start-up and imports count.
- cli_heavy: a seeded session of large commands, through ``kq2.cli.main``
  with stdout captured, one fresh process (child.py) per pass; start-up is
  not timed.

End-to-end metrics (``--trace 0``, tracing off): setup_s, the best wall
time of fresh interpreters importing kq2.cli; ops_per_s and op_p50_ms, from
each slot's best latency over the passes (see slot_latencies);
peak_rss_mb, the largest peak RSS (VmHWM) of a process running kq2.  The table
also shows op_tail_ms (the highest listed percentile with at least ten
samples beyond it, where there are enough ops) and failed_frac.  An op
fails on a timeout, a wrong exit code, stdout that differs from
bench/digests.json (recorded by record_digests.py), a verify report with
a failing check, or an oracle verdict that disagrees with the criterion.

``--trace 1`` runs a fixed reference slice of the workload in-process twice,
untraced and then traced (tracer.py wraps kq2's public functions from
outside), requires both to give the same outputs byte for byte, and prints
the per-layer metrics, import times from ``-X importtime`` and the tracing
overhead.

Every process that runs kq2 gets the fixed environment of child_env() and
the interpreter flags PY_FLAGS; the ``# env`` line records them with the
interpreter, nproc, commit and seed.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
PY = sys.executable
# -S skips site: a site .pth hook of the host interpreter can cost more
# than importing kq2, and kq2 needs nothing from site-packages.
PY_FLAGS = ("-S",)

WORKLOADS = ("oracle_sweep", "cli_short", "cli_heavy")
OP_TIMEOUT_S = {"oracle_sweep": 10.0, "cli_short": 20.0, "cli_heavy": 60.0}
# No op starts later than this after a workload starts, so a run ends
# well within three minutes even if kq2 gets much slower.
HARD_SECONDS = 140.0
# Passes in the fixed reference slice of each workload that --trace 1 runs
# (one pass with --smoke).
REFERENCE_PASSES = {"oracle_sweep": 2, "cli_short": 1, "cli_heavy": 1}
# Fresh interpreters timed for setup_s before and again after the work,
# and one more between ops every SETUP_EVERY_S, so that the samples cover
# the whole run; setup_s is the best of them, for the reason given in
# slot_latencies.
SETUP_REPS = 8
SETUP_EVERY_S = 1.0
IMPORTTIME_REPS = 5
TAIL_PERCENTILES = (90, 95, 99, 99.5, 99.9)
TABLE_COLUMNS = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "failed_frac")
# Table columns that are not BENCHMARK.json metrics: op_tail_ms is not
# defined on a workload with too few ops, and failed_frac is 0 on correct
# code, so no relative bound fits it; the result line carries it as
# failed/attempted.
TABLE_ONLY = ("op_tail_ms", "failed_frac")
KQ2_MODULES = ("kq2", "abgroup", "adams", "cli", "errors", "fields", "numtheory", "tables", "verify")


class BenchError(Exception):
    """The benchmark cannot run (no program, or a worker crashed)."""


def child_env() -> dict:
    """The fixed environment of every process that runs kq2."""
    return {
        "PYTHONPATH": str(ROOT / "src"),
        # a bytecode cache of the benchmark's own, written by the first run
        "PYTHONPYCACHEPREFIX": str(BENCH / ".pycache"),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
    }


def run_child(argv, timeout, out_path, err_path):
    """Run one process to the end; return (exit code or None on timeout,
    wall seconds)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timed_out = False

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), wall


def launch_cli(hwm_path) -> str:
    """Code for ``python -c`` that runs ``python -m kq2.cli`` and, at exit,
    writes its peak RSS in MB to ``hwm_path``.

    The peak is VmHWM, that of the process's own address space: ru_maxrss
    of a spawned process also counts the RSS of the harness that spawned it.
    """
    return ("import atexit, runpy\n"
            "def report():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        kb = next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
            f"    with open({str(hwm_path)!r}, 'w') as fh:\n"
            "        fh.write(str(kb / 1024))\n"
            "atexit.register(report)\n"
            "runpy.run_module('kq2.cli', run_name='__main__', alter_sys=True)\n")


def spawn_walls(code: str, reps: int, flags=(), warmups=1) -> list[float]:
    """Wall times of fresh interpreters running ``code``, after ``warmups``
    untimed ones."""
    walls = []
    for i in range(warmups + reps):
        exit_code, wall = run_child([PY, *PY_FLAGS, *flags, "-c", code], 60,
                                       WORK / "spawn.out", WORK / "spawn.err")
        if exit_code != 0:
            raise BenchError(f"{code!r} failed: {(WORK / 'spawn.err').read_text()[-500:]}")
        if i >= warmups:
            walls.append(wall)
    return walls


def startup_layers() -> dict:
    interp = min(spawn_walls("pass", 2 * SETUP_REPS))
    imported = min(spawn_walls("import kq2.cli", 2 * SETUP_REPS))
    self_us = {m: [] for m in KQ2_MODULES}
    other_us = []
    for _ in range(IMPORTTIME_REPS):
        spawn_walls("import kq2.cli", 0, ("-X", "importtime"))
        rows = {}
        for line in (WORK / "spawn.err").read_text().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                rows[m.group(4)] = (int(m.group(1)), int(m.group(2)), len(m.group(3)) // 2)
        listed = 0
        for mod in KQ2_MODULES:
            us = rows.get(mod if mod == "kq2" else f"kq2.{mod}", (0, 0, 0))[0]
            self_us[mod].append(us)
            listed += us
        # the cumulative time of the top-level kq2 rows covers the whole
        # import of kq2.cli, whether or not the package row nests under it
        total = sum(c for name, (_, c, level) in rows.items()
                    if level == 0 and name.partition(".")[0] == "kq2")
        other_us.append(total - listed)
    out = {
        "startup.interpreter_ms": (interp * 1e3, "ms"),
        "startup.import_kq2_ms": ((imported - interp) * 1e3, "ms"),
    }
    for mod in KQ2_MODULES:
        out[f"import.{mod}_ms"] = (statistics.median(self_us[mod]) / 1e3, "ms")
    out["import.other_ms"] = (statistics.median(other_us) / 1e3, "ms")
    return out


def run_worker(req: dict, timeout: float):
    """Run bench/child.py on one request; return (its result or None if it
    died or timed out, peak RSS in MB)."""
    result_path = WORK / "child.json"
    if result_path.exists():
        result_path.unlink()
    req = {**req, "out": str(result_path)}
    code, _ = run_child([PY, *PY_FLAGS, str(BENCH / "child.py"), json.dumps(req)],
                        timeout, WORK / "child.out", WORK / "child.err")
    if code != 0 or not result_path.exists():
        return None, 0.0
    result = json.loads(result_path.read_text())
    return result, result["peak_rss_mb"]


def run_workload(workload, seed, seconds, deadline, passes=None, traced=False, smoke=False,
                 before_op=None):
    """Run a workload for ``seconds`` (or a fixed number of passes); return
    the op records, the merged trace and the peak RSS in MB of the
    processes that ran kq2.  ``before_op()``, if given, runs before each op."""
    exports = []
    peak = [0.0]

    def worker_op(req, timeout):
        result, rss_mb = run_worker({**req, "trace": traced}, timeout + 20)
        peak[0] = max(peak[0], rss_mb)
        if result is not None and traced:
            exports.append(result["trace"])
        return result

    def batch_op(cmds, left):
        """Run CLI commands in turn in one worker."""
        result = worker_op({"kind": "cli", "cmds": cmds, "op_timeout": OP_TIMEOUT_S[workload],
                            "hard_seconds": left}, left)
        if result is None:
            return [workloads.cli_record(argv, expected, left, None, b"", "worker died or timed out")
                    for argv, expected in cmds]
        return result["records"]

    def short_op(argv, expected, left):
        # End to end, cli_short times real processes; a fixed reference slice
        # runs in-process, so that its traced and untraced timings compare.
        if passes is not None:
            return batch_op([(argv, expected)], left)
        out_path = WORK / "cmd.out"
        hwm_path = WORK / "cmd.hwm"
        hwm_path.unlink(missing_ok=True)
        code, wall = run_child([PY, *PY_FLAGS, "-c", launch_cli(hwm_path), *argv],
                               min(OP_TIMEOUT_S[workload], left), out_path, WORK / "cmd.err")
        if hwm_path.exists():
            peak[0] = max(peak[0], float(hwm_path.read_text()))
        return [workloads.cli_record(argv, expected, wall, code, out_path.read_bytes())]

    def heavy_pass_op(index, expected, left):
        return batch_op([(argv, code) for _, argv, code in workloads.heavy_pass(seed, index, smoke)], left)

    def oracle_pass_op(index, expected, left):
        result = worker_op({"kind": workload, "seed": seed, "pass": index,
                            "op_timeout": OP_TIMEOUT_S[workload], "hard_seconds": left}, left)
        if result is None:
            raise BenchError(f"oracle_sweep worker failed: {(WORK / 'child.err').read_text()[-2000:]}")
        return result["records"]

    if workload == "cli_short":
        def make_pass(i):
            return workloads.short_round(seed, i)
        op = short_op
    else:
        # one op of the loop is a whole pass in one worker; its records carry their slots
        def make_pass(i):
            return [(None, i, None)]
        op = oracle_pass_op if workload == "oracle_sweep" else heavy_pass_op
    records = workloads.closed_loop(make_pass, op, passes, seconds, deadline, before_op)
    return records, (tracer.merge(exports) if traced else None), peak[0]


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text())["stdout_sha256"]


def op_failure(rec, digests):
    """Why an op failed, or None if its output is correct."""
    if rec["error"]:
        return rec["error"]
    if isinstance(rec["op"], int):  # an oracle_sweep field
        return None
    if rec["exit"] != rec["expected"]:
        return f"exit code {rec['exit']}, expected {rec['expected']}"
    if digests.get(rec["op"]) != rec["sha256"]:
        return "stdout differs from the recorded digest"
    if rec["op"].startswith("verify") and rec["expected"] == 0 and not rec["checks_ok"]:
        return "verify reported a failing check"
    return None


def failures(records, digests):
    out = []
    for rec in records:
        why = op_failure(rec, digests)
        if why:
            out.append(f"{rec['op']}: {why}")
    return out


def tail(latencies):
    """(percentile, value) for the highest listed percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    lat = sorted(latencies)
    n = len(lat)
    for p in reversed(TAIL_PERCENTILES):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, lat[rank - 1]
    return None


def slot_latencies(records) -> list[float]:
    """Each slot's best latency over the passes of a run.

    Every slot repeats one input in every pass (a CLI command, or a field
    in a fresh oracle_sweep process).  On a shared machine the CPU speed
    drifts: for seconds or minutes at a time ops run up to half as slow
    again, and that noise only adds time, so a slot takes its best time
    over the passes, as timeit does.
    """
    best: dict = {}
    for r in records:
        best[r["slot"]] = min(best.get(r["slot"], math.inf), r["latency_s"])
    return list(best.values())


def end_to_end(workload, seed, seconds, smoke, digests, deadline):
    setup = spawn_walls("import kq2.cli", SETUP_REPS)
    next_probe = [time.perf_counter() + SETUP_EVERY_S]

    def probe():
        if time.perf_counter() >= next_probe[0]:
            setup.extend(spawn_walls("import kq2.cli", 1, warmups=0))
            next_probe[0] = time.perf_counter() + SETUP_EVERY_S

    records, _, rss_mb = run_workload(workload, seed, seconds, deadline, smoke=smoke, before_op=probe)
    setup += spawn_walls("import kq2.cli", SETUP_REPS)
    setup_s = min(setup)
    failed = failures(records, digests)
    lat = [r["latency_s"] for r in records]
    typical = slot_latencies(records)
    metrics = {
        # setup_s: wall time for a fresh interpreter to import kq2.cli
        "setup_s": (setup_s, "s"),
        # ops per second of a pass in which every op takes its slot's typical latency
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    t = tail(lat)
    tail_text = "n/a" if t is None else f"{t[1] * 1e3:.4g} ms (p{t[0]:g}, n={len(lat)})"
    row = [workload, f"{setup_s:.4f} s", f"{metrics['ops_per_s'][0]:.4g} 1/s",
           f"{metrics['op_p50_ms'][0]:.4g} ms", tail_text, f"{rss_mb:.1f} MB",
           f"{len(failed) / len(records):.4f} ({len(failed)}/{len(records)})"]
    return metrics, len(records), failed, row


def per_layer(workload, seed, smoke, digests, deadline):
    passes = 1 if smoke else REFERENCE_PASSES[workload]
    layers = startup_layers()
    plain, _, _ = run_workload(workload, seed, None, deadline, passes, traced=False, smoke=smoke)
    traced, trace, _ = run_workload(workload, seed, None, deadline, passes, traced=True, smoke=smoke)
    failed = failures(traced, digests)
    if len(plain) != len(traced):
        failed.append(f"traced run did {len(traced)} ops, untraced {len(plain)}")
    for a, b in zip(plain, traced):
        if (a["op"], a["exit"], a["sha256"]) != (b["op"], b["exit"], b["sha256"]):
            failed.append(f"{b['op']}: traced output differs from untraced output")
    fields = trace["stats"].get("fields.two_regular_oracle", [0])[0]
    adams_ops = sum(1 for r in traced if str(r["op"]).startswith("adams"))
    stdout_bytes = 0 if workload == "oracle_sweep" else sum(r["bytes"] for r in traced)
    layers.update(tracer.layer_metrics(trace, len(traced), fields, adams_ops, stdout_bytes))
    # each slot at its best over the passes, as the end-to-end metrics take it
    plain_s = sum(slot_latencies(plain))
    traced_s = sum(slot_latencies(traced))
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    info = f"{workload}: reference slice of {len(traced)} ops, sum of best per slot untraced " \
           f"{plain_s:.3f} s, traced {traced_s:.3f} s, overhead {traced_s - plain_s:.3f} s"
    return layers, len(traced), failed, info


def environment(seed) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kq2").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    env = {k: v.replace(str(ROOT), "<checkout>") for k, v in child_env().items()}
    return {"python": f"{platform.python_implementation()} {platform.python_version()}",
            "flags": list(PY_FLAGS), "child_env": env, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit, "src_sha256": src.hexdigest(), "seed": seed}


def result_line(metrics, attempted, failed) -> str:
    return json.dumps({
        "correct": not failed and attempted > 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def print_rows(rows):
    rows = [["workload", *TABLE_COLUMNS]] + rows
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def run_one(workload, seed, seconds, trace, smoke, digests):
    """Run one workload; print its per-layer lines or return its table row."""
    deadline = time.perf_counter() + HARD_SECONDS
    row = None
    if trace:
        metrics, attempted, failed, info = per_layer(workload, seed, smoke, digests, deadline)
        print(f"# {info}")
        for name, (value, unit) in metrics.items():
            print(f"{workload}  {name}  {value:.6g} {unit}")
    else:
        metrics, attempted, failed, row = end_to_end(workload, seed, seconds, smoke, digests, deadline)
    for why in failed[:20]:
        print(f"# FAILED {workload}: {why}")
    return metrics, attempted, failed, row


def smoke(seed) -> int:
    """Small run of every workload in both modes; checks metric names
    against BENCHMARK.json and traced against untraced outputs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    digests = load_digests()
    undeclared = set(TABLE_COLUMNS) - set(TABLE_ONLY) - {m["name"] for m in spec["end_to_end"]}
    if undeclared:
        problems.append(f"table columns not in BENCHMARK.json: {sorted(undeclared)}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"] for m in spec[key]}
        rows = []
        for workload in WORKLOADS:
            metrics, attempted, failed, row = run_one(workload, seed, 1, trace, True, digests)
            rows.append(row)
            printed = set(metrics)
            if printed != declared:
                problems.append(f"{workload} --trace {trace}: printed but not in BENCHMARK.json "
                                f"{sorted(printed - declared)}, declared but not printed "
                                f"{sorted(declared - printed)}")
            problems += [f"{workload} --trace {trace}: {why}" for why in failed]
        if not trace:
            print_rows(rows)
    for p in problems:
        print(f"# SMOKE PROBLEM {p}")
    print("# smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="omit to run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small self-check of the benchmark")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through run_child, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "kq2" / "cli.py").is_file():
        print(f"error: no kq2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    try:
        if args.smoke:
            return smoke(args.seed)
        digests = load_digests()
        results = {w: run_one(w, args.seed, args.seconds, args.trace, False, digests)
                   for w in ([args.workload] if args.workload else WORKLOADS)}
        if not args.trace:
            print_rows([r[3] for r in results.values()])
        if args.workload:
            print(result_line(*results[args.workload][:3]))
        else:
            print(json.dumps({w: json.loads(result_line(*r[:3])) for w, r in results.items()}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
