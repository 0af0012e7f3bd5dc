"""Run kq2 in-process, in a fresh process, for one benchmark request.

Usage: python -S bench/child.py REQUEST_JSON

kq2 is imported (and, with ``"trace": true``, wrapped by tracer.py) before
any timing starts.  A request is one of:

- ``{"kind": "cli", "cmds": [[argv, expected exit code], ...], ...}``: kq2
  commands in turn, each through ``kq2.cli.main(argv)`` with stdout and
  stderr captured.  An op's latency covers ``main`` only, so interpreter
  start-up is excluded.
- ``{"kind": "oracle_sweep", "seed": 1, "pass": 0, ...}``: one pass over
  the seed's fields, each op running is_two_regular and two_regular_oracle
  on one Q(sqrt d).  A pass runs every d once and each pass gets a fresh
  process, so no cache inside kq2 sees the same d twice.

Every op gets at most ``op_timeout`` seconds and none starts after
``hard_seconds``.  The records and the trace go to ``req["out"]`` as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import sys
import time

import workloads


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so kq2 cannot catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def timed(fn, timeout):
    """(result, seconds, error) of fn() under a timeout."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            return fn(), time.perf_counter() - t0, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, time.perf_counter() - t0, "timeout"
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"


def cli_op(cli, argv, expected, timeout) -> dict:
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(list(argv))

    code, latency, error = timed(call, timeout)
    return workloads.cli_record(argv, expected, latency, code, out.getvalue().encode(), error)


def cli_pass(cli, req, tracer) -> list[dict]:
    records = []
    end = time.perf_counter() + req["hard_seconds"]
    for argv, expected in req["cmds"]:
        left = end - time.perf_counter()
        if left <= 0:
            break
        if tracer:
            tracer.begin_op()
        records.append({"slot": workloads.command_key(argv),
                        **cli_op(cli, argv, expected, min(req["op_timeout"], left))})
    return records


def oracle_pass(fields, req, tracer) -> list[dict]:
    records = []
    end = time.perf_counter() + req["hard_seconds"]
    for slot, d in workloads.oracle_pass(req["seed"], req["pass"]):
        left = end - time.perf_counter()
        if left <= 0:
            break
        if tracer:
            tracer.begin_op()

        def call():
            spec = fields.RealQuadratic(d)
            crit = fields.is_two_regular(spec)
            inv = fields.two_regular_oracle(spec)
            return crit, inv

        result, latency, error = timed(call, min(req["op_timeout"], left))
        out = repr(result).encode()
        if error is None and result[0][0] != result[1].two_regular:
            error = "oracle verdict disagrees with the criterion"
        records.append({"slot": slot, "op": d, "expected": None, "latency_s": latency, "exit": None,
                        "error": error, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out),
                        "checks_ok": False})
    return records


def main() -> None:
    req = json.loads(sys.argv[1])
    import kq2.cli
    import kq2.fields

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    if req["kind"] == "cli":
        records = cli_pass(kq2.cli, req, tracer)
    else:
        records = oracle_pass(kq2.fields, req, tracer)
    with open(req["out"], "w") as fh:
        json.dump({"records": records, "trace": tracer.export() if tracer else None,
                   "peak_rss_mb": workloads.vm_hwm_mb()}, fh)


if __name__ == "__main__":
    main()
