"""Seeded inputs for the kq2 benchmark workloads.

Every input is a pure function of the workload seed; kq2 only ever sees
the generated field numbers and argv lists.  The draws are stratified so
that two seeds give different inputs with the same mix of cost, which keeps
the run-to-run spread of the end-to-end metrics small.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shlex
import time

D_MAX = 10**6
# Strata of the log-uniform draw of oracle fields.
ORACLE_STRATA = 64
# The classes of a squarefree d mod 8, each holding a sixth of them.  The
# class sets the discriminant (d or 4d) and the dyadic case, so each stratum
# takes one field of every class and the mix of cost is the same for all seeds.
SQUAREFREE_RESIDUES = (1, 2, 3, 5, 6, 7)

THEORIES = (
    "K", "KQ+", "KQ-", "V+", "V-", "U+", "U-",
    "W", "W'", "W1",
    "Kbar", "KQbar+", "KQbar-", "Vbar+", "Vbar-",
    "KO", "KU", "KFq", "KQFq+", "KQFq-",
)
DEGREELESS = ("W", "W'", "W1")
DEGREE_THEORIES = tuple(t for t in THEORIES if t not in DEGREELESS)

# 2-regular fields from every family the CLI parses.
REGULAR_FIELDS = (
    "Q",
    "Q(sqrt 2)", "Q(sqrt 3)", "Q(sqrt 5)", "Q(sqrt 6)", "Q(sqrt 10)",
    "Q(sqrt 11)", "Q(sqrt 13)", "Q(sqrt 19)", "Q(sqrt 22)",
    "Q(zeta 2^3)+", "Q(zeta 2^4)+", "Q(zeta 2^5)+", "Q(zeta 16)+",
    "Q(zeta 3)+", "Q(zeta 5)+", "Q(zeta 9)+", "Q(zeta 11)+", "Q(zeta 13)+",
    "Q(zeta 25)+", "Q(zeta 27)+",
    "generic r=2 a=2 regular", "generic r=3 a=4 regular", "generic r=2 a=3",
)
# Fields the regularity commands accept whatever their verdict.
ANY_FIELDS = REGULAR_FIELDS + (
    "Q(sqrt 7)", "Q(sqrt 14)", "Q(sqrt 15)", "Q(sqrt 17)", "Q(sqrt 34)",
    "Q(sqrt 41)", "Q(sqrt 105)", "Q(zeta 29)+", "Q(zeta 37)+",
)

# Commands that must fail, with their exit code (1 usage, 2 domain error).
ERROR_COMMANDS = (
    (("group", "--theory", "FOO", "--n", "1"), 1),
    (("group", "--theory", "K", "--n", "1", "--field", "Q(foo)"), 1),
    (("group", "--theory", "K", "--n", "-1"), 1),
    (("regular", "--oracle", "--field", "Q(zeta 2^4)+"), 1),
    (("table", "--n-max", "8", "--theories", "W"), 1),
    (("frobnicate",), 1),
    (("group", "--theory", "K", "--n", "1", "--field", "Q(sqrt 7)"), 2),
    (("group", "--theory", "K", "--n", "1", "--field", "Q(sqrt 4)"), 2),
    (("group", "--theory", "KQ+", "--n", "3", "--field", "Q(zeta 7)+"), 2),
    (("table", "--n-max", "8", "--field", "Q", "--q", "7"), 2),
    (("verify", "--field", "Q(sqrt 14)"), 2),
    (("adams", "--q", "4"), 2),
)

_ALL_DEGREE = ",".join(DEGREE_THEORIES)

# The cli_heavy commands of --smoke, smaller than any the seeds draw.
HEAVY_SMOKE = (
    ("table", "--json", "--n-max", "100", "--theories", _ALL_DEGREE, "--field", "Q(zeta 11)+"),
    ("table", "--n-max", "100", "--theories", _ALL_DEGREE, "--field", "Q(sqrt 6)"),
    ("verify", "--n-max", "200", "--field", "Q(zeta 11)+"),
    ("regular", "--oracle", "--field", "Q(sqrt 9973)"),
    ("adams", "--q", "101"),
)


def command_key(argv) -> str:
    """The shell spelling of an argv; it keys the recorded digests."""
    return " ".join(shlex.quote(a) for a in argv)


def is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def _cell_field(rng, a: int, b: int, residue: int) -> int | None:
    """A squarefree d = residue mod 8 drawn uniformly from [a, b], or None
    if the cell holds none."""
    cands = range(a + (residue - a) % 8, b + 1, 8)
    if len(cands) <= 100:
        squarefree = [d for d in cands if is_squarefree(d)]
        return rng.choice(squarefree) if squarefree else None
    for _ in range(100):
        d = rng.choice(cands)
        if is_squarefree(d):
            return d
    return next(d for d in cands if is_squarefree(d))


def oracle_fields(seed: int) -> list[tuple[int, int]]:
    """The (slot, d) of an oracle_sweep seed: one squarefree d in [2, D_MAX]
    per log-uniform stratum and class mod 8.  The cells that hold a field
    do not depend on the seed."""
    rng = random.Random(f"oracle_sweep:{seed}")
    lo, hi = math.log(2), math.log(D_MAX + 1)
    width = (hi - lo) / ORACLE_STRATA
    out = []
    for stratum in range(ORACLE_STRATA):
        a = max(2, math.ceil(math.exp(lo + stratum * width)))
        b = min(D_MAX, math.ceil(math.exp(lo + (stratum + 1) * width)) - 1)
        for residue in SQUAREFREE_RESIDUES:
            d = _cell_field(rng, a, b, residue)
            if d is not None:
                out.append((8 * stratum + residue, d))
    return out


def oracle_pass(seed: int, index: int) -> list[tuple[int, int]]:
    """Pass ``index`` of oracle_sweep: the seed's fields in a new seeded order."""
    fields = oracle_fields(seed)
    random.Random(f"oracle_sweep:{seed}:{index}").shuffle(fields)
    return fields


def _short_pool() -> dict[str, list[tuple[tuple[str, ...], int]]]:
    """The fixed pool of small commands, by category, with exit codes."""
    rng = random.Random("cli_short:pool")
    pool: dict[str, list] = {k: [] for k in
                             ("group", "find-q", "regular", "oracle", "table", "verify", "adams", "error")}
    for i, theory in enumerate(THEORIES):
        for j in range(6):
            field = REGULAR_FIELDS[(5 * i + 7 * j) % len(REGULAR_FIELDS)]
            argv = ["group", "--theory", theory]
            if theory not in DEGREELESS:
                n = -1 if theory in ("KQ+", "KQ-") and j == 0 else rng.randrange(0, 40)
                argv += ["--n", str(n)]
            argv += ["--field", field]
            if j % 2:
                argv.append("--json")
            pool["group"].append((tuple(argv), 0))
    for i, field in enumerate(REGULAR_FIELDS):
        pool["find-q"].append((("find-q", "--field", field) + (("--json",) if i % 3 == 0 else ()), 0))
    for i, field in enumerate(ANY_FIELDS):
        pool["regular"].append((("regular", "--field", field) + (("--json",) if i % 3 == 1 else ()), 0))
    lo, hi = math.log(2), math.log(10**4)
    while len(pool["oracle"]) < 40:
        d = int(math.exp(rng.uniform(lo, hi)))
        cmd = (("regular", "--oracle", "--field", f"Q(sqrt {d})") + (("--json",) if d % 2 else ()), 0)
        if d >= 2 and is_squarefree(d) and cmd not in pool["oracle"]:
            pool["oracle"].append(cmd)
    for i in range(32):
        field = REGULAR_FIELDS[(3 * i) % len(REGULAR_FIELDS)]
        theories = rng.sample(DEGREE_THEORIES, rng.randrange(1, 8))
        argv = ("table", "--n-max", str(rng.randrange(8, 65)), "--theories", ",".join(theories),
                "--field", field)
        pool["table"].append((argv + (("--json",) if i % 4 == 0 else ()), 0))
    for i, field in enumerate(REGULAR_FIELDS):
        pool["verify"].append((("verify", "--n-max", "64", "--field", field)
                               + (("--json",) if i % 4 == 2 else ()), 0))
    for q in range(3, 102, 2):
        argv = ("adams", "--q", str(q))
        extra = {0: (), 1: ("--json",), 2: ("--dump-coeffs",)}[q % 3]
        pool["adams"].append((argv + extra, 0))
    pool["error"] = list(ERROR_COMMANDS)
    return pool


def _heavy_pool() -> dict[str, list[tuple[tuple[str, ...], int]]]:
    """The fixed pool of large commands, by kind and size; all exit 0.

    Each takes some 20-90 ms in-process.  Commands of several seconds would
    each take the speed of the minute they run in on a shared machine,
    which best-of-passes cannot remove; these let a run repeat every
    command some thirty times.  A seed draws only the field or d of each
    command, so every seed runs the same mix of sizes.
    """
    rng = random.Random("cli_heavy:pool")
    pool: dict[str, list] = {}
    for n in ("120", "160", "200"):
        pool[f"table-json {n}"] = [(("table", "--json", "--n-max", n, "--theories", _ALL_DEGREE,
                                     "--field", field), 0) for field in REGULAR_FIELDS]
        pool[f"table {n}"] = [(("table", "--n-max", n, "--theories", _ALL_DEGREE, "--field", field), 0)
                              for field in REGULAR_FIELDS]
    for n in ("250", "300", "350"):
        pool[f"verify {n}"] = [(("verify", "--n-max", n, "--field", field), 0) for field in REGULAR_FIELDS]
    # d log-uniform in [10^5, 10^6] by strata, one class mod 8 per stratum
    width = math.log(10) / len(SQUAREFREE_RESIDUES)
    for k, residue in enumerate(SQUAREFREE_RESIDUES):
        cands = pool[f"oracle {k}"] = []
        while len(cands) < 8:
            d = int(10**5 * math.exp((k + rng.random()) * width))
            d -= (d - residue) % 8
            cmd = (("regular", "--oracle", "--field", f"Q(sqrt {d})"), 0)
            if is_squarefree(d) and cmd not in cands:
                cands.append(cmd)
    for q in ("401", "441", "481", "521", "561", "601"):
        pool[f"adams {q}"] = [(("adams", "--q", q), 0), (("adams", "--q", q, "--json"), 0)]
    return pool


SHORT_POOL = _short_pool()
# Commands per category in a cli_short session.
SHORT_MIX = {"group": 3, "find-q": 1, "regular": 1, "oracle": 1, "table": 1,
             "verify": 1, "adams": 1, "error": 1}
HEAVY_POOL = _heavy_pool()
# Commands per category in a cli_heavy pass: 6 JSON tables, 4 text tables,
# 8 verify, 6 oracle and 6 adams commands.
HEAVY_MIX = {"table-json 120": 2, "table-json 160": 2, "table-json 200": 2,
             "table 120": 1, "table 160": 2, "table 200": 1,
             "verify 250": 3, "verify 300": 2, "verify 350": 3,
             **{f"oracle {k}": 1 for k in range(len(SQUAREFREE_RESIDUES))},
             **{f"adams {q}": 1 for q in ("401", "441", "481", "521", "561", "601")}}


def session(workload: str, pool, mix, seed: int, index: int) -> list[tuple[str, tuple[str, ...], int]]:
    """Pass ``index`` of a seeded CLI session: (slot, argv, exit code).

    The seed draws the session's commands, a fixed mix of categories from
    the pool; each pass runs all of them again in a new order.
    """
    rng = random.Random(f"{workload}:{seed}")
    cmds = [cmd for category, count in mix.items() for cmd in rng.sample(pool[category], count)]
    random.Random(f"{workload}:{seed}:{index}").shuffle(cmds)
    return [(command_key(argv), argv, expected) for argv, expected in cmds]


def short_round(seed: int, index: int) -> list[tuple[str, tuple[str, ...], int]]:
    """Round ``index`` of the cli_short session.  Every command is a fresh
    process, so repeating one shares nothing but the bytecode cache."""
    return session("cli_short", SHORT_POOL, SHORT_MIX, seed, index)


def heavy_pass(seed: int, index: int, smoke: bool = False) -> list[tuple[str, tuple[str, ...], int]]:
    """Pass ``index`` of cli_heavy.  A pass runs in one fresh process and
    runs each command once, so no command finds its own result cached."""
    if smoke:
        return [(command_key(argv), argv, 0) for argv in HEAVY_SMOKE]
    return session("cli_heavy", HEAVY_POOL, HEAVY_MIX, seed, index)


def all_commands() -> list[tuple[tuple[str, ...], int]]:
    """Every command any seed can draw, for recording digests."""
    out = [cmd for pool in (SHORT_POOL, HEAVY_POOL) for cmds in pool.values() for cmd in cmds]
    return out + [(argv, 0) for argv in HEAVY_SMOKE]


def cli_record(argv, expected, latency, code, out: bytes, error=None) -> dict:
    """The record of one CLI op; ``code`` is None when the op timed out."""
    return {
        "op": command_key(argv), "expected": expected, "latency_s": latency, "exit": code,
        "error": error or (None if code is not None else "timeout"),
        "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out),
        "checks_ok": argv[0] == "verify" and code == 0 and verify_passed(argv, out),
    }


def verify_passed(argv, out: bytes) -> bool:
    """Whether a verify command's stdout reports every check as passed."""
    if "--json" in argv:
        try:
            results = json.loads(out)["results"]
            return bool(results) and all(r["passed"] for r in results)
        except (ValueError, KeyError, TypeError):
            return False
    return re.search(rb"^(\d+)/\1 checks passed$", out, re.M) is not None


def vm_hwm_mb() -> float:
    """This process's peak RSS in MB: VmHWM, which unlike ru_maxrss leaves
    out the RSS of the parent that spawned it."""
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024


def closed_loop(make_pass, run_op, passes, seconds, hard_end, before_op=None):
    """Run passes of ops, one op at a time, and return their records.

    ``make_pass(i)`` lists the (slot, item, expected exit code) of pass i;
    a slot names an op's place in the mix, the same in every pass.
    ``run_op(item, expected, seconds left)`` returns the records of one op,
    or of a batch of ops that carry their own slots.  ``before_op()``, if
    given, runs before each op, outside its time.

    With ``passes`` None, the loop runs until ``seconds`` are used up: after
    the first pass, which always runs whole, an op starts only if its slot's
    previous op would still end within ``seconds``, and the loop stops after
    a pass in which no op fitted.  No op starts after ``hard_end`` (a
    perf_counter time), and each op gets at most the time left until then.
    """
    records = []
    start = time.perf_counter()
    last: dict = {}  # slot -> wall seconds of its previous op
    index = 0
    while passes is None or index < passes:
        ran = False
        for slot, item, expected in make_pass(index):
            if before_op:
                before_op()
            op_start = time.perf_counter()
            if passes is None and index and op_start - start + last[slot] > seconds:
                continue
            left = hard_end - op_start
            if left <= 0:
                return records
            records += [{"slot": slot, "pass": index, **rec} for rec in run_op(item, expected, left)]
            last[slot] = time.perf_counter() - op_start
            ran = True
        if not ran:
            break
        index += 1
    return records
