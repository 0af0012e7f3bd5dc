"""Fuzz the exit-code contract: any argv ends in 0, 1, 2 or 3, with no
exception escaping ``cli.main``, within a time bound per command."""

import io
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from kq2 import adams, cli, fields, tables

VALID_FIELDS = [
    "Q", "Q(sqrt 2)", "Q(sqrt 5)", "Q(sqrt 6)", "Q(zeta 2^4)+", "Q(zeta 16)+", "Q(zeta 11)+",
    "generic r=3 a=2 regular", "generic r=2 a=3",
]
INVALID_FIELDS = [
    "Q(sqrt 12)", "Q(sqrt 1)", "Q(sqrt 34)", "Q(zeta 15)+", "Q(zeta 7)+", "Q(zeta 29)+", "Q(zeta 2^1)+",
    "generic r=0 a=2", "generic r=2 a=1", "Q[x]", "", "  Q  ", "sqrt 5",
]
ABOVE_BOUNDS = [
    f"Q(zeta 2^{fields.B_BOUND + 1})+", f"Q(zeta {2 ** (fields.B_BOUND + 1)})+", "Q(zeta 2^20000)+",
    f"generic r={fields.R_BOUND + 1} a=2 regular", f"generic r={fields.R_BOUND + 1} a=2",
    f"generic r=1 a={fields.B_BOUND + 1} regular",
]

field_texts = st.one_of(
    st.sampled_from(VALID_FIELDS + INVALID_FIELDS + ABOVE_BOUNDS),
    st.integers(0, 10**4).map(lambda d: f"Q(sqrt {d})"),
    st.integers(0, fields.B_BOUND + 2).map(lambda b: f"Q(zeta 2^{b})+"),
    st.integers(0, 200).map(lambda m: f"Q(zeta {m})+"),
    st.builds(lambda r, a, claim: f"generic r={r} a={a}{claim}",
              st.integers(0, fields.R_BOUND + 2), st.integers(0, 8), st.sampled_from(["", " regular"])),
)
theory_names = st.one_of(
    st.sampled_from(list(tables.THEORIES) + ["kq+", "wprime", "W′", "K+", "KQ", "bogus", ""]),
    st.text(alphabet="KQUVWabr+-'1 ", min_size=1, max_size=5).filter(lambda s: not s.startswith("-")),
)
common = {"--field": field_texts, "--q": st.integers(-3, 101), "--json": st.just(None)}
# always drawn, so that most group and table commands get past argparse
REQUIRED = {"--theory", "--n-max"}
# a command that runs longer fails its example, not the whole test run
COMMAND_SECONDS = 5


class CommandTimeout(BaseException):
    """Raised by the interval timer; a BaseException so cli.main cannot catch it."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def _options(draw, spec: dict) -> list[str]:
    argv = []
    for flag, values in spec.items():
        if flag in REQUIRED or draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, str(value)]
    return argv


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    n_max = st.integers(-2, 64)
    degree = st.integers(-3, 40)
    extra = {
        "group": {"--theory": theory_names, "--n": degree, **common},
        "table": {"--n-max": n_max, "--theories": st.lists(theory_names, max_size=4).map(",".join), **common},
        "regular": {"--oracle": st.just(None), "--field": field_texts, "--json": st.just(None)},
        "find-q": {"--field": field_texts, "--json": st.just(None)},
        "verify": {"--n-max": n_max, **common},
        "adams": {"--q": st.integers(-3, adams.Q_BOUND + 2), "--dump-coeffs": st.just(None),
                  "--json": st.just(None)},
    }[command]
    return [command] + _options(draw, extra)


@settings(max_examples=300, derandomize=True)
@given(argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except CommandTimeout:
        pytest.fail(f"{argv} ran longer than {COMMAND_SECONDS} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("usage error: ") and out.getvalue() == ""
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
