"""Parity of kq2's argv parser and field parser with the code they replaced.

The references are kept here as they were: the argparse parser that
``kq2.cli`` used to build, and the four regular expressions of
``fields.parse_field``.  Where argparse itself differs between CPython 3.10
and 3.13, the generated argvs avoid the case and PINNED states the outcome
of CPython 3.11's argparse, which the parser follows.
"""

import argparse
import io
import re
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from kq2 import cli, fields, tables
from kq2.errors import KQ2Error, UsageError
from kq2.fields import Generic, MaxRealCyclo2, MaxRealCycloOdd, RealQuadratic

# ---------------------------------------------------------------------------
# The argparse reference


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to our contract
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kq2", description="2-primary hermitian K-group calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_q=True):
        p.add_argument("--field", default="Q", help='field, e.g. "Q", "Q(sqrt 6)", "Q(zeta 2^4)+"')
        if with_q:
            p.add_argument("--q", type=int, default=None, help="auxiliary prime (auto-selected if omitted)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("group", help="one group of one theory")
    p.add_argument("--theory", required=True, help=", ".join(tables.THEORIES))
    degreeless = ", ".join(name for name, tag in tables.THEORIES.items() if not tag.needs_degree)
    p.add_argument("--n", type=int, default=None, help=f"degree (omit for {degreeless})")
    add_common(p)

    p = sub.add_parser("table", help="groups of several theories for degrees 0..n-max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--theories", default="K,KQ+,KQ-", help="comma-separated theory names")
    add_common(p)

    p = sub.add_parser("regular", help="2-regularity verdict for a field")
    p.add_argument("--oracle", action="store_true", help="re-derive the quadratic verdict from class-group data")
    add_common(p, with_q=False)

    p = sub.add_parser("find-q", help="smallest congruence-admissible prime")
    add_common(p, with_q=False)

    p = sub.add_parser("verify", help="run the table consistency suite")
    p.add_argument("--n-max", type=int, default=64)
    add_common(p)

    p = sub.add_parser("adams", help="parity obstruction for q^4 psi^q - 1")
    p.add_argument("--q", type=int, required=True, help="odd integer >= 3")
    p.add_argument("--dump-coeffs", action="store_true")
    p.add_argument("--json", action="store_true")
    return parser


def _old_parse(argv):
    values = vars(_build_parser().parse_args(argv))
    return values.pop("command"), values


def _new_parse(argv):
    command, args = cli._parse(argv)
    return command, vars(args)


def outcome(parse, argv):
    """("ok", command, values), ("usage error", message), or ("help", exit
    code, the usage line with its whitespace collapsed)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            command, values = parse(list(argv))
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "help", exc.code, " ".join(out.getvalue().split("\n\n")[0].split())
    return "ok", command, values


# ---------------------------------------------------------------------------
# Generated argvs

OPTIONS = sorted({name for _, _, options in cli._COMMANDS.values() for name, _, _, _ in options})
# every prefix of every option name that is at least "--x" long: unique
# prefixes, full names, and the options of other commands
OPTION_TOKENS = sorted({name[:i] for name in OPTIONS + ["--help"] for i in range(3, len(name) + 1)})
VALUES = [
    "0", "3", "8", "-1", "-8", "+3", " 7 ", "1_0", "x", "1.5", "-1.5", "-.5", "5.", "-5.", "",
    "\u0663", "-\u0663", "\uff11\uff12", "-\u0661\u0662", "\u00b2",
    "-", "-x", "-x y", "--zz=a b", "--zz=ab", "--bogus", "-1 ",
    "Q", "Q(sqrt 6)", "Q(zeta 11)+", "K,KQ+", "KQ-", "kq+",
]
UNKNOWN = ["--bogus", "-x", "-xyz", "---", "--=x", "-=x", "-1", "-.5", "x", "-", "", "a b", "-a b"]
HELP = ["-h", "--help", "--he", "--h", "--help=x", "--he=", "--help="]


def _is_stable(token: str) -> bool:
    """Whether argparse reads the token the same way in CPython 3.10-3.13:
    "--", "-h" with more attached, an attached "--" value, and a negative
    number with "_" or a final newline differ (see PINNED)."""
    return (token != "--" and not (token.startswith("-h") and token != "-h")
            and not token.endswith("=--") and not (token[:1] == "-" and ("_" in token or token.endswith("\n"))))


@st.composite
def items(draw, own):
    kind = draw(st.integers(0, 9))
    name = draw(st.sampled_from(own) if own and kind % 3 else st.sampled_from(OPTION_TOKENS))
    value = draw(st.sampled_from(VALUES) | st.integers(-10**6, 10**6).map(str) | st.text(max_size=4))
    if kind <= 4:
        return [name, value]
    if kind <= 6:
        return [f"{name}={value}"]
    if kind == 7:
        return [name]
    if kind == 8:
        return [draw(st.sampled_from(UNKNOWN + VALUES))]
    return [draw(st.sampled_from(HELP))]


@st.composite
def argvs(draw):
    head = draw(st.lists(st.sampled_from(UNKNOWN + HELP), max_size=2)) if draw(st.integers(0, 9)) == 0 else []
    valid = draw(st.integers(0, 9))
    command = draw(st.sampled_from(list(cli._COMMANDS) if valid else ["bogus", "Group", "-1", "", "-"]))
    options = cli._COMMANDS[command][2] if valid else ()
    own = sorted({name[:i] for name, _, _, _ in options for i in range(3, len(name) + 1)})
    required = [name for name, _, default, _ in options if default is cli._REQUIRED]
    body = [[name, draw(st.integers(-3, 20).map(str))] for name in required if draw(st.integers(0, 4))]
    body += draw(st.lists(items(own), max_size=5))
    order = draw(st.permutations(range(len(body))))
    argv = head + ([command] if draw(st.integers(0, 19)) else []) + [t for i in order for t in body[i]]
    return [token for token in argv if _is_stable(token)]


@settings(max_examples=1000, derandomize=True)
@given(argvs())
def test_argv_parses_as_argparse_did(argv):
    assert outcome(_new_parse, argv) == outcome(_old_parse, argv)


CHOICES = "'group', 'table', 'regular', 'find-q', 'verify', 'adams'"
GROUP_USAGE = "usage: kq2 group [-h] --theory THEORY [--n N] [--field FIELD] [--q Q] [--json]"
GROUP_K = {"theory": "K", "n": None, "field": "Q", "q": None, "json": False}

# argvs that argparse reads differently in some CPython from 3.10 to 3.13,
# with the CPython 3.11 outcome
PINNED = [
    (["--"], ("usage error", "the following arguments are required: command")),
    (["--", "group"], ("usage error", f"argument command: invalid choice: '--' (choose from {CHOICES})")),
    (["group", "--theory", "K", "--", "x"], ("usage error", "unrecognized arguments: -- x")),
    (["group", "--", "--theory", "K"], ("usage error", "the following arguments are required: --theory")),
    (["group", "--theory", "K", "-hx"], ("usage error", "argument -h/--help: ignored explicit argument 'x'")),
    (["-hx"], ("usage error", "argument -h/--help: ignored explicit argument 'x'")),
    (["group", "-h="], ("usage error", "argument -h/--help: ignored explicit argument ''")),
    (["group", "-hhx"], ("usage error", "argument -h/--help: ignored explicit argument 'x'")),
    (["group", "-hh"], ("help", 0, GROUP_USAGE)),
    (["group", "-h=h"], ("help", 0, GROUP_USAGE)),
    (["group", "--theory", "K", "--n", "-1_0"], ("usage error", "argument --n: expected one argument")),
    (["group", "--theory", "K", "--field", "-1\n"], ("ok", "group", {**GROUP_K, "field": "-1\n"})),
]


@pytest.mark.parametrize("argv, expected", PINNED)
def test_argv_where_argparse_versions_differ(argv, expected):
    assert outcome(_new_parse, argv) == expected
    if sys.version_info[:2] == (3, 11):
        assert outcome(_old_parse, argv) == expected


# CPython 3.11's argparse reads an attached "--" as an empty list, which the
# commands then fail on with a traceback; kq2 reads it as the value "--"
@pytest.mark.parametrize("argv, expected", [
    (["group", "--theory", "K", "--field=--"], ("ok", "group", {**GROUP_K, "field": "--"})),
    (["group", "--theory", "K", "--n=--"], ("usage error", "argument --n: invalid int value: '--'")),
])
def test_an_attached_double_dash_is_a_value(argv, expected):
    assert outcome(_new_parse, argv) == expected


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], f"argument command: invalid choice: 'frobnicate' (choose from {CHOICES})"),
    (["group", "--n", "1"], "the following arguments are required: --theory"),
    (["group", "--theory", "K", "--bogus", "x"], "unrecognized arguments: --bogus x"),
    (["group", "--theory", "K", "--n", "one"], "argument --n: invalid int value: 'one'"),
    (["group", "--theory", "K", "--field", "-x"], "argument --field: expected one argument"),
    (["group", "--theory", "K", "--json=yes"], "argument --json: ignored explicit argument 'yes'"),
    (["group", "--=x"], "ambiguous option: --=x could match --help, --theory, --n, --field, --q, --json"),
])
def test_each_usage_error_prints_argparse_message(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: kq2 [-h] {group,table,regular,find-q,verify,adams} ..."),
    (["-h", "group"], "usage: kq2 [-h] {group,table,regular,find-q,verify,adams} ..."),
    (["group", "--he"], GROUP_USAGE),
    (["adams", "-h", "--q", "x"], "usage: kq2 adams [-h] --q Q [--dump-coeffs] [--json]"),
])
def test_help_goes_to_stdout_and_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.splitlines()[0] == usage


def test_each_option_has_help_text(capsys):
    for command, (_, about, options) in cli._COMMANDS.items():
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = capsys.readouterr().out
        assert about in text
        for name, _, _, help_text in options:
            assert help_text and help_text in text and name in text


# ---------------------------------------------------------------------------
# The regular-expression reference of parse_field

_QUAD_RE = re.compile(r"^Q\(\s*sqrt\s*(\d+)\s*\)$")
_CYCLO2_RE = re.compile(r"^Q\(\s*zeta\s*2\^(\d+)\s*\)\+$")
_CYCLO_RE = re.compile(r"^Q\(\s*zeta\s*(\d+)\s*\)\+$")
_GENERIC_RE = re.compile(r"^generic\s+r=(\d+)\s+a=(\d+)(\s+regular)?$")


def _old_parse_field(text):
    text = text.strip()
    if text == "Q":
        return fields.Rationals()
    m = _QUAD_RE.match(text)
    if m:
        return RealQuadratic(fields._number(m.group(1)))
    m = _CYCLO2_RE.match(text)
    if m:
        return MaxRealCyclo2(fields._number(m.group(1)))
    m = _CYCLO_RE.match(text)
    if m:
        n = fields._number(m.group(1))
        if n >= 4 and n & (n - 1) == 0:
            return MaxRealCyclo2(n.bit_length() - 1)
        return MaxRealCycloOdd(n)
    m = _GENERIC_RE.match(text)
    if m:
        claim = True if m.group(3) else None
        return Generic(r=fields._number(m.group(1)), a=fields._number(m.group(2)), regular_claim=claim)
    raise fields.FieldSyntaxError(
        f"cannot parse field {text!r}; expected Q, Q(sqrt D), Q(zeta 2^B)+, "
        f"Q(zeta M)+, or generic r=R a=A [regular]"
    )


def field_outcome(parse, text):
    try:
        return parse(text)
    except (KQ2Error, UsageError) as exc:
        return type(exc).__name__, str(exc)


# whitespace to str.isspace, and near misses that are not
SPACES = " \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u1680\u2003\u2028\u202f\u3000"
NOT_SPACES = "\u200b\u180e\ufeff_"
# decimal digits of several scripts (str.isdecimal), and numerals that are not
DIGITS = "0123456789\u0660\u0663\u0669\u06f4\u0966\u096f\uff10\uff15\uff19\U0001d7ce\U0001d7d9"
NOT_DIGITS = "\u00b2\u00bd\u2160\u2463"

TEMPLATES = [
    ["Q"],
    ["Q(", " ", "sqrt", " ", "#", " ", ")"],
    ["Q(", " ", "zeta", " ", "2^", "#", " ", ")+"],
    ["Q(", " ", "zeta", " ", "#", " ", ")+"],
    ["generic", " ", "r=", "#", " ", "a=", "#"],
    ["generic", " ", "r=", "#", " ", "a=", "#", " ", "regular"],
]


@st.composite
def field_texts(draw):
    pieces = []
    for piece in draw(st.sampled_from(TEMPLATES)):
        if piece == " ":
            piece = draw(st.text(st.sampled_from(SPACES), max_size=3))
        elif piece == "#":
            piece = draw(st.text(st.sampled_from(DIGITS), min_size=1, max_size=4))
        pieces.append(piece)
    text = "".join(pieces)
    # a near miss: one character dropped, changed or added
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(["", "x", "2", "^", "+", ")", "(", " ", *NOT_SPACES, *NOT_DIGITS]))
        text = text[:i] + new + text[i + draw(st.integers(0, 1)):]
    outer = st.text(st.sampled_from(SPACES), max_size=2)
    return draw(outer) + text + draw(outer)


@settings(max_examples=1000, derandomize=True)
@given(field_texts())
def test_field_text_parses_as_the_regular_expressions_did(text):
    assert field_outcome(fields.parse_field, text) == field_outcome(_old_parse_field, text)


@pytest.mark.parametrize("text, spec", [
    ("Q(sqrt \u0666)", RealQuadratic(6)),
    ("Q(sqrt \uff11\uff10)", RealQuadratic(10)),
    ("Q(\u3000sqrt 5\u2003)", RealQuadratic(5)),
    ("Q(zeta 2^\u0664)+", MaxRealCyclo2(4)),
    ("Q(zeta \u0661\u0661)+", MaxRealCycloOdd(11)),
    (" generic\u3000r=\uff13 a=\u0662 regular\x85", Generic(3, 2, True)),
])
def test_unicode_digits_and_whitespace_parse(text, spec):
    assert fields.parse_field(text) == spec == _old_parse_field(text)


@pytest.mark.parametrize("text", [
    "Q(sqrt \u00b2)", "Q(sqrt\u200b5)", "Q(sqrt)", "Q(zeta 2^)+", "Q(zeta 11)", "generic r=1a=2",
    "generic r=1 a=2regular", "generic r= 1 a=2", "q(sqrt 5)", "Q(sqrt 5))", "Q(sqrt 5) x",
])
def test_near_misses_are_syntax_errors(text):
    for parse in (fields.parse_field, _old_parse_field):
        with pytest.raises(fields.FieldSyntaxError):
            parse(text)
