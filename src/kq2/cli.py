"""Command-line front end.

Subcommands: group, table, regular, find-q, verify, adams.  Human-readable
output goes to stdout; ``--json`` switches to documented JSON envelopes.

Exit codes:
  0  success
  1  usage or parse error (errors.UsageError)
  2  domain error (not 2-regular, inadmissible q, bound exceeded, ...)
  3  verification failure, or any failed internal self-check (RuntimeError
     or any other ValueError)
A reader that closes the output pipe early ends the command with 0.

The argv parser and the help text are read from one table, _COMMANDS.
verify and adams are imported only where used, to keep start-up short.
"""

from __future__ import annotations

import sys

from . import tables
from .abgroup import format_group, group_to_json
from .errors import BoundExceeded, DegreeOutOfRange, InadmissibleQ, KQ2Error, UsageError
from .fields import (
    Q_SEARCH_BOUND,
    FieldSpec,
    RealQuadratic,
    choose_q,
    is_unverified_generic,
    parse_field,
    two_regular_oracle,
)
from .tables import TheoryTag

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

# table and verify build rows for every degree up to --n-max
N_MAX_BOUND = 10**4
# group's --n: torsion orders in degrees 7 mod 8 grow with n and print in full
N_BOUND = 10**18

_KBAR_NOTE = (
    "Kbar in degree 7 mod 8 uses the even-index torsion order w(4k+4); "
    "this resolution is asserted by the verification suite"
)


def _field_meta(field: FieldSpec) -> dict:
    return {
        "label": str(field),
        "r": field.r,
        "a_F": field.a,
        "two_regular": field.regular,
    }


def _choose_q(args, field: FieldSpec, notes: list[str], tags) -> int | None:
    """The command's q; None, with a note, where the search finds no q and
    none of the theories in ``tags`` reads one."""
    try:
        q = choose_q(field, args.q)
    except InadmissibleQ:
        if args.q is not None or any(tag.needs_q for tag in tags):
            raise
        notes.append(f"no congruence-admissible prime q exists below {Q_SEARCH_BOUND}; no theory here reads q")
        return None
    if args.q is None:
        notes.append(f"q = {q} auto-selected (smallest congruence-admissible prime)")
    else:
        notes.append(f"q = {q} (congruence-admissible)")
    return q


def _generic_note(field: FieldSpec, notes: list[str]) -> None:
    if is_unverified_generic(field):
        notes.append("generic field description is unverified; table values assume 2-regularity")


def _check_n_max(n_max: int, least: int) -> None:
    if n_max < least:
        raise UsageError(f"--n-max must be >= {least}")
    if n_max > N_MAX_BOUND:
        raise BoundExceeded(f"--n-max must be <= {N_MAX_BOUND}, got {n_max}")


def _kbar_note(tags, degrees, notes: list[str]) -> None:
    if any(tag.name == "Kbar" for tag in tags) and any(map(tables.k_bar_uses_resolved_order, degrees)):
        notes.append(_KBAR_NOTE)


_string = None  # json's C string encoder, imported by the first _dumps call


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)`` for trees of
    str-keyed dicts, lists, tuples, str, int, bool and None.  Each dict key
    layout is checked, sorted and rendered once per nesting depth, so dicts
    that share their keys, such as verify's reports, pay for them once.  The
    state lives in arguments, not in a closure, so no reference cycle
    outlives the call.

    Strings go through json.dumps's own C encoder; the json package is not
    imported, because it imports re, enum, functools and collections."""
    global _string
    if _string is None:
        from _json import encode_basestring_ascii as _string
    out: list[str] = []
    _encode(obj, 0, out, {})
    return "".join(out)


def _encode(o, depth: int, out: list[str], frames: dict) -> None:
    """Append the rendering of the container or scalar o at ``depth`` to out.

    frames maps (key tuple, depth) of a dict layout to its frame (see
    _frame)."""
    if not isinstance(o, (dict, list, tuple)):
        out.append(_scalar(o))
        return
    if not o:
        out.append("{}" if isinstance(o, dict) else "[]")
        return
    inner = depth + 1
    if isinstance(o, dict):
        keys = tuple(o)
        frame = frames.get((keys, depth))
        if frame is None:
            frame = frames[keys, depth] = _frame(keys, depth)
        heads, close = frame
        for head, k in heads:
            out.append(head)
            v = o[k]
            if type(v) is int:  # not isinstance: a bool goes the scalar way
                out.append(int.__repr__(v))
            else:
                _encode(v, inner, out, frames)
    else:
        pad = "\n" + "  " * inner
        head = "[" + pad
        for v in o:
            out.append(head)
            head = "," + pad
            if type(v) is int:
                out.append(int.__repr__(v))
            else:
                _encode(v, inner, out, frames)
        close = pad[:-2] + "]"
    out.append(close)


def _frame(keys: tuple, depth: int) -> tuple[list[tuple[str, str]], str]:
    """The frame of a dict with ``keys`` at ``depth``: its (head, key) pairs
    in sorted key order, each head the opening bracket or comma, the
    indent and the key's label, and its closing bracket."""
    if not all(isinstance(k, str) for k in keys):
        raise TypeError("JSON object keys must be str")
    pad = "\n" + "  " * (depth + 1)
    heads = [(("," if i else "{") + pad + _string(k) + ": ", k) for i, k in enumerate(sorted(keys))]
    return heads, pad[:-2] + "}"


def _scalar(o) -> str:
    if o is None:
        return "null"
    if o is True or o is False:
        return "true" if o else "false"
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(_dumps(payload))
    else:
        print("\n".join(human_lines))


def _cmd_group(args) -> int:
    tag = TheoryTag.parse(args.theory)
    tag.check_degree(args.n)
    if args.n == -1 and not tag.allows_degree_minus_one:
        low = " and ".join(name for name, t in tables.THEORIES.items() if t.allows_degree_minus_one)
        raise UsageError(f"n = -1 is only defined for {low}, not {tag.name}")
    if args.n is not None and args.n > N_BOUND:
        raise BoundExceeded(f"--n must be <= {N_BOUND}, got {args.n}")
    field = parse_field(args.field)
    notes: list[str] = []
    _generic_note(field, notes)
    q = _choose_q(args, field, notes, [tag])
    g = tables.query(tag, args.n, field, q)
    _kbar_note([tag], [args.n], notes)
    payload = {
        "query": {"command": "group", "theory": tag.name, "n": args.n, "field": args.field},
        "field": _field_meta(field),
        "q": q,
        "result": {**group_to_json(g), "formatted": format_group(g)},
        "notes": notes,
    }
    human = [format_group(g)] + [f"# {note}" for note in notes]
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_table(args) -> int:
    tags: list[TheoryTag] = []
    names: list[str] = []  # the names, not the tags, which compare field by field
    for name in args.theories.split(","):
        if name.strip():
            tag = TheoryTag.parse(name)
            if tag.name in names:  # stops at the first repeat, so a long list costs little
                raise UsageError(f"theory {tag.name} is named twice in --theories")
            names.append(tag.name)
            tags.append(tag)
    if not tags:
        raise UsageError("no theories given")
    no_degree = [tag.name for tag in tags if not tag.needs_degree]
    if no_degree:
        raise UsageError(f"theories without a degree axis cannot be tabulated: {no_degree}")
    _check_n_max(args.n_max, 0)
    field = parse_field(args.field)
    notes: list[str] = []
    _generic_note(field, notes)
    q = _choose_q(args, field, notes, tags)
    # each theory's field and q rules are checked once, when its column is built
    columns = [tables.column(tag, field, q) for tag in tags]
    # one row of groups per period class, at its period degree, fills the
    # table, and each row and distinct group is rendered once
    pd = tables.period_degrees(args.n_max + 1)
    rows: dict[int, list] = {}  # period degree -> its groups, None where undefined
    for p in dict.fromkeys(pd):
        groups = rows[p] = []
        for col in columns:
            try:
                groups.append(col(p))
            except DegreeOutOfRange:
                groups.append(None)  # theory not defined in this degree
    _kbar_note(tags, rows, notes)
    distinct = dict.fromkeys(g for groups in rows.values() for g in groups)
    text = {g: "-" if g is None else format_group(g) for g in distinct}
    if args.json:
        as_json = {g: None if g is None else {**group_to_json(g), "formatted": text[g]} for g in distinct}
        envelope = {
            "query": {"command": "table", "theories": names, "n_max": args.n_max, "field": args.field},
            "field": _field_meta(field),
            "q": q,
            "notes": notes,
        }
        _write_results(envelope, names, rows, as_json, pd)
        return EXIT_OK
    # the header row is keyed "n", the class rows by their period degrees
    cells = {"n": names, **{p: [text[g] for g in groups] for p, groups in rows.items()}}
    widths = [max(map(len, column)) for column in zip(*cells.values())]
    # each row after the degree column, right-stripped: its first cell is never blank
    ends = {p: "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for p, row in cells.items()}
    first = len(str(args.n_max))  # the width of the degree column, which "n" never exceeds
    # a class's text is written as it is, not copied into each line
    write = sys.stdout.write
    write("n".ljust(first) + ends["n"])
    for n, p in enumerate(pd):
        write(str(n).ljust(first))
        write(ends[p])
    write("".join(f"# {note}\n" for note in notes))
    return EXIT_OK


def _write_results(envelope: dict, names: list[str], rows: dict, as_json: dict, pd: list[int]) -> None:
    """Write ``_dumps({**envelope, "results": results})`` and a newline to
    stdout, results being ``{"n": n, "groups": {names[i]: as_json[rows[p][i]]}}``
    for each degree n and its period degree p = pd[n].  "results" sorts
    after every key of the envelope, so the envelope is rendered without it
    and the results follow it, degree by degree.  Each distinct group is
    rendered once, at the depth of a cell, and each class's row once, from
    those texts."""
    head = _dumps(envelope)[:-2]  # without its closing "\n}"; _frame needs _dumps's import
    heads, close = _frame(("groups", "n"), 2)
    (opening, _), (n_key, _) = heads
    frames: dict = {}
    text = {}
    for g, value in as_json.items():
        out: list[str] = []
        _encode(value, 4, out, frames)
        text[g] = "".join(out)
    body, body_close = _frame(tuple(names), 3)
    # each theory's head, in sorted key order, and its column in a class's row
    cells = [(cell, names.index(name)) for cell, name in body]
    texts = {p: "".join([opening, *[cell + text[groups[i]] for cell, i in cells], body_close, n_key])
             for p, groups in rows.items()}
    # a class's text is written as it is, not copied into each row
    write = sys.stdout.write
    write(head + ',\n  "results": [\n    ')
    between = close + ",\n    "
    for n, p in enumerate(pd):
        if n:
            write(between)
        write(texts[p])
        write(str(n))
    write(close + "\n  ]\n}\n")


def _cmd_regular(args) -> int:
    field = parse_field(args.field)
    if args.oracle and not isinstance(field, RealQuadratic):
        raise UsageError("--oracle is available for real quadratic fields only")
    notes: list[str] = []
    verdict, reasons, failing = field.regular, [field.reason], []
    oracle_data = None
    if args.oracle:
        inv = two_regular_oracle(field)
        oracle_data = {
            "dyadic_count": inv.dyadic_count,
            "pic_odd": inv.pic_odd,
            "units_indep_signs": inv.units_indep_signs,
            "narrow_pic_odd": inv.narrow_pic_odd,
            "two_regular": inv.two_regular,
            "reasons": list(inv.reasons),
        }
        verdict = inv.two_regular
        reasons, failing = list(inv.reasons), list(inv.failing)
        if inv.two_regular != field.regular:
            notes.append("oracle verdict disagrees with the closed-form criterion")
    if verdict:
        human = [f"2-regular: {'; '.join(reasons)}"]
    else:
        human = [f"not 2-regular: {'; '.join(failing or reasons)}"]
    payload = {
        "query": {"command": "regular", "field": args.field, "oracle": args.oracle},
        "field": _field_meta(field),
        "result": {"two_regular": verdict, "reasons": reasons, "oracle": oracle_data},
        "notes": notes,
    }
    _emit(args, payload, human + [f"# {n}" for n in notes])
    return EXIT_OK


def _cmd_find_q(args) -> int:
    field = parse_field(args.field)
    q = choose_q(field, None)
    payload = {
        "query": {"command": "find-q", "field": args.field},
        "field": _field_meta(field),
        "q": q,
        "result": {"q": q, "admissibility": "congruence-admissible"},
        "notes": [],
    }
    _emit(args, payload, [f"q = {q} (congruence-admissible for {field})"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify
    _check_n_max(args.n_max, verify.N_MAX_LEAST)
    field = parse_field(args.field)
    notes: list[str] = []
    q = _choose_q(args, field, notes, tables.THEORIES.values())  # run_all reads them all
    reports = verify.run_all(field, q, args.n_max)
    failures = [rep for rep in reports if not rep.passed]
    human = [f"# {verify.REPORT_HEADER}"]
    human += [f"# {note}" for note in notes]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        human.append(f"{status}  {rep.name}  [{rep.details}]")
        if rep.counterexample:
            human.append(f"      counterexample: {rep.counterexample}")
    human.append(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    payload = {
        "query": {"command": "verify", "field": args.field, "n_max": args.n_max},
        "field": _field_meta(field),
        "q": q,
        "header": verify.REPORT_HEADER,
        "results": verify.reports_to_json(reports),
        "notes": notes,
    }
    _emit(args, payload, human)
    return EXIT_OK if not failures else EXIT_VERIFY


def _cmd_adams(args) -> int:
    from . import adams
    coeff, constant = adams.ends(args.q)
    coeffs = adams.bracket(args.q) if args.dump_coeffs else None
    odd = coeff % 2 == 1
    human = [
        f"q = {args.q}: coefficient of u^{2 * args.q} is {coeff} "
        f"({'odd' if odd else 'even'}); realification factorization "
        f"{'impossible' if odd else 'NOT excluded'}"
    ]
    if args.dump_coeffs:
        human.append("coefficients: " + " ".join(str(c) for c in coeffs))
    payload = {
        "query": {"command": "adams", "q": args.q},
        "result": {
            "obstruction": odd,
            "top_coefficient": coeff,
            "constant_term": constant,
            "coeffs": list(coeffs) if args.dump_coeffs else None,
        },
        "notes": [],
    }
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Command table and argv parser
#
# Each command has its handler, its one-line help and its options, each
# (name, kind, default, help): kind is str, int or bool (a flag, default
# False), and the default _REQUIRED marks a required option.  The parser
# reads argv as argparse did for this table, messages included: long
# options or unique prefixes of them, "--opt value" or "--opt=value", the
# last repeat winning; -h and --help print the help text.

_REQUIRED = object()
_FIELD = ("--field", str, "Q", 'field, e.g. "Q", "Q(sqrt 6)", "Q(zeta 2^4)+"')
_Q = ("--q", int, None, "auxiliary prime (auto-selected if omitted)")
_JSON = ("--json", bool, False, "emit JSON instead of text")
_DEGREELESS = ", ".join(name for name, tag in tables.THEORIES.items() if not tag.needs_degree)
_DESCRIPTION = "2-primary hermitian K-group calculator"

_COMMANDS = {
    "group": (_cmd_group, "one group of one theory", (
        ("--theory", str, _REQUIRED, ", ".join(tables.THEORIES)),
        ("--n", int, None, f"degree, at most {N_BOUND} (omit for {_DEGREELESS})"),
        _FIELD, _Q, _JSON)),
    "table": (_cmd_table, "groups of several theories for degrees 0..n-max", (
        ("--n-max", int, _REQUIRED, f"largest degree, at most {N_MAX_BOUND}"),
        ("--theories", str, "K,KQ+,KQ-", "comma-separated theory names, each at most once"),
        _FIELD, _Q, _JSON)),
    "regular": (_cmd_regular, "2-regularity verdict for a field", (
        ("--oracle", bool, False, "re-derive the quadratic verdict from class-group data"),
        _FIELD, _JSON)),
    "find-q": (_cmd_find_q, "smallest congruence-admissible prime", (_FIELD, _JSON)),
    "verify": (_cmd_verify, "run the table consistency suite", (
        ("--n-max", int, 64, f"largest degree checked, at most {N_MAX_BOUND} (default 64)"),
        _FIELD, _Q, _JSON)),
    "adams": (_cmd_adams, "parity obstruction for q^4 psi^q - 1", (
        ("--q", int, _REQUIRED, "odd integer >= 3"),
        ("--dump-coeffs", bool, False, "also print every coefficient"),
        _JSON)),
}


class _Args:
    """The option values of one command, named like the options:
    ``--n-max`` is ``n_max``."""

    def __init__(self, values: dict) -> None:
        self.__dict__.update(values)


def _invocation(option) -> str:
    name, kind, _, _ = option
    return name if kind is bool else f"{name} {name[2:].upper().replace('-', '_')}"


def _rows(pairs) -> list[str]:
    width = max(len(left) for left, _ in pairs)
    return [f"  {left.ljust(width)}  {right}".rstrip() for left, right in pairs]


def _help_text(command: str | None) -> str:
    """The help text of kq2 (command None) or of one command."""
    if command is None:
        usage = "usage: kq2 [-h] {" + ",".join(_COMMANDS) + "} ..."
        body = [_DESCRIPTION, "", "commands:", *_rows([(name, spec[1]) for name, spec in _COMMANDS.items()])]
        options = ()
    else:
        _, about, options = _COMMANDS[command]
        usage = " ".join(["usage: kq2", command, "[-h]"] + [
            _invocation(option) if option[2] is _REQUIRED else f"[{_invocation(option)}]"
            for option in options])
        body = [about]
    rows = [("-h, --help", "show this help message and exit")] + [(_invocation(o), o[3]) for o in options]
    return "\n".join([usage, "", *body, "", "options:", *_rows(rows)])


def _help(option: str, explicit: str | None, command: str | None) -> None:
    """-h or --help: print the help text and exit with status 0, unless a
    value was given to it ("-hh" is -h twice)."""
    if explicit is not None:
        rest = explicit.lstrip("h") if option == "-h" else explicit
        if rest or not explicit:
            raise UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
    print(_help_text(command))
    raise SystemExit(0)


def _is_negative_number(token: str) -> bool:
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final newline
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _read_token(token: str, names) -> tuple[str | None, str | None] | None:
    """How one token reads against a parser's long option names, "-h" being
    its one short option: None for a positional, (None, None) for an
    unknown option, else (option, its attached value or None)."""
    if token[:1] != "-" or token == "-":
        return None
    if token == "-h" or token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and (name == "-h" or name in names):
        return name, value
    if token[1] == "-":
        matches, explicit = [n for n in names if n.startswith(name)], value if eq else None
    else:  # a short option with its value attached, as in -hx
        matches, explicit = ["-h"] if token[1] == "h" else [], token[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _parse_options(command: str, argv: list[str]) -> tuple[_Args, list[str]]:
    """The option values of one command, and the tokens it did not use."""
    options = _COMMANDS[command][2]
    kinds = {name: kind for name, kind, _, _ in options}
    end = argv.index("--") if "--" in argv else len(argv)  # no token after "--" is an option
    # every token is read before any is used, so an ambiguous one fails first
    reads = [_read_token(token, ("--help", *kinds)) for token in argv[:end]]
    values: dict[str, object] = {}
    unused: list[str] = []
    i = 0
    while i < end:
        option, explicit = reads[i] or (None, None)
        i += 1
        kind = kinds.get(option)
        if option is None:
            unused.append(argv[i - 1])
        elif kind is None:
            _help(option, explicit, command)
        elif kind is bool:
            if explicit is not None:
                raise UsageError(f"argument {option}: ignored explicit argument {explicit!r}")
            values[option] = True
        else:
            if explicit is None:
                if i == end or reads[i] is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                explicit, i = argv[i], i + 1
            if kind is int:
                try:
                    explicit = int(explicit)
                except ValueError:
                    raise UsageError(f"argument {option}: invalid int value: {explicit!r}") from None
            values[option] = explicit
    missing = [name for name, _, default, _ in options if default is _REQUIRED and name not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    args = _Args({name[2:].replace("-", "_"): values.get(name, default) for name, _, default, _ in options})
    return args, unused + argv[end:]


def _parse(argv: list[str]) -> tuple[str, _Args]:
    """The command that argv names and its option values."""
    unused: list[str] = []
    i = 0
    # the options before the command are kq2's own; a final "--" is one of them
    while i < len(argv) and not (argv[i] == "--" and i == len(argv) - 1):
        read = None if argv[i] == "--" else _read_token(argv[i], ("--help",))
        if read is None:
            break
        if read[0] is None:
            unused.append(argv[i])
        else:
            _help(*read, None)
        i += 1
    else:
        raise UsageError("the following arguments are required: command")
    command = argv[i]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    args, more = _parse_options(command, argv[i + 1:])
    unused += more
    if unused:
        raise UsageError(f"unrecognized arguments: {' '.join(unused)}")
    return command, args


def main(argv: list[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KQ2Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (RuntimeError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entrypoint() -> None:
    """The console script: main on sys.argv.  A reader that closes the
    output pipe early (``kq2 table ... | head``) has what it asked for, so
    the command ends quietly with EXIT_OK."""
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe shows here, not in the shutdown flush
    except BrokenPipeError:
        import os
        # the unwritten output would fail again when the interpreter flushes
        # stdout at exit; /dev/null takes it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_OK
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
