"""Command-line front end.

Subcommands: group, table, regular, find-q, verify, adams.  Human-readable
output goes to stdout; ``--json`` switches to documented JSON envelopes.

Exit codes:
  0  success
  1  usage or parse error (errors.UsageError)
  2  domain error (not 2-regular, inadmissible q, bound exceeded, ...)
  3  verification failure, or any failed internal self-check (RuntimeError
     or any other ValueError)

json, verify and adams are imported only where used, to keep start-up short.
"""

from __future__ import annotations

import argparse
import sys

from . import tables
from .abgroup import format_group, group_to_json
from .errors import BoundExceeded, DegreeOutOfRange, KQ2Error, UsageError
from .fields import (
    RealQuadratic,
    ResolvedField,
    choose_q,
    is_unverified_generic,
    parse_field,
    resolve,
    two_regular_oracle,
)
from .tables import TheoryTag

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

# table and verify build rows for every degree up to --n-max
N_MAX_BOUND = 10**4

_KBAR_NOTE = (
    "Kbar in degree 7 mod 8 uses the even-index torsion order w(4k+4); "
    "this resolution is asserted by the verification suite"
)


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


def _field_meta(field: ResolvedField) -> dict:
    return {
        "label": str(field),
        "r": field.r,
        "a_F": field.a,
        "two_regular": field.regular,
    }


def _choose_q(args, field: ResolvedField, notes: list[str]) -> int:
    q = choose_q(field, args.q)
    if args.q is None:
        notes.append(f"q = {q} auto-selected (smallest congruence-admissible prime)")
    else:
        notes.append(f"q = {q} (congruence-admissible)")
    return q


def _generic_note(field: ResolvedField, notes: list[str]) -> None:
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


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)`` for str-keyed
    trees.  A container met again at the same nesting depth reuses the
    pieces rendered the first time, so a table that repeats a few group
    dicts in every row pays per group."""
    import json
    out: list[str] = []
    memo: dict[tuple[int, int], tuple[object, int, int]] = {}  # holding o keeps its id unique

    def enc(o, depth: int) -> None:
        if not isinstance(o, (dict, list, tuple)) or not o:
            out.append(json.dumps(o))
            return
        key = (id(o), depth)
        if key in memo:
            _, first, last = memo[key]
            out.extend(out[first:last])
            return
        start, pad = len(out), "\n" + "  " * (depth + 1)
        if isinstance(o, dict):
            if not all(isinstance(k, str) for k in o):
                raise TypeError("JSON object keys must be str")
            items, brackets = [(json.dumps(k) + ": ", o[k]) for k in sorted(o)], "{}"
        else:
            items, brackets = [("", v) for v in o], "[]"
        for i, (label, v) in enumerate(items):
            out.append(("," if i else brackets[0]) + pad + label)
            enc(v, depth + 1)
        out.append(pad[:-2] + brackets[1])
        memo[key] = (o, start, len(out))

    enc(obj, 0)
    return "".join(out)


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(_dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _cmd_group(args) -> int:
    tag = TheoryTag.parse(args.theory)
    tag.check_degree(args.n)
    if args.n == -1 and not tag.allows_degree_minus_one:
        low = " and ".join(name for name, t in tables.THEORIES.items() if t.allows_degree_minus_one)
        raise UsageError(f"n = -1 is only defined for {low}, not {tag.name}")
    field = resolve(parse_field(args.field))
    notes: list[str] = []
    _generic_note(field, notes)
    q = _choose_q(args, field, notes)
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
    tags = [TheoryTag.parse(name) for name in args.theories.split(",") if name.strip()]
    if not tags:
        raise UsageError("no theories given")
    no_degree = [tag.name for tag in tags if not tag.needs_degree]
    if no_degree:
        raise UsageError(f"theories without a degree axis cannot be tabulated: {no_degree}")
    _check_n_max(args.n_max, 0)
    field = resolve(parse_field(args.field))
    notes: list[str] = []
    _generic_note(field, notes)
    q = _choose_q(args, field, notes)
    rows = []
    for n in range(0, args.n_max + 1):
        groups = []
        for tag in tags:
            try:
                groups.append(tables.query(tag, n, field, q))
            except DegreeOutOfRange:
                groups.append(None)  # theory not defined in this degree
        rows.append((n, groups))
    _kbar_note(tags, range(args.n_max + 1), notes)
    # the tables are 8-periodic, so a few distinct groups fill every cell
    distinct = dict.fromkeys(g for _, groups in rows for g in groups)
    text = {g: "-" if g is None else format_group(g) for g in distinct}
    if args.json:
        as_json = {g: None if g is None else {**group_to_json(g), "formatted": text[g]} for g in distinct}
        _emit(args, {
            "query": {"command": "table", "theories": [t.name for t in tags],
                      "n_max": args.n_max, "field": args.field},
            "field": _field_meta(field),
            "q": q,
            "results": [{"n": n, "groups": {tag.name: as_json[g] for tag, g in zip(tags, groups)}}
                        for n, groups in rows],
            "notes": notes,
        }, [])
        return EXIT_OK
    header = ["n"] + [tag.name for tag in tags]
    table_rows = [[str(n)] + [text[g] for g in groups] for n, groups in rows]
    widths = [max(len(row[i]) for row in [header] + table_rows) for i in range(len(header))]
    human = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [header] + table_rows]
    _emit(args, {}, human + [f"# {note}" for note in notes])
    return EXIT_OK


def _cmd_regular(args) -> int:
    spec = parse_field(args.field)
    if args.oracle and not isinstance(spec, RealQuadratic):
        raise UsageError("--oracle is available for real quadratic fields only")
    field = resolve(spec)
    notes: list[str] = []
    verdict, reasons, failing = field.regular, [field.reason], []
    oracle_data = None
    if args.oracle:
        inv = two_regular_oracle(spec)
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
    field = resolve(parse_field(args.field))
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
    field = resolve(parse_field(args.field))
    notes: list[str] = []
    q = _choose_q(args, field, notes)
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
    coeffs = adams.bracket(args.q)
    coeff = coeffs[2 * args.q]
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
            "constant_term": coeffs[0],
            "coeffs": list(coeffs) if args.dump_coeffs else None,
        },
        "notes": [],
    }
    _emit(args, payload, human)
    return EXIT_OK


_COMMANDS = {
    "group": _cmd_group,
    "table": _cmd_table,
    "regular": _cmd_regular,
    "find-q": _cmd_find_q,
    "verify": _cmd_verify,
    "adams": _cmd_adams,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
