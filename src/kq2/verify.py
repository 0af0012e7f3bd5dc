"""Cross-validation of every inter-table identity and exact-sequence
constraint.

A passing suite certifies that the stored tables are mutually consistent as
isomorphism classes: nine identities over the degrees (the five splittings,
the wedge description of the orthogonal V-theory, U as the sign-swapped
V-theory one degree down, the 8-periodicity of V and KQFq+ as the complement
of KO in the building block), seven exact-sequence reports, the valuation
identity t(n, q) = w((n+1)/2, a), and the low-degree computations.  The
identities are the rows of _IDENTITIES and the exact sequences the rows of
_SEQUENCES, data that name the theories and degree shifts they read and
write the copies of a theory as (a, b), a*r + b copies; each table is
walked by one loop.  A sequence has one of three rules: "ranks" (the
rank Euler characteristic of a Mayer-Vietoris period vanishes), "orders"
(an all-finite window telescopes) and "ses" (a short exact sequence is
rank/order consistent).  Boundary maps are not modeled, so the checks are
necessary-condition checks; they do not by themselves prove the tables
correct.  Fault injection in the tests adds one Z/2 to each of the 72 stored
rows of tables.fault_sites() in turn, KO and KU included, and on the fields
of the tests the suite rejects every one but the 8 KU rows on Q.
KFq, KQFq+ and KQFq- are derived from the KO and KU rows, and the building
block KQbar+ is the kq_rf+ table on r = 1, so the report that KQFq+
complements KO in the building block checks the stored kq_rf+ rows against
that derivation.
The low-degree computations (tables.low_dim) read no stored row and no
column, so the low-degree report compares two independent derivations, in a
loop of its own.  A group reads its degree only through its period degree
(tables.period_degree), so each identity report compares the cells of a
point at their period degrees, its key, once per distinct key, stops at the
first failing key, and counts its points arithmetically.
"""

from __future__ import annotations

from . import tables as tb
from .abgroup import (
    C2,
    FgAb2,
    Z,
    ZERO,
    alternating_rank_sum,
    direct_sum,
    exact_window_check,
    format_group,
    n_copies,
    ses_consistent,
)
from .fields import FieldSpec, choose_q, require_two_regular
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:  # collections.abc is not imported at run time, to keep start-up short
    from collections.abc import Iterable

REPORT_HEADER = (
    "consistency suite: compares isomorphism classes only; connecting maps "
    "are not modeled, so a pass certifies mutual consistency of the tables, "
    "not their derivation"
)
# the splittings are checked over at least one full period in n
N_MAX_LEAST = 8


class CheckReport(Record):
    name: str
    passed: bool
    details: str
    counterexample: dict | None = None

    def __post_init__(self) -> None:
        if not self.passed and self.counterexample is None:
            raise ValueError("failing report needs a counterexample")

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


_SIGN = {1: "+", -1: "-"}


# The nine identities lhs(n) = block(n) + m top(n + s), first <= n <= n_max,
# one report each: the report name, the first degree, the theories (lhs,
# block or None, top) of each sign (the key None for a report with no sign
# axis), the copies m = a*r + b of top as (a, b), the shift s, and the
# counterexample fields ahead of expected and actual ("identity" names lhs).
_ONE, _R, _R1 = (0, 1), (1, 0), (1, -1)  # 1, r and r - 1 copies
_IDENTITIES = (
    ("splitting KQ+ = KQbar+ + (r-1) KO", 0, {None: ("KQ+", "KQbar+", "KO")}, _R1, 0, ("identity", "n", "r")),
    ("splitting KQ- = KQbar- + (r-1) KO[6]", 0,
     {None: ("KQ-", "KQbar-", "KO")}, _R1, 6, ("identity", "n", "r")),
    ("splitting V+ = Vbar+ + 2(r-1) KO", 0,
     {None: ("V+", "Vbar+", "KO")}, (2, -2), 0, ("identity", "n", "r")),
    ("splitting V- = Vbar- + (r-1) KU", 0, {None: ("V-", "Vbar-", "KU")}, _R1, 0, ("identity", "n", "r")),
    ("splitting K = Kbar + (r-1) KO[-1] (fixes the degree 7 mod 8 order as w(4k+4))", 1,
     {None: ("K", "Kbar", "KO")}, _R1, -1, ("identity", "n", "r")),
    ("V+ is 2r copies of KO", 0, {None: ("V+", None, "KO")}, (2, 0), 0, ("n", "r")),
    ("U-theory is sign-swapped V-theory shifted by one", 1,
     {1: ("U+", None, "V-"), -1: ("U-", None, "V+")}, _ONE, -1, ("n", "eps")),
    ("V-theory 8-periodicity", 0, {1: ("V+", None, "V+"), -1: ("V-", None, "V-")}, _ONE, 8, ("n", "eps")),
    ("orthogonal finite-field groups complement KO in the building block", 0,
     {None: ("KQbar+", "KQFq+", "KO")}, _ONE, 0, ("n",)),
)


def _first_degrees(first: int, shift: int, n_max: int) -> dict[tuple[int, int], int]:
    """The keys (period_degree(n), period_degree(n + shift)) of first <= n
    <= n_max (first <= 1, |shift| <= 8), each mapped to its least n, in
    order.  A degree x >= 1 not 7 mod 8 has the period degree of x + 8, so
    past 16 a key is new only where n or n + shift is a period degree
    8 * 2^e - 1, and only those n and 0..16 are walked."""
    pd, tops = tb.period_degree, [8 * 2**e - 1 for e in range(n_max.bit_length())]
    firsts: dict[tuple[int, int], int] = {}
    for n in sorted({*range(first, 17), *tops, *(p - shift for p in tops)}):
        if first <= n <= n_max:
            firsts.setdefault((pd(n), pd(n + shift)), n)
    return firsts


def check_splittings(field: FieldSpec, col: dict, n_max: int) -> list[CheckReport]:
    """The nine identities of _IDENTITIES over the degrees n <= n_max: the
    five wedge splittings of the R_F tables into the one-real-place
    building block plus topological copies, and four more of the same
    shape.  ``col`` maps each theory with a degree axis to its column on
    the 2-regular ``field`` (see run_all).  A point (n, eps) has the key
    (period degree of n, of n + s, eps), with eps None where no sign is;
    each key is compared once, at its first point, in point order."""
    r, reports = field.r, []
    walks: dict[tuple[int, int], dict] = {}  # four distinct (first, shift) among the nine rows
    for name, first, theories, (a, b), shift, fields in _IDENTITIES:
        if (first, shift) not in walks:
            walks[first, shift] = _first_degrees(first, shift, n_max)
        cols = [(eps, lhs, col[lhs], None if block is None else col[block], col[top])
                for eps, (lhs, block, top) in theories.items()]
        points = ((n, p, p_top, *c) for (p, p_top), n in walks[first, shift].items() for c in cols)
        failure = None
        for n, p, p_top, eps, identity, lhs, block, top in points:
            expected, added = lhs(p), n_copies(a * r + b, top(p_top))
            actual = added if block is None else direct_sum(block(p), added)
            if expected != actual:
                at = {"identity": identity, "n": n, "r": r, "eps": eps}
                failure = {key: at[key] for key in fields}
                details = f"first failure at {failure}"
                failure.update(expected=format_group(expected), actual=format_group(actual))
                break
        else:
            bounds = f"n <= {n_max}" if first == 0 else f"{first} <= n <= {n_max}"
            details = f"{bounds} ({len(theories) * (n_max - first + 1)} cases)"
        reports.append(CheckReport(name, failure is None, details, failure))
    return reports


# The exact-sequence reports, one row each: the report name, its rule, its
# details and its windows (at, degrees, positions), each the positions laid
# out at each degree n of degrees in turn.  A position is the direct sum of
# its terms (source, shift, (a, b)), each a*r + b copies of a group: the
# theory named source in degree n + shift, or, with shift None, the group
# source or, for a function of the field, source(field).  The rule tests the
# windows in order, and the first to fail is the counterexample, at and its
# groups: "ranks" asks that the rank Euler characteristic vanish, "orders"
# asks exact_window_check, and "ses" asks ses_consistent of 0 -> a -> b -> c
# -> 0 and names the groups a, b and c.  The details are formatted with the
# groups of the last window tested.
_SES = "0 -> {} -> {} -> {} -> 0"
_SEQUENCES = (
    # Mayer-Vietoris for the pullback that defines the barred theory, as the
    # sequence runs, over full periods:
    #   ... -> r KQ_{n+1}(C) -> KQbar_n -> KQ_n(Fq) + r KQ_n(R) -> r KQ_n(C) -> ...
    # KQ of R is KO + KO (eps = +1) or KU (eps = -1); KQ of C is KO, four degrees
    # up for eps = -1; and KQbar_n comes with (r-1) KO_n, six degrees up for eps = -1
    *((f"Mayer-Vietoris rank Euler characteristic (eps = {eps:+d})", "ranks",
       "full periods, degrees 1..8 and 9..16",
       tuple(({"eps": eps, "degrees": f"{lo}..{lo + 7}"}, range(lo + 7, lo - 1, -1), positions)
             for lo in (1, 9)))
      for eps, positions in (
          (1, ((("KO", 1, _R),), (("KQbar+", 0, _ONE), ("KO", 0, (1, -1))),
               (("KQFq+", 0, _ONE), ("KO", 0, (2, 0))))),
          (-1, ((("KO", 5, _R),), (("KQbar-", 0, _ONE), ("KO", 6, (1, -1))),
                (("KQFq-", 0, _ONE), ("KU", 0, _R)))))),
    # 0 -> r*K_2(C) -> K_1(R_F) -> r*K_1(R) + K_1(Fq) -> 0
    ("K_1 short exact sequence rank/order consistency", "ses", _SES,
     (({}, (1,), ((("KU", 1, _R),), (("K", 0, _ONE),), ((C2(1), None, _R), ("KFq", 0, _ONE)))),)),
    # the coWitt discriminant rows, with no degree axis: 0 -> Z^r -> Z^r + Z/2 -> (Z/2)^(r+1) -> 0
    ("coWitt discriminant sequence (2-integers row)", "ses", _SES,
     (({}, (None,), (((Z(1), None, _R),), ((tb.cowitt, None, _ONE),), ((tb.square_classes, None, _ONE),))),)),
    ("coWitt discriminant sequence (archimedean/residue row)", "ses", _SES,
     (({}, (None,), (((Z(1), None, _R),), ((Z(1), None, _R), (C2(1), None, _ONE)),
                     ((C2(1), None, _R), (C2(1), None, _ONE)))),)),
    # the all-finite vertical window 0 -> KQbar-(n+2) -> ... -> KQFq-(n) -> 0 through
    # degree n = 3 mod 8; its right boundary map lands in a free group, so is zero on torsion
    *((f"vertical sequence telescoping through degree {n3}", "orders",
       "alternating product of orders equals 1",
       (({"n": n3}, (n3,), tuple(((source, shift, _ONE),) for source, shift in (
           (ZERO, None), ("KQbar-", 2), ("KQFq-", 2), ("KO", 7), ("KQbar-", 1), ("KQFq-", 1),
           ("KO", 6), ("KQbar-", 0), ("KQFq-", 0), (ZERO, None)))),))
      for n3 in (3, 11)),
)


def check_les(field: FieldSpec, col: dict) -> list[CheckReport]:
    """The exact-sequence necessary conditions of _SEQUENCES, on a 2-regular
    field and its columns (see run_all)."""
    r = field.r
    reports = []
    for name, rule, details, windows in _SEQUENCES:
        failure = None
        for at, degrees, positions in windows:
            groups = []
            for n in degrees:
                for terms in positions:
                    total = None
                    for source, shift, (a, b) in terms:
                        group = (col[source](n + shift) if shift is not None
                                 else source if isinstance(source, FgAb2) else source(field))
                        copies = a * r + b
                        group = group if copies == 1 else n_copies(copies, group)
                        total = group if total is None else direct_sum(total, group)
                    groups.append(total)
            groups = tuple(groups)
            passed = (ses_consistent(*groups) if rule == "ses" else exact_window_check(groups)
                      if rule == "orders" else alternating_rank_sum(groups) == 0)
            if not passed:
                formatted = [format_group(g) for g in groups]
                failure = dict(zip("abc", formatted)) if rule == "ses" else {**at, "groups": formatted}
                break
        reports.append(CheckReport(name, failure is None, details.format(*groups), failure))
    return reports


def check_t_w(a: int, q: int, n_max: int) -> CheckReport:
    """The identity t(n, q) = w((n+1)/2, a) for n = 3 (mod 4), at a field's
    2-adic parameter a and an admissible q for it."""
    name = "valuation identity t(n, q) = w((n+1)/2, a)"
    degrees = range(3, n_max + 1, 4)
    for n in degrees:
        lhs, rhs = tb.t(n, q), tb.w((n + 1) // 2, a)
        if lhs != rhs:
            return CheckReport(name, False, f"fails at a={a}, q={q}, n={n}",
                               {"a": a, "q": q, "n": n, "t": lhs, "w": rhs})
    return CheckReport(name, True, f"all n = 3 (mod 4), n <= {n_max} ({len(degrees)} cases)")


def _check_low_degrees(field: FieldSpec, col: dict) -> CheckReport:
    """KQ of each sign in degrees 0 and 1 against tables.low_dim, which
    reads no stored row."""
    name = "low-degree computations agree with the table"
    for eps in (1, -1):
        low, kq = tb.low_dim(field, eps), col["KQ" + _SIGN[eps]]
        for n in (0, 1):
            if low[n] != kq(n):
                at = {"n": n, "eps": eps}
                return CheckReport(name, False, f"first failure at {at}",
                                   {**at, "expected": format_group(low[n]), "actual": format_group(kq(n))})
    return CheckReport(name, True, "degrees 0 and 1, both signs (4 cases)")


def run_all(spec: FieldSpec, q: int | None = None, n_max: int = 64) -> list[CheckReport]:
    """Full consistency suite for one 2-regular field: the field, q and
    n_max are checked here once, and every check reads the one column of
    each theory with a degree axis built here."""
    field = require_two_regular(spec)
    q = choose_q(field, q)
    if n_max < N_MAX_LEAST:
        raise ValueError(f"n_max must be >= {N_MAX_LEAST}, got {n_max}")
    col = {name: tb.column(tag, field, q) for name, tag in tb.THEORIES.items() if tag.needs_degree}
    reports = check_splittings(field, col, n_max)
    reports += check_les(field, col)
    reports += [check_t_w(field.a, q, min(4 * n_max, 400)), _check_low_degrees(field, col)]
    return sorted(reports, key=lambda rep: rep.name)


def reports_to_json(reports: Iterable[CheckReport]) -> list[dict]:
    return [rep.to_json() for rep in reports]
