"""Cross-validation of every inter-table identity and exact-sequence
constraint.

A passing suite certifies that the stored tables are mutually consistent as
isomorphism classes: nine identities over the degrees (the five
splittings, the wedge description of the orthogonal V-theory, U as the
sign-swapped V-theory one degree down, the 8-periodicity of V and KQFq+ as
the complement of KO in the building block), the Mayer-Vietoris rank count
for the pullback defining the barred theories, short-exact-sequence and
order-telescoping necessary conditions, the valuation identity
t(n, q) = w((n+1)/2, a), and the low-degree computations.  Boundary maps
are not modeled, so the checks are necessary-condition checks; they do not
by themselves prove the tables correct.  Fault injection in the tests adds
one Z/2 to each of the 72 stored rows of tables.fault_sites() in turn, KO
and KU included, and on the fields of the tests the suite rejects every one
but the 8 KU rows on Q.
KFq, KQFq+ and KQFq- are derived from the KO and KU rows, and the building
block KQbar+ is the kq_rf+ table on r = 1, so the report that KQFq+
complements KO in the building block checks the stored kq_rf+ rows against
that derivation.
The low-degree computations read no stored row, so the low-degree report
compares two independent derivations.  A group reads its degree only
through its period degree (tables.period_degree), so each equality report
over the degrees compares the cells of a point at their period degrees,
its key, once per distinct key, and counts its points arithmetically.
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
    from collections.abc import Callable, Iterable

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


def _equality_report(name: str, firsts: dict[tuple, tuple], count: int, compare: Callable,
                     params: Callable[..., dict], details: str) -> CheckReport:
    """Check ``compare(*key) = (expected, actual)`` for equality at each key
    of ``firsts``, which maps the distinct keys (the period degrees and sign
    of the cells compared) of ``count`` points to their first points, in
    point order; the counterexample holds ``params(*point)`` of the first
    failing key's point, the first failing point."""
    for key, point in firsts.items():
        expected, actual = compare(*key)
        if expected != actual:
            at = params(*point)
            return CheckReport(name, False, f"first failure at {at}",
                               {**at, "expected": format_group(expected), "actual": format_group(actual)})
    return CheckReport(name, True, f"{details} ({count} cases)")


def _report(name: str, passed: bool, details: str, counterexample: Callable[[], dict]) -> CheckReport:
    """A report whose counterexample is built only when the check fails."""
    return CheckReport(name, passed, details, None if passed else counterexample())


_SIGN = {1: "+", -1: "-"}


# The nine identities lhs(n) = block(n) + m(r) top(n + s), first <= n <= n_max,
# one report each: the report name, the first degree, the theories (lhs,
# block or None, top) of each sign (the key None for a report with no sign
# axis), the copies m of top as a function of r, the shift s, and the
# counterexample fields ahead of expected and actual ("identity" names lhs).
_IDENTITIES = (
    ("splitting KQ+ = KQbar+ + (r-1) KO", 0, {None: ("KQ+", "KQbar+", "KO")},
     lambda r: r - 1, 0, ("identity", "n", "r")),
    ("splitting KQ- = KQbar- + (r-1) KO[6]", 0, {None: ("KQ-", "KQbar-", "KO")},
     lambda r: r - 1, 6, ("identity", "n", "r")),
    ("splitting V+ = Vbar+ + 2(r-1) KO", 0, {None: ("V+", "Vbar+", "KO")},
     lambda r: 2 * (r - 1), 0, ("identity", "n", "r")),
    ("splitting V- = Vbar- + (r-1) KU", 0, {None: ("V-", "Vbar-", "KU")},
     lambda r: r - 1, 0, ("identity", "n", "r")),
    ("splitting K = Kbar + (r-1) KO[-1] (fixes the degree 7 mod 8 order as w(4k+4))", 1,
     {None: ("K", "Kbar", "KO")}, lambda r: r - 1, -1, ("identity", "n", "r")),
    ("V+ is 2r copies of KO", 0, {None: ("V+", None, "KO")}, lambda r: 2 * r, 0, ("n", "r")),
    ("U-theory is sign-swapped V-theory shifted by one", 1,
     {1: ("U+", None, "V-"), -1: ("U-", None, "V+")}, lambda r: 1, -1, ("n", "eps")),
    ("V-theory 8-periodicity", 0,
     {1: ("V+", None, "V+"), -1: ("V-", None, "V-")}, lambda r: 1, 8, ("n", "eps")),
    ("orthogonal finite-field groups complement KO in the building block", 0,
     {None: ("KQbar+", "KQFq+", "KO")}, lambda r: 1, 0, ("n",)),
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
    (period degree of n, of n + s, eps), with eps None where no sign is."""
    reports = []
    walks: dict[tuple[int, int], dict] = {}  # four distinct (first, shift) among the nine rows
    for name, first, theories, copies, shift, fields in _IDENTITIES:
        if (first, shift) not in walks:
            walks[first, shift] = _first_degrees(first, shift, n_max)
        firsts = {(*key, eps): (n, eps) for key, n in walks[first, shift].items() for eps in theories}
        compare, params = _identity_checks(field.r, col, theories, copies, fields)
        details = f"n <= {n_max}" if first == 0 else f"{first} <= n <= {n_max}"
        count = len(theories) * (n_max - first + 1)
        reports.append(_equality_report(name, firsts, count, compare, params, details))
    return reports


def _identity_checks(r: int, col: dict, theories: dict, copies: Callable[[int], int],
                     fields: tuple[str, ...]) -> tuple[Callable, Callable]:
    """compare and params of one row of _IDENTITIES, each sign's columns
    looked up once."""
    m = copies(r)
    cols = {eps: (col[lhs], None if block is None else col[block], col[top])
            for eps, (lhs, block, top) in theories.items()}

    def compare(p: int, p_top: int, eps: int | None) -> tuple[FgAb2, FgAb2]:
        lhs, block, top = cols[eps]
        added = n_copies(m, top(p_top))
        return lhs(p), added if block is None else direct_sum(block(p), added)

    def params(n: int, eps: int | None) -> dict:
        at = {"identity": theories[eps][0], "n": n, "r": r, "eps": eps}
        return {key: at[key] for key in fields}

    return compare, params


def _mv_window(col: dict, r: int, eps: int, n_lo: int, n_hi: int) -> tuple[FgAb2, ...]:
    """One stretch of the Mayer-Vietoris sequence for the pullback that
    defines the barred theory, ordered as it appears in the sequence:

        ... -> r * KQ_{n+1}(C) -> KQbar_n -> KQ_n(Fq) + r * KQ_n(R)
            -> r * KQ_n(C) -> ...
    """
    block, finite = col["KQbar" + _SIGN[eps]], col["KQFq" + _SIGN[eps]]
    ko, ku = col["KO"], col["KU"]
    groups: list[FgAb2] = []
    for n in range(n_hi, n_lo - 1, -1):
        # KQ of R is KO + KO (eps = +1) or KU (eps = -1); KQ of C is KO,
        # four degrees up for eps = -1
        groups.append(n_copies(r, ko(n + 1) if eps == 1 else ko(n + 5)))
        groups.append(direct_sum(block(n), n_copies(r - 1, ko(n) if eps == 1 else ko(n + 6))))
        groups.append(direct_sum(finite(n), n_copies(2 * r, ko(n)) if eps == 1 else n_copies(r, ku(n))))
    return tuple(groups)


def check_les(field: FieldSpec, col: dict) -> list[CheckReport]:
    """Exact-sequence necessary conditions, on a 2-regular field and its
    columns (see run_all).

    (a) the Mayer-Vietoris rank Euler characteristic vanishes over a full
        period, for both signs;
    (b) the K_1 sequence and the two coWitt sequences pass the rank/order
        consistency test for short exact sequences;
    (c) the all-finite vertical window in degrees 3 mod 8 telescopes.
    """
    r = field.r
    reports: list[CheckReport] = []

    for eps in (1, -1):
        failure = None
        for n_lo in (1, 9):
            window = _mv_window(col, r, eps, n_lo, n_lo + 7)
            if alternating_rank_sum(window) != 0:
                failure = {
                    "eps": eps,
                    "degrees": f"{n_lo}..{n_lo + 7}",
                    "groups": [format_group(g) for g in window],
                }
                break
        reports.append(
            CheckReport(
                f"Mayer-Vietoris rank Euler characteristic (eps = {eps:+d})",
                failure is None,
                "full periods, degrees 1..8 and 9..16",
                failure,
            )
        )

    # K_1: 0 -> r*K_2(C) -> K_1(R_F) -> r*K_1(R) + K_1(Fq) -> 0
    # coWitt discriminant rows: 0 -> Z^r -> Z^r + Z/2 -> (Z/2)^(r+1) -> 0
    for name, a, b, c in (
        ("K_1 short exact sequence rank/order consistency",
         n_copies(r, col["KU"](2)), col["K"](1), direct_sum(C2(r), col["KFq"](1))),
        ("coWitt discriminant sequence (2-integers row)",
         Z(r), tb.cowitt(field), tb.square_classes(field)),
        ("coWitt discriminant sequence (archimedean/residue row)",
         Z(r), direct_sum(Z(r), C2(1)), direct_sum(C2(r), C2(1))),
    ):
        reports.append(_report(name, ses_consistent(a, b, c), f"0 -> {a} -> {b} -> {c} -> 0",
                               lambda: {"a": format_group(a), "b": format_group(b), "c": format_group(c)}))

    # vertical window through degree 3 mod 8 (all groups finite):
    # 0 -> KQbar-(8k+5) -> KQFq-(8k+5) -> KO(8k+10) -> KQbar-(8k+4)
    #   -> KQFq-(8k+4) -> KO(8k+9) -> KQbar-(8k+3) -> KQFq-(8k+3) -> 0
    # the right boundary map lands in a free group, hence is zero on torsion.
    for k in (0, 1):
        n3 = 8 * k + 3
        groups = (
            ZERO,
            col["KQbar-"](n3 + 2),
            col["KQFq-"](n3 + 2),
            col["KO"](n3 + 7),
            col["KQbar-"](n3 + 1),
            col["KQFq-"](n3 + 1),
            col["KO"](n3 + 6),
            col["KQbar-"](n3),
            col["KQFq-"](n3),
            ZERO,
        )
        reports.append(
            _report(
                f"vertical sequence telescoping through degree {n3}",
                exact_window_check(groups),
                "alternating product of orders equals 1",
                lambda: {"n": n3, "groups": [format_group(g) for g in groups]},
            )
        )
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
    low = {eps: tb.low_dim(field, eps) for eps in (1, -1)}
    points = {(n, eps): (n, eps) for eps in (1, -1) for n in (0, 1)}
    return _equality_report("low-degree computations agree with the table", points, len(points),
                            lambda n, eps: (low[eps][n], col["KQ" + _SIGN[eps]](n)),
                            lambda n, eps: {"n": n, "eps": eps}, "degrees 0 and 1, both signs")


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
