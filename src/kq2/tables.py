"""Closed-form 2-primary group tables.

Nine tables, 72 rows, are stored as data indexed by n mod 8 (see _ROWS).
A row is a tuple of terms, each a number of copies of Z or of a cyclic
2-group, that read the parameters r (real embeddings) and a (2-adic size),
and of the degree only [n = 0] and e = nu2(n // 8 + 1).  ``_eval_row`` is
the one evaluator of a row, and ``_stored(table, params)`` the one reader
of the row store, with ``params(field, q) -> (r, a)``: the theories over
the ring of 2-integers R_F read the field's r and a and require a
2-regular field; the barred building blocks and the topological theories
read r = 1 and do not.  KQbar+ is the kq_rf+ table on r = 1.  No row reads
the auxiliary prime q: the building blocks KQbar+- read a = v2(q^2 - 1) - 1,
which is the field's a for an admissible q.  The derived theories read
their sources through the registry THEORIES: V+ is 2r copies of KO and
Vbar+ two, U+- is V-+ one degree down, and the finite-field theories are
the fibers of the Adams operation psi^q - 1 on KO and KU.

Every theory of the registry is read through ``column(tag, field, q)``,
which checks the theory's rules once and returns its groups as a function
of the degree, from the row store as it stood when the column was built.
The groups are 8-periodic, except that degree 0 is its own class and
degrees 7 mod 8 also read e = nu2(n // 8 + 1): a degree n reads the same
rows as its period degree ``period_degree(n)``, and a column evaluates each
period class once.  The verification suite proves its own discriminating
power with ``fault_injection``, which swaps in a copy of one table with one
row given an extra Z/2 term.
"""

from __future__ import annotations

from .abgroup import C, C2, FgAb2, Z, ZERO, direct_sum, n_copies
from .errors import (
    DegreeOutOfRange,
    EvenN,
    NegativeDegree,
    OddM,
    UsageError,
)
from .fields import FieldSpec, require_spec, require_two_regular
from .numtheory import nu2, val2_q_power
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:  # collections.abc is not imported at run time, to keep start-up short
    from collections.abc import Callable


def w(m: int, a: int) -> int:
    """The torsion order 2^(a + nu2(m)) attached to even m."""
    if m % 2 != 0 or m < 2:
        raise OddM(f"w(m, a) needs even m >= 2, got m = {m}")
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    return 1 << (a + nu2(m))


def t(n: int, q: int) -> int:
    """The 2-part of q^((n+1)/2) - 1, defined for odd n >= 1."""
    if n % 2 == 0 or n < 1:
        raise EvenN(f"t(n, q) needs odd n >= 1, got n = {n}")
    return val2_q_power(q, (n + 1) // 2)


# ---------------------------------------------------------------------------
# Stored rows with fault injection


class fault_injection:
    """Temporarily corrupt one stored row by an extra Z/2 term, for the
    columns built inside ``with fault_injection(table, row): ...``."""

    def __init__(self, table: str, row: int) -> None:
        if table not in _ROWS:
            raise KeyError(f"unknown table {table!r}")
        if not 0 <= row < 8:
            raise ValueError(f"row must be in 0..7, got {row}")
        self._table, self._row = table, row

    def __enter__(self) -> None:
        rows = self._clean = _ROWS[self._table]
        i = self._row
        _ROWS[self._table] = rows[:i] + (rows[i] + (_Z2,),) + rows[i + 1:]

    def __exit__(self, *exc_info) -> None:
        _ROWS[self._table] = self._clean


def fault_sites() -> list[tuple[str, int]]:
    """Every (table, row) pair that fault_injection can perturb: all 72 rows."""
    return [(name, row) for name in sorted(_ROWS) for row in range(8)]


# A row is a tuple of summands (order, copies): the order is None for Z, or
# (x, y, c) for Z/2^(x*a + y*e + c) with e = nu2(n // 8 + 1), and the copies
# (u, v, z) count u*r + v + z*[n = 0].  So w(4k+2, a) = 2^(a + 1) is
# (1, 0, 1), 2w(4k+2, a) is (1, 0, 2) and w(4k+4, a) = 2^(a + 2 + e) is
# (1, 1, 2); e is read in degrees 7 mod 8 and [n = 0] in row 0 alone.
_Z1 = None, (0, 1, 0)  # Z
_ZR = None, (1, 0, 0)  # Z^r
_Z0 = None, (0, 0, 1)  # Z^[n = 0]
_Z2 = (0, 0, 1), (0, 1, 0)  # Z/2
_Z2R = (0, 0, 1), (1, 0, 0)  # (Z/2)^r
_Z2R1 = (0, 0, 1), (1, -1, 0)  # (Z/2)^(r-1)
_W2 = (1, 0, 1), (0, 1, 0)  # Z/w(4k+2, a)
_2W2 = (1, 0, 2), (0, 1, 0)  # Z/2w(4k+2, a)
_W4 = (1, 1, 2), (0, 1, 0)  # Z/w(4k+4, a)

# The one row store: every stored table, 8 rows each, indexed by n mod 8
_ROWS = {
    # hermitian K of R_F, orthogonal column
    "kq_rf+": (((None, (1, 0, 1)), _Z2), (((0, 0, 1), (1, 2, 0)),), (((0, 0, 1), (1, 1, 0)),),
               (_W2,), (_ZR,), (), (), (_W4,)),
    # hermitian K of R_F, symplectic column
    "kq_rf-": ((_Z0,), (), (_ZR,), (_Z2R1, _2W2), (_Z2R,), (_Z2,), (_ZR,), (_W4,)),
    # algebraic K of R_F
    "k_rf": ((_Z0,), (_ZR, _Z2), (_Z2R,), (_Z2R1, _2W2), (), (_ZR,), (), (_W4,)),
    # forgetful-map fiber V- of R_F; its twin v_bar- is the only check of
    # these rows, and V+ is 2r copies of KO
    "v_rf-": ((_ZR, _Z2), (), (_ZR,), (), (_ZR,), (_Z2,), (_ZR, _Z2), (_Z2,)),
    # one-real-place building block, hermitian symplectic: kq_rf- on r = 1,
    # stored as the only check of kq_rf- rows 2, 6 and 7; KQbar+ is kq_rf+
    # on r = 1
    "kq_bar-": ((_Z0,), (), (_Z1,), (_2W2,), (_Z2,), (_Z2,), (_Z1,), (_W4,)),
    # one-real-place building block, algebraic (n >= 1, so row 0 is read
    # from degree 8): k_rf on r = 1, stored as the only check of the k_rf
    # rows; the degree 7 mod 8 order w(4k+4) is the one choice compatible
    # with the K-theory splitting identity, which the verification suite
    # asserts
    "k_bar": ((), (_Z1, _Z2), (_Z2,), (_2W2,), (), (_Z1,), (), (_W4,)),
    # one-real-place building block, V-theory: v_rf- on r = 1, stored as the
    # only check of the v_rf- rows; Vbar+ is 2 copies of KO
    "v_bar-": ((_Z1, _Z2), (), (_Z1,), (), (_Z1,), (_Z2,), (_Z1, _Z2), (_Z2,)),
    # real topological K-theory, period 8; the finite-field theories are
    # derived from ko and ku (see _adams_fiber)
    "ko": ((_Z1,), (_Z2,), (_Z2,), (), (_Z1,), (), (), ()),
    # complex topological K-theory, period 2
    "ku": ((_Z1,), ()) * 4,
}


def _eval_row(row: tuple, n: int, r: int, a: int) -> FgAb2:
    """The group of one stored row in degree n on the params r and a, summed
    term by term through the shared values of Z, C, n_copies and
    direct_sum (Z[m] is Z(m) without the call); e is computed only for an
    order that reads it."""
    g = ZERO
    for order, (u, v, z) in row:
        copies = u * r + v + (z and n == 0)
        if order is None:
            term = Z[copies]
        else:
            x, y, c = order
            if y:
                c += nu2(n // 8 + 1)
            term = C[1 << (x * a + c)]
            if copies != 1:
                term = n_copies(copies, term)
        g = term if g is ZERO else direct_sum(g, term)
    return g


def _stored(table: str, params: Callable[[FieldSpec, int | None], tuple[int, int]]):
    """The reader builder of a stored table, the one reader of the row store.
    ``params(field, q)`` checks what the table needs of the field and q and
    returns the r and a its rows read; the reader reads the table as it is
    stored when the column is built."""
    def build(field: FieldSpec, q: int | None) -> Callable[[int], FgAb2]:
        r, a = params(field, q)
        rows = _ROWS[table]
        return lambda n: _eval_row(rows[n % 8], n, r, a)
    return build


def period_degree(n: int) -> int:
    """The least degree whose groups are those of degree n >= 0 in every
    theory: n itself below 8; else 8 in degrees 0 mod 8, n mod 8 in
    degrees 1 to 6 mod 8, and 8 * 2^e - 1 in degrees 7 mod 8, where
    e = nu2(n // 8 + 1).  The result is never above n.

    The paper's groups are 8-periodic, except that degree 0 is its own
    class and degrees 7 mod 8 also read e.  The stored rows read the degree
    only through n mod 8, [n = 0] and e: [n = 0] only in copies with z = 1,
    all in row 0, and e only in orders with y = 1, all in row 7, where
    w(4k + 4, a) = 2^(a + 2 + e) with k = n // 8; Kbar starts in degree 1.
    The cokernels of psi^q - 1 are 2-parts of
    q^m - 1 for m >= 1, and for odd q, by lifting the exponent, v2(q^m - 1)
    is v2(q - 1) for odd m and v2(q^2 - 1) for m = 2 (mod 4): it reads k
    only at m = 4(k + 1), that is in degrees 7 mod 8, and there through
    e alone."""
    if n < 8:
        return n
    row = n % 8
    if row == 7:
        m = n // 8 + 1
        return 8 * (m & -m) - 1  # m & -m = 2^e
    return row or 8


def period_degrees(stop: int) -> list[int]:
    """The period degrees of the degrees 0..stop - 1, in order: the one list
    that table walks the period classes by."""
    return list(map(period_degree, range(stop)))


def k_bar_uses_resolved_order(n: int) -> bool:
    """Degrees whose stored torsion order comes from the even-index
    convention w(4k+4) rather than a literal transcription."""
    return n % 8 == 7


# ---------------------------------------------------------------------------
# Witt-type groups and square classes


def witt(spec: FieldSpec) -> FgAb2:
    """Witt group of the 2-integers: Z^r + Z/2 for 2-regular fields."""
    return direct_sum(Z(require_two_regular(spec).r), C(2))


def cowitt(spec: FieldSpec) -> FgAb2:
    """CoWitt group; isomorphic to the Witt group in the 2-regular case."""
    return witt(spec)


def w1(spec: FieldSpec) -> FgAb2:
    """Degree-1 Witt group: the 2-torsion of Pic plus Z/2, and Pic is odd
    for 2-regular fields."""
    require_two_regular(spec)
    return C(2)


def square_classes(spec: FieldSpec) -> FgAb2:
    """Square classes of the 2-unit group: (Z/2)^(r+1)."""
    return C2(require_two_regular(spec).r + 1)


# ---------------------------------------------------------------------------
# Low degrees


def low_dim(spec: FieldSpec, eps: int) -> dict[int, FgAb2]:
    """Hermitian K-groups in degrees -1, 0, 1 from first principles, for
    eps = +1 or -1: the orthogonal group in degree 0 is Z + W(R_F)."""
    field = require_two_regular(spec)
    if eps == -1:
        return {-1: ZERO, 0: Z(1), 1: ZERO}
    return {-1: ZERO, 0: direct_sum(Z(1), witt(field)), 1: C2(field.r + 2)}


# ---------------------------------------------------------------------------
# Theory registry (shared by the CLI and the verification suite)

_ALIASES = {"WPRIME": "W'", "W′": "W'"}


class TheoryTag(Record):
    """One theory of the registry: its name, ``build(field, q)``, its sign,
    and its q and degree rules.  ``build`` checks what the theory needs of
    the field spec and returns the theory's unmemoized ``n -> group``
    reader; ``column`` calls it."""

    name: str
    build: Callable[[FieldSpec, int | None], Callable[[int | None], FgAb2]]
    eps: int | None = None
    needs_q: bool = False
    needs_degree: bool = True
    allows_degree_minus_one: bool = False

    @classmethod
    def parse(cls, text: str) -> "TheoryTag":
        tag = _PARSED.get(text.strip().upper())
        if tag is None:
            raise UsageError(f"unknown theory {text!r}; expected one of {', '.join(THEORIES)}")
        return tag

    def check_degree(self, n: int | None) -> None:
        """Raise UsageError if the theory has a degree axis and n is None."""
        if n is None and self.needs_degree:
            raise UsageError(f"theory {self.name} needs a degree")


def _on_field(field: FieldSpec, q: int | None) -> tuple[int, int]:
    """The params of a table over R_F: the r and a of a 2-regular field."""
    field = require_two_regular(field)
    return field.r, field.a


def _on_q(field: FieldSpec, q: int | None) -> tuple[int, int]:
    """The params of a building block KQbar: r = 1 and a = v2(q^2 - 1) - 1.
    For q admissible for the field this is the field's a, by lifting the
    exponent: v2(q^(4k+2) - 1) = a + 1 and v2(q^(4k+4) - 1) = a + 2 + e are
    the orders w(4k+2, a) and w(4k+4, a)."""
    return 1, val2_q_power(q, 2).bit_length() - 2


def _from_degree_1(name: str, build, shift: int = 0):
    """The reader builder of a theory that starts in degree 1: build's
    reader shift degrees down, and DegreeOutOfRange below degree 1."""
    def build_from_1(field: FieldSpec, q: int | None) -> Callable[[int], FgAb2]:
        read = build(field, q)

        def from_1(n: int) -> FgAb2:
            if n < 1:
                raise DegreeOutOfRange(f"theory {name} needs n >= 1, got {n}")
            return read(n - shift)
        return from_1
    return build_from_1


def _shifted(source: str, name: str):
    """The reader builder of U: THEORIES[source] one degree down."""
    return _from_degree_1(name, lambda field, q: THEORIES[source].build(field, q), 1)


def _constant(group_of):
    """The reader builder of a theory without a degree axis."""
    def build(field: FieldSpec, q: int | None) -> Callable[[int | None], FgAb2]:
        g = group_of(field)
        return lambda n: g
    return build


def _ko_copies(copies: Callable[[FieldSpec], int]):
    """The reader builder of copies(field) copies of KO: V+ and Vbar+."""
    def build(field: FieldSpec, q: int | None) -> Callable[[int], FgAb2]:
        m, ko = copies(field), THEORIES["KO"].build(field, q)
        return lambda n: n_copies(m, ko(n))
    return build


def _adams_fiber(source: str, shift: int, weight: Callable[[int], int]):
    """The reader builder of a finite-field theory: pi_n of the fiber F of
    psi^q - 1 on the theory X with pi_m X = THEORIES[source] at m + shift
    (Quillen, Annals 96, 1972; Friedlander, Topology 15, 1976).  KU gives
    KFq, KO gives KQFq+, and KSp, KO four degrees up, KQFq-.

    psi^q acts as q^weight(m) on the Z summands of pi_m X and as the
    identity on its torsion, a 2-group, since q is odd.  So pi_n F is
    coker(psi^q - 1 on pi_(n+1) X), the 2-part Z/val2_q_power(q,
    weight(n+1)) per Z plus the torsion, extended by ker(psi^q - 1 on
    pi_n X), the torsion plus, in degree 0 where the weight is 0, the Z
    summands.

    Both ends are Z/2 only in degrees 1 mod 8 of KQFq+ and 5 mod 8 of
    KQFq-, where pi_n F is Z/4 or (Z/2)^2, and the split sum is taken.  In
    degree 1 it is KQ_1(F_q) = O(F_q)^ab, detected by the determinant and
    the spinor norm (Friedlander).  In the other degrees the fiber sequence
    does not decide the extension, and the split sum is kept as the
    tabulated choice.  The eight pi_m are read when the column is built, so
    a fault on a ko or ku row reaches the derived columns built under it."""
    def build(field: FieldSpec, q: int | None) -> Callable[[int], FgAb2]:
        read = THEORIES[source].build(field, q)
        pi = tuple(read(m + shift) for m in range(8))  # pi_m X at m mod 8

        def fiber(n: int) -> FgAb2:
            above, here = pi[(n + 1) % 8], pi[n % 8]
            coker = (val2_q_power(q, weight(n + 1)),) * above.rank if above.rank else ()
            return FgAb2(0 if weight(n) else here.rank, coker + above.torsion + here.torsion)
        return fiber
    return build


THEORIES: dict[str, TheoryTag] = {tag.name: tag for tag in (
    TheoryTag("K", _stored("k_rf", _on_field)),
    TheoryTag("KQ+", _stored("kq_rf+", _on_field), 1, allows_degree_minus_one=True),
    TheoryTag("KQ-", _stored("kq_rf-", _on_field), -1, allows_degree_minus_one=True),
    TheoryTag("V+", _ko_copies(lambda field: 2 * require_two_regular(field).r), 1),
    TheoryTag("V-", _stored("v_rf-", _on_field), -1),
    TheoryTag("U+", _shifted("V-", "U+"), 1),
    TheoryTag("U-", _shifted("V+", "U-"), -1),
    TheoryTag("W", _constant(witt), needs_degree=False),
    TheoryTag("W'", _constant(cowitt), needs_degree=False),
    TheoryTag("W1", _constant(w1), needs_degree=False),
    TheoryTag("Kbar", _from_degree_1("Kbar", _stored("k_bar", lambda field, q: (1, require_spec(field).a)))),
    TheoryTag("KQbar+", _stored("kq_rf+", _on_q), 1, needs_q=True),
    TheoryTag("KQbar-", _stored("kq_bar-", _on_q), -1, needs_q=True),
    TheoryTag("Vbar+", _ko_copies(lambda field: 2), 1),
    TheoryTag("Vbar-", _stored("v_bar-", lambda field, q: (1, 2)), -1),
    TheoryTag("KO", _stored("ko", lambda field, q: (1, 2))),
    TheoryTag("KU", _stored("ku", lambda field, q: (1, 2))),
    TheoryTag("KFq", _adams_fiber("KU", 0, lambda m: m // 2), needs_q=True),
    TheoryTag("KQFq+", _adams_fiber("KO", 0, lambda m: m // 4 * 2), 1, needs_q=True),
    TheoryTag("KQFq-", _adams_fiber("KO", 4, lambda m: m // 4 * 2), -1, needs_q=True),
)}
_PARSED = {name.upper(): tag for name, tag in THEORIES.items()}
_PARSED.update((alias, THEORIES[name]) for alias, name in _ALIASES.items())


def column(tag: TheoryTag, field: FieldSpec, q: int | None) -> Callable[[int | None], FgAb2]:
    """The groups of one theory on one field as a function of the degree:
    ``column(tag, field, q)(n)``.

    The theory's rules are checked here, once per column and not once per
    cell: q must be given where the theory reads it, and the tables over the
    2-integers need a 2-regular field.  Each period class of degrees (see
    period_degree) is evaluated once per column, at its period degree, and
    a degree read again is one dict lookup; a negative degree of a theory
    with a degree axis raises NegativeDegree, which names the theory.  The
    column reads the row store as it stood when it was built (see
    fault_injection)."""
    if tag.needs_q and q is None:
        raise UsageError(f"theory {tag.name} needs q")
    read = tag.build(field, q)
    if not tag.needs_degree:
        return read
    return _Column(tag.name, read)


class _Column(dict):
    """The groups of one theory by degree, filled as they are read.  The
    reader does not refer back to the column, so no reference cycle leaves
    a column to the cyclic garbage collector."""

    def __init__(self, name: str, read: Callable[[int], FgAb2]) -> None:
        super().__init__()
        self.name, self.read = name, read

    def __missing__(self, n: int) -> FgAb2:
        if n < 0:
            raise NegativeDegree(f"theory {self.name} needs n >= 0, got {n}")
        p = period_degree(n)
        g = self[n] = self.read(n) if p == n else self[p]
        return g

    __call__ = dict.__getitem__


def query(tag: TheoryTag, n: int | None, spec: FieldSpec, q: int | None) -> FgAb2:
    """Evaluate one theory at one degree, under the degree and q rules of
    its registry entry; n = -1 goes to the low-degree computation."""
    tag.check_degree(n)
    if tag.needs_degree:
        if tag.allows_degree_minus_one and n == -1:
            return low_dim(spec, tag.eps)[-1]
        if n < 0:
            raise NegativeDegree(f"theory {tag.name} needs n >= 0, got {n}")
    return column(tag, spec, q)(n)
