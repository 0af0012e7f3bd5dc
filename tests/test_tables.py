import hashlib
import pickle

import pytest

from kq2 import tables as tb
from kq2.abgroup import C, C2, Z, ZERO, direct_sum, format_group, n_copies, parse_group
from kq2.errors import (
    DegreeOutOfRange,
    EvenN,
    EvenQ,
    NegativeDegree,
    NotTwoRegular,
    OddM,
    UsageError,
)
from kq2.cli import N_MAX_BOUND
from kq2.fields import Generic, Rationals, RealQuadratic, choose_q, parse_field

Q = Rationals()
D6 = RealQuadratic(6)
R2 = Generic(r=2, a=2, regular_claim=True)


def G(text):
    return parse_group(text)


def cell(name, n, field, q=None):
    """One group of a theory on a field, read through its column."""
    return tb.column(tb.THEORIES[name], field, q)(n)


SIGN = {1: "+", -1: "-"}


def test_w_examples():
    assert tb.w(2, 2) == 8
    assert tb.w(4, 2) == 16
    assert tb.w(6, 3) == 16
    with pytest.raises(OddM):
        tb.w(3, 2)
    with pytest.raises(ValueError):
        tb.w(2, 1)


def test_t_examples():
    assert tb.t(3, 3) == 8
    assert tb.t(7, 3) == 16
    assert tb.t(7, 7) == 32  # 7^4 - 1 = 2400 = 2^5 * 75
    with pytest.raises(EvenN):
        tb.t(4, 3)


def test_ko_ku():
    assert cell("KO", 2, Q) == C(2)
    assert cell("KO", 8, Q) == Z(1)
    assert cell("KU", 5, Q) == ZERO
    assert [cell("KO", n, Q) for n in range(8)] == [
        Z(1), C(2), C(2), ZERO, Z(1), ZERO, ZERO, ZERO,
    ]
    with pytest.raises(NegativeDegree):
        cell("KO", -1, Q)


@pytest.mark.parametrize("name, q", [("KQFq+", 5), ("KO", None), ("K", None), ("U+", None)])
def test_a_negative_degree_names_the_theory(name, q):
    # KQFq+ is derived from the ko rows, K reads the k_rf rows, U+ the v_rf- rows
    read = tb.column(tb.THEORIES[name], Q, q)
    message = f"theory {name} needs n >= 0, got -1"
    for _ in range(2):  # a failed read leaves nothing in the memo
        with pytest.raises(NegativeDegree) as caught:
            read(-1)
        assert str(caught.value) == message
    with tb.fault_injection("kq_rf+", 7), pytest.raises(NegativeDegree) as caught:
        read(-1)
    assert str(caught.value) == message


def test_kq_top():
    # KQ+ of R is KO + KO and KQ+ of C is KO; KQ- of R is KU and KQ- of C
    # is KO four degrees up
    ko, ku = tb.column(tb.THEORIES["KO"], Q, None), tb.column(tb.THEORIES["KU"], Q, None)
    assert direct_sum(ko(2), ko(2)) == C2(2)  # KQ+ of R in degree 2
    assert ku(1) == ZERO  # KQ- of R in degree 1
    assert ko(4) == Z(1)  # KQ- of C in degree 0


def test_k_fq():
    assert cell("KFq", 2, Q, 3) == ZERO
    assert cell("KFq", 1, Q, 3) == C(2)
    assert cell("KFq", 3, Q, 3) == C(8)
    assert cell("KFq", 0, Q, 3) == Z(1)
    assert cell("KFq", 7, Q, 3) == C(16)


def test_kq_fq():
    assert cell("KQFq+", 1, Q, 3) == C2(2)
    assert cell("KQFq-", 7, Q, 3) == C(16)
    assert cell("KQFq-", 0, Q, 3) == Z(1)
    assert cell("KQFq+", 0, Q, 3) == direct_sum(Z(1), C(2))
    assert cell("KQFq-", 5, Q, 3) == C2(2)
    assert cell("KQFq-", 3, Q, 3) == C(8)
    # the orthogonal groups complement KO inside the building block
    for n in range(0, 33):
        assert cell("KQbar+", n, Q, 3) == direct_sum(cell("KQFq+", n, Q, 3), cell("KO", n, Q))


def test_kq_rf_golden():
    assert cell("KQ+", 9, Q) == C2(3)
    assert cell("KQ-", 3, D6) == G("Z/2 + Z/16")
    assert cell("K", 3, Q) == C(16)
    assert cell("KQ+", 3, Q) == C(8)  # orthogonal value is w_2 = 8, not 16
    assert cell("KQ-", 0, Q) == Z(1)
    assert cell("KQ+", 0, Q) == G("Z^2 + Z/2")
    assert cell("KQ+", 1, Q) == C2(3)


def test_v_u_golden():
    assert cell("V+", 8, R2) == Z(4)
    assert cell("U-", 9, R2) == Z(4)
    assert cell("V-", 0, R2) == G("Z^2 + Z/2")
    with pytest.raises(DegreeOutOfRange):
        cell("U+", 0, Q)


def test_barred_tables():
    assert cell("KQbar-", 4, Q, 3) == C(2)
    assert cell("Vbar+", 0, Q) == Z(2)
    assert cell("Kbar", 1, Q) == G("Z + Z/2")
    assert cell("Kbar", 7, Q) == C(16)
    assert tb.k_bar_uses_resolved_order(7)
    assert not tb.k_bar_uses_resolved_order(3)
    with pytest.raises(DegreeOutOfRange):
        cell("Kbar", 0, Q)


def test_witt_groups():
    assert tb.witt(Q) == G("Z + Z/2")
    assert tb.cowitt(RealQuadratic(10)) == G("Z^2 + Z/2")
    assert tb.w1(Q) == C(2)
    assert tb.square_classes(RealQuadratic(5)) == C2(3)


def test_not_two_regular_is_loud():
    bad = RealQuadratic(34)
    for fn in (
        lambda: cell("K", 1, bad),
        lambda: cell("KQ+", 1, bad),
        lambda: cell("V+", 1, bad),
        lambda: tb.witt(bad),
        lambda: tb.w1(bad),
        lambda: tb.square_classes(bad),
        lambda: tb.low_dim(bad, 1),
    ):
        with pytest.raises(NotTwoRegular):
            fn()
    # the building block does not read the regularity verdict
    assert tb.query(tb.THEORIES["Kbar"], 3, bad, 3) == cell("Kbar", 3, Q)


def test_low_dim():
    assert tb.low_dim(Q, -1) == {-1: ZERO, 0: Z(1), 1: ZERO}
    assert tb.low_dim(Q, 1)[1] == C2(3)
    assert tb.low_dim(R2, 1)[1] == C2(4)
    for eps in (1, -1):
        ld = tb.low_dim(Q, eps)
        for n in (0, 1):
            assert ld[n] == cell("KQ" + SIGN[eps], n, Q)


def test_t_equals_w_on_admissible_pairs():
    for a in (2, 3, 4):
        q = choose_q(Generic(r=1, a=a, regular_claim=True), None)
        for n in range(3, 120, 4):
            assert tb.t(n, q) == tb.w((n + 1) // 2, a)
    # also a non-minimal admissible prime: 5 = -3 (mod 8) works for a = 2
    assert tb.t(11, 5) == tb.w(6, 2) == 8  # 5^6 - 1 = 15624 = 8 * 1953
    assert tb.t(7, 7) == tb.w(4, 3) == 32


def test_v_plus_is_wedge_of_ko():
    for r in (1, 2, 4):
        spec = Generic(r=r, a=2, regular_claim=True)
        for n in range(0, 32):
            assert cell("V+", n, spec) == n_copies(2 * r, cell("KO", n, Q))


def test_periodicity():
    for n in range(0, 24):
        for eps in (1, -1):
            assert cell("V" + SIGN[eps], n, R2) == cell("V" + SIGN[eps], n + 8, R2)
    # K and KQ rows repeat except in degrees 7 mod 8 where the torsion
    # order grows with k through w(4k+4)
    for n in range(1, 24):
        if n % 8 != 7:
            assert cell("K", n, Q) == cell("K", n + 8, Q)
            assert cell("KQ+", n, Q) == cell("KQ+", n + 8, Q)
            assert cell("KQ-", n, Q) == cell("KQ-", n + 8, Q)
    assert cell("K", 7, Q) == C(16)
    assert cell("K", 15, Q) == C(32)  # template-periodic, not value-periodic


def test_u_is_shifted_v():
    for n in range(1, 25):
        for eps in (1, -1):
            assert cell("U" + SIGN[eps], n, R2) == cell("V" + SIGN[-eps], n - 1, R2)


def test_theory_dispatch():
    assert tb.query(tb.TheoryTag.parse("KQ-"), 3, D6, 3) == G("Z/2 + Z/16")
    assert tb.query(tb.TheoryTag.parse("W"), None, Q, None) == G("Z + Z/2")
    assert tb.query(tb.TheoryTag.parse("w'"), None, Q, None) == G("Z + Z/2")
    assert tb.query(tb.TheoryTag.parse("KQ+"), -1, Q, None) == ZERO
    assert tb.query(tb.TheoryTag.parse("KO"), 2, Q, None) == C(2)
    assert tb.query(tb.TheoryTag.parse("KFq"), 3, Q, 3) == C(8)
    with pytest.raises(UsageError):
        tb.TheoryTag.parse("nope")
    with pytest.raises(UsageError):
        tb.query(tb.TheoryTag.parse("K"), None, Q, None)


def test_registry_names_parse():
    # every name and alias, in any case; anything else names the choices
    for name, tag in tb.THEORIES.items():
        for text in (name, name.lower(), name.upper(), name.swapcase(), f" {name}\t"):
            assert tb.TheoryTag.parse(text) is tag
    for alias in ("WPRIME", "W′", " wprime ", "WPrime"):
        assert tb.TheoryTag.parse(alias) is tb.THEORIES["W'"]
    for text in ("kq", "K Q+", "W''", ""):
        with pytest.raises(UsageError) as raised:
            tb.TheoryTag.parse(text)
        assert str(raised.value) == (
            f"unknown theory {text!r}; expected one of K, KQ+, KQ-, V+, V-, U+, U-, W, W', W1,"
            " Kbar, KQbar+, KQbar-, Vbar+, Vbar-, KO, KU, KFq, KQFq+, KQFq-"
        )


def test_fault_injection_is_scoped():
    clean = cell("KQbar-", 4, Q, 3)
    with tb.fault_injection("kq_bar-", 4):
        assert cell("KQbar-", 4, Q, 3) != clean
    assert cell("KQbar-", 4, Q, 3) == clean
    assert len(tb.fault_sites()) == 72  # 9 tables of 8 rows, ko and ku included
    with pytest.raises(KeyError):
        tb.fault_injection("kq_bar+", 0)  # derived, not stored
    for row in (-1, 8):
        with pytest.raises(ValueError):
            tb.fault_injection("ko", row)


@pytest.mark.parametrize("q", [3, 5, 7, 17, 31, 127, 257])
def test_the_stored_building_blocks_are_their_rf_tables_on_one_real_place(q):
    # a = v2(q^2 - 1) - 1 takes the values 2, 2, 3, 4, 5, 7 and 8, most of
    # them past the fields that verify reaches; kq_bar-, k_bar and v_bar-
    # are stored as the only check of their R_F twins, and must agree with
    # them on r = 1 at every period class up to the CLI bound
    a = _a_of_q(q)
    one = Generic(r=1, a=a, regular_claim=True)
    degrees = sorted(set(tb.period_degrees(N_MAX_BOUND + 1)))
    for block, rf, field, first in (("KQbar-", "KQ-", Q, 0), ("Kbar", "K", one, 1), ("Vbar-", "V-", Q, 0)):
        read_block, read_rf = tb.column(tb.THEORIES[block], field, q), tb.column(tb.THEORIES[rf], one, None)
        assert [read_block(n) for n in degrees[first:]] == [read_rf(n) for n in degrees[first:]], (block, q)


@pytest.mark.parametrize("name", ["KQbar+", "KQbar-"])
def test_a_building_block_refuses_an_even_q_when_its_column_is_built(name):
    # a is read from q when the column is built, so no degree is needed
    with pytest.raises(EvenQ, match=r"^q must be odd and >= 3, got 4$"):
        tb.column(tb.THEORIES[name], Q, 4)


# the finite-field theories are derived from the ko and ku rows, so a fault
# on one of those rows reaches the derived columns built under it
DERIVED_FROM = {"ko": ("KQFq+", "KQFq-"), "ku": ("KFq",)}


def test_topological_row_faults_reach_the_finite_field_columns():
    for table, names in DERIVED_FROM.items():
        clean = {name: [cell(name, n, Q, 3) for n in range(17)] for name in names}
        for row in range(8):
            with tb.fault_injection(table, row):
                for name in names:
                    assert [cell(name, n, Q, 3) for n in range(17)] != clean[name], (table, row, name)



def test_a_mixed_homotopy_group_splits_into_its_free_and_torsion_parts():
    # a ko row 0 fault makes pi_0 KO = Z + Z/2: psi^q - 1 is q^4 - 1 on the
    # Z in degree 8 and 0 on the Z/2, so the Z leaves the kernel there while
    # the Z/2 stays in both the kernel and the cokernel
    with tb.fault_injection("ko", 0):
        read = tb.column(tb.THEORIES["KQFq+"], Q, 3)
        assert [read(n) for n in (0, 7, 8)] == [direct_sum(Z(1), C2(2)), direct_sum(C(2), C(16)), C2(2)]
    read = tb.column(tb.THEORIES["KQFq+"], Q, 3)
    assert [read(n) for n in (0, 7, 8)] == [direct_sum(Z(1), C(2)), C(16), C(2)]


GOLDEN_SHA256 = "bf1534835ee003463accdff6b480dc7033b2555695a57c893ec720c152b0f07d"
GOLDEN_FIELDS = ("Q", "Q(sqrt 2)", "Q(sqrt 6)", "Q(zeta 2^4)+", "Q(zeta 11)+",
                 "generic r=3 a=2 regular")


def _golden_lines():
    """One line per (field, q, theory, n): the formatted group or the type
    of the exception query raised."""
    for text in GOLDEN_FIELDS:
        spec = parse_field(text)
        for q in (choose_q(spec, None), None):
            for name, tag in sorted(tb.THEORIES.items()):
                degrees = [None] if not tag.needs_degree else []
                for n in degrees + list(range(-1, 41)):
                    try:
                        out = format_group(tb.query(tag, n, spec, q))
                    except Exception as exc:
                        out = type(exc).__name__
                    yield f"{text}|{q}|{name}|{n}|{out}"


def test_query_golden_digest():
    """Pins every theory's value or error on six fields, with and without q."""
    blob = "\n".join(_golden_lines()).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("text", GOLDEN_FIELDS)
def test_table_functions_agree_on_spec_and_record(text):
    # unpickling builds no spec anew: the copy reads what the spec resolved
    spec = parse_field(text)
    field = pickle.loads(pickle.dumps(spec))
    q = choose_q(field, None)
    for fn in (tb.witt, tb.cowitt, tb.w1, tb.square_classes):
        assert fn(field) == fn(spec)
    for eps in (1, -1):
        assert tb.low_dim(field, eps) == tb.low_dim(spec, eps)
    for n in range(0, 17):
        assert cell("K", n, field) == cell("K", n, spec)
        for eps in (1, -1):
            assert cell("KQ" + SIGN[eps], n, field) == cell("KQ" + SIGN[eps], n, spec)
            assert cell("V" + SIGN[eps], n, field) == cell("V" + SIGN[eps], n, spec)
            if n >= 1:
                assert cell("U" + SIGN[eps], n, field) == cell("U" + SIGN[eps], n, spec)
        for tag in tb.THEORIES.values():
            if tag.needs_degree and n >= 1:
                assert tb.query(tag, n, field, q) == tb.query(tag, n, spec, q)



# The column path against a brute-force reader of the stored rows.  The
# reference calls the rows of a copy of tb._ROWS taken before any fault on
# their own, and takes the injected fault as an argument; KO, KU and the
# finite-field theories are the closed forms of CLOSED_FORMS.

REFERENCE_FIELDS = ("Q", "Q(sqrt 2)", "Q(sqrt 6)", "Q(zeta 2^4)+", "Q(zeta 11)+")
# every degree up to 64, and 8 * 2^j - 1, where w(4k+4) grows, up to the CLI bound
REFERENCE_DEGREES = list(range(65)) + [8 * 2**j - 1 for j in range(4, 64) if 8 * 2**j - 1 <= N_MAX_BOUND]


CLEAN_ROWS = dict(tb._ROWS)


def _faulted(g, table, n, fault):
    return direct_sum(g, C(2)) if fault == (table, n % 8) else g


def _reference_row(table, n, r, a, fault):
    return _faulted(CLEAN_ROWS[table][n % 8](n, n // 8, r, a), table, n, fault)


def _a_of_q(q):
    """v2(q^2 - 1) - 1: the a that an odd prime q is admissible for."""
    m = q * q - 1
    return (m & -m).bit_length() - 2


# the stored table of each theory that reads the row store on the field
RF_TABLES = {"K": "k_rf", "KQ+": "kq_rf+", "KQ-": "kq_rf-", "V-": "v_rf-"}
# the building blocks that read a from q, and their tables on r = 1
BLOCK_TABLES = {"KQbar+": "kq_rf+", "KQbar-": "kq_bar-"}
# the theories that are copies of KO, and the number of copies
KO_COPIES = {"V+": lambda field: 2 * field.r, "Vbar+": lambda field: 2}


def _reference(name, n, field, q, fault):
    """The group of theory ``name`` in degree n, read from the stored rows;
    a finite-field theory whose ko or ku row is faulted is not covered."""
    if name in RF_TABLES:
        return _reference_row(RF_TABLES[name], n, field.r, field.a, fault)
    if name in ("U+", "U-"):  # V of the other sign, one degree down
        if n < 1:
            raise DegreeOutOfRange(n)
        return _reference("V-" if name == "U+" else "V+", n - 1, field, q, fault)
    if name == "Kbar":
        return _reference_row("k_bar", n, 1, field.a, fault)
    if name in BLOCK_TABLES:
        return _reference_row(BLOCK_TABLES[name], n, 1, _a_of_q(q), fault)
    if name == "Vbar-":
        return _reference_row("v_bar-", n, 1, 2, fault)
    if name in KO_COPIES:
        return n_copies(KO_COPIES[name](field), _reference("KO", n, field, q, fault))
    if name in TOPOLOGICAL:
        return _faulted(_closed_form(name, n, q), TOPOLOGICAL[name], n, fault)
    return _closed_form(name, n, q)


# the theories that _reference does not read from the rows, written out
# here: one period in n mod 8, where "t" stands for Z/t(n, q); the
# finite-field theories also have a Z in degree 0, and only there
CLOSED_FORMS = {
    "KO": (Z(1), C(2), C(2), ZERO, Z(1), ZERO, ZERO, ZERO),
    "KU": (Z(1), ZERO) * 4,
    "KFq": (ZERO, "t") * 4,
    "KQFq+": (C(2), C2(2), C(2), "t", ZERO, ZERO, ZERO, "t"),
    "KQFq-": (ZERO, ZERO, ZERO, "t", C(2), C2(2), C(2), "t"),
}
FINITE_FIELD = ("KFq", "KQFq+", "KQFq-")
TOPOLOGICAL = {"KO": "ko", "KU": "ku"}
# the table each finite-field theory is derived from
DERIVED_SOURCE = {name: table for table, names in DERIVED_FROM.items() for name in names}


def _closed_form(name, n, q):
    g = CLOSED_FORMS[name][n % 8]
    if g == "t":
        return C(tb.t(n, q))
    return direct_sum(Z(1), g) if n == 0 and name in FINITE_FIELD else g


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 1021])
def test_finite_field_columns_are_the_closed_forms(q):
    for name in FINITE_FIELD:
        read = tb.column(tb.THEORIES[name], Q, q)
        assert [read(n) for n in range(65)] == [_closed_form(name, n, q) for n in range(65)], name


def test_the_fiber_sequence_leaves_two_extensions_open():
    # pi_n of the fiber of psi^q - 1 is an extension of its kernel on pi_n
    # by its cokernel on pi_(n+1); the extension is open where the kernel is
    # torsion, which is where pi_n is Z/2, and the cokernel is not zero
    ko = CLOSED_FORMS["KO"]
    pi = {"KFq": CLOSED_FORMS["KU"], "KQFq+": ko, "KQFq-": ko[4:] + ko[:4]}  # KSp is KO four up
    open_degrees = {(name, n) for name, row in pi.items() for n in range(8)
                    if row[n].torsion and row[(n + 1) % 8] != ZERO}
    assert open_degrees == {("KQFq+", 1), ("KQFq-", 5)}
    for name, n in open_degrees:
        assert pi[name][n] == pi[name][n + 1] == C(2)  # the cokernel of psi^q - 1 = 0 is Z/2
        assert CLOSED_FORMS[name][n] == C2(2)  # the split sum


def _outcome(read, *args):
    try:
        return read(*args)
    except DegreeOutOfRange as exc:
        return type(exc)


@pytest.mark.parametrize("text", REFERENCE_FIELDS)
def test_every_column_matches_the_stored_rows(text):
    field = parse_field(text)
    q = choose_q(field, None)
    names = [name for name, tag in tb.THEORIES.items() if tag.needs_degree]
    assert len(names) == 17

    def columns():
        return {name: tb.column(tb.THEORIES[name], field, q) for name in names}

    def outcomes(read):
        return {(name, n): _outcome(read[name], n) for name in names for n in REFERENCE_DEGREES}

    # built before any fault: a column reads the rows stored when it was built
    clean_columns = columns()
    clean = {(name, n): _outcome(_reference, name, n, field, q, None)
             for name in names for n in REFERENCE_DEGREES}
    assert sum(isinstance(v, type) for v in clean.values()) == 3  # U+, U- and Kbar in degree 0
    assert outcomes(clean_columns) == clean
    for site in tb.fault_sites():
        with tb.fault_injection(*site):
            got = outcomes(columns())
            # a finite-field theory under a fault on its ko or ku row: the
            # unmemoized reader built under the same fault
            derived = {name: tag.build(field, q) for name, tag in tb.THEORIES.items()
                       if DERIVED_SOURCE.get(name) == site[0]}
            assert got == {(name, n): _outcome(derived[name], n) if name in derived
                           else _outcome(_reference, name, n, field, q, site)
                           for name, n in got}, site
            assert outcomes(clean_columns) == clean, site
        assert outcomes(columns()) == clean, site


PERIOD_FIELDS = ("Q", "Q(sqrt 2)", "Q(sqrt 6)", "Q(zeta 2^7)+", "Q(zeta 11)+", "generic r=3 a=4 regular")
DEGREE_THEORIES = [tag for tag in tb.THEORIES.values() if tag.needs_degree]


def test_period_degree_is_a_degree_of_the_same_class():
    for n in range(N_MAX_BOUND + 1):
        p = tb.period_degree(n)
        assert p <= n and p % 8 == n % 8 and (p == 0) == (n == 0)
        if n % 8 == 7:  # the same nu2(k + 1), which w(4k+4) reads
            assert tb.w(4 * (p // 8) + 4, 2) == tb.w(4 * (n // 8) + 4, 2)
    assert [tb.period_degree(n) for n in (7, 8, 16, 24, 32, 255, 263, 10000)] == [7, 8, 8, 8, 8, 255, 7, 8]
    assert len({tb.period_degree(n) for n in range(N_MAX_BOUND + 1)}) == 19
    assert len({tb.period_degree(n) for n in range(359)}) == 14


@pytest.mark.parametrize("text", PERIOD_FIELDS)
def test_columns_match_the_unmemoized_readers_at_every_degree(text):
    field = parse_field(text)
    degrees = range(N_MAX_BOUND + 1)
    for tag in DEGREE_THEORIES:
        for q in (3, 7, 1021) if tag.needs_q else (3,):  # the other theories read no q
            column, read = tb.column(tag, field, q), tag.build(field, q)
            assert [_outcome(column, n) for n in degrees] == [_outcome(read, n) for n in degrees], (tag.name, q)


def test_raw_readers_read_the_period_degree_under_every_fault():
    field = parse_field("generic r=3 a=4 regular")
    for site in tb.fault_sites():
        with tb.fault_injection(*site):  # a reader built outside would read no fault
            for name, read in [(tag.name, tag.build(field, 7)) for tag in DEGREE_THEORIES]:
                for n in range(513):
                    assert _outcome(read, n) == _outcome(read, tb.period_degree(n)), (site, name, n)


def _count_row_reads(monkeypatch):
    calls = []
    eval_row = tb._eval_row
    monkeypatch.setattr(tb, "_eval_row", lambda rows, n, r, a: calls.append(n) or eval_row(rows, n, r, a))
    return calls


def test_table_reads_each_period_class_once(monkeypatch, capsys):
    from kq2 import cli
    calls = _count_row_reads(monkeypatch)
    names = [tag.name for tag in DEGREE_THEORIES]
    assert cli.main(["table", "--n-max", str(N_MAX_BOUND), "--theories", ",".join(names), "--field", "Q"]) == 0
    assert sum(line[:1].isdigit() for line in capsys.readouterr().out.splitlines()) == N_MAX_BOUND + 1
    # one read per theory and period class, and the 8 rows each finite-field
    # column reads when it is built; 288 were counted
    assert 0 < len(calls) <= 17 * 19


@pytest.mark.parametrize("theories", [",".join(tag.name for tag in DEGREE_THEORIES), "KO,KU"])
@pytest.mark.parametrize("text", ["Q", "Q(zeta 2^5)+"])
def test_table_matches_the_unmemoized_readers_at_every_degree(text, theories, capsys):
    import json
    from kq2 import cli
    from kq2.abgroup import group_to_json
    assert cli.main(["table", "--json", "--n-max", "300", "--theories", theories, "--field", text]) == 0
    payload = json.loads(capsys.readouterr().out)
    field, q = parse_field(text), payload["q"]
    reads = {name: tb.THEORIES[name].build(field, q) for name in theories.split(",")}

    def expected(read, n):
        g = _outcome(read, n)
        return None if g is DegreeOutOfRange else {**group_to_json(g), "formatted": format_group(g)}

    # in most theories degrees 8 and 255 share n mod 8 with 0 and 7, not their groups
    assert [row["n"] for row in payload["results"]] == list(range(301))
    for row in payload["results"]:
        assert row["groups"] == {name: expected(read, row["n"]) for name, read in reads.items()}, row["n"]


def test_verify_reads_each_period_class_once(monkeypatch):
    from kq2 import verify
    calls = _count_row_reads(monkeypatch)
    assert all(rep.passed for rep in verify.run_all(parse_field("Q(zeta 11)+"), None, 350))
    assert 0 < len(calls) <= 17 * 14  # 14 period classes in n <= 358; 216 were counted
