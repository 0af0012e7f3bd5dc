import dataclasses
import tracemalloc

import pytest

from kq2 import fields as f
from kq2 import numtheory as nt
from kq2.errors import (
    BoundExceeded,
    InadmissibleQ,
    InvalidSpec,
    NotPrimitiveRoot,
    NotTwoRegular,
)

Q = f.Rationals()

SQUAREFREE_60 = [d for d in range(2, 61) if nt.squarefree_part(d)[0]]


def test_real_embeddings():
    assert Q.r == 1
    assert f.MaxRealCyclo2(4).r == 4
    assert f.MaxRealCycloOdd(11).r == 5
    assert f.RealQuadratic(6).r == 2
    assert f.Generic(r=8, a=2).r == 8


def test_a_param():
    assert Q.a == 2
    assert f.RealQuadratic(2).a == 3
    assert f.RealQuadratic(7).a == 2
    assert f.MaxRealCyclo2(5).a == 5
    assert f.MaxRealCycloOdd(11).a == 2


def test_validate_spec():
    # each family checks its invariants on construction
    with pytest.raises(InvalidSpec):
        f.RealQuadratic(12)  # not squarefree
    with pytest.raises(InvalidSpec):
        f.RealQuadratic(1)
    with pytest.raises(InvalidSpec):
        f.MaxRealCyclo2(1)
    with pytest.raises(InvalidSpec):
        f.MaxRealCycloOdd(15)  # not a prime power
    with pytest.raises(InvalidSpec):
        f.Generic(r=0, a=2)


def test_two_regular_criterion_examples():
    assert f.is_two_regular(f.RealQuadratic(5))[0]
    assert not f.is_two_regular(f.RealQuadratic(34))[0]
    assert not f.is_two_regular(f.MaxRealCycloOdd(29))[0]
    assert f.is_two_regular(Q)[0]
    assert f.is_two_regular(f.MaxRealCyclo2(3))[0]
    assert f.is_two_regular(f.MaxRealCycloOdd(5))[0]
    assert f.is_two_regular(f.MaxRealCycloOdd(11))[0]


@pytest.mark.parametrize("m", [83, 107])
def test_cyclotomic_criterion_sophie_germain_row(m):
    # phi(m) > 66, and m = 3 (mod 8) with (m-1)/2 prime
    field = f.MaxRealCycloOdd(m)
    assert field.regular
    assert field.reason == f"m = {m} and (m-1)/2 both prime with m != 7 (mod 8)"


def test_cyclotomic_criterion_outside_the_certified_list():
    # phi(101) = 100 > 66 and 50 is not prime, so no row of the criterion
    # certifies m = 101 and it is reported as not 2-regular; this pins the
    # current verdict, which deciding the cyclotomic verdict (ROADMAP item
    # 9) will change, and this test with it
    field = f.MaxRealCycloOdd(101)
    assert not field.regular
    assert field.reason == "m = 101 is outside the certified list"


def test_two_regular_requires_primitive_root():
    with pytest.raises(NotPrimitiveRoot):
        f.is_two_regular(f.MaxRealCycloOdd(7))  # 2^3 = 1 mod 7


def test_generic_claims():
    assert f.is_two_regular(f.Generic(r=2, a=2, regular_claim=True))[0]
    assert not f.is_two_regular(f.Generic(r=2, a=2, regular_claim=False))[0]
    assert f.is_unverified_generic(f.Generic(r=2, a=2))
    assert not f.is_unverified_generic(f.Generic(r=2, a=2, regular_claim=True))
    assert not f.is_unverified_generic(f.Generic(r=2, a=2, regular_claim=False))
    assert not f.is_unverified_generic(f.Rationals())
    assert f.is_two_regular(f.Generic(r=2, a=2))[0]  # unverified but usable


@pytest.mark.parametrize("d", SQUAREFREE_60)
def test_criterion_agrees_with_oracle(d):
    crit, _ = f.is_two_regular(f.RealQuadratic(d))
    inv = f.two_regular_oracle(f.RealQuadratic(d))
    assert inv.two_regular == crit
    if inv.two_regular:
        assert inv.dyadic_count == 1
        assert inv.pic_odd is True
        assert inv.units_indep_signs is True
        # unique dyadic prime: odd narrow Picard group iff odd Picard group
        # together with units of independent signs
        assert inv.narrow_pic_odd is True


def test_oracle_reasons():
    inv7 = f.two_regular_oracle(f.RealQuadratic(7))
    assert not inv7.two_regular
    assert any("signs fail" in r for r in inv7.reasons)
    assert inv7.pic_odd is True

    inv34 = f.two_regular_oracle(f.RealQuadratic(34))
    assert not inv34.two_regular
    assert any("even order" in r for r in inv34.reasons)

    inv17 = f.two_regular_oracle(f.RealQuadratic(17))
    assert inv17.dyadic_count == 2 and not inv17.two_regular

    inv10 = f.two_regular_oracle(f.RealQuadratic(10))
    assert inv10.two_regular


def assert_narrow_and_wide_characterizations_agree(d):
    # unique dyadic prime + odd narrow Picard group is equivalent to
    # unique dyadic prime + odd Picard group + units of independent signs;
    # the narrow class group reads no unit sign, so this checks the norm
    # rule for independent signs
    inv = f.two_regular_oracle(f.RealQuadratic(d))
    via_narrow = inv.dyadic_count == 1 and inv.narrow_pic_odd
    via_units = inv.dyadic_count == 1 and inv.pic_odd and inv.units_indep_signs
    assert via_narrow == via_units == inv.two_regular, d


@pytest.mark.parametrize("d", SQUAREFREE_60)
def test_narrow_and_wide_characterizations_agree(d):
    assert_narrow_and_wide_characterizations_agree(d)


def test_narrow_and_wide_characterizations_agree_below_3000():
    # every squarefree d < 3000 past SQUAREFREE_60, in every class mod 8
    for d in range(61, 3000):
        if nt.squarefree_part(d)[0]:
            assert_narrow_and_wide_characterizations_agree(d)


# One d per class mod 8: split (145), ramified with a norm -2 element (34),
# ramified (35, 30, 15) and inert with a norm +1 fundamental unit (21).
@pytest.mark.parametrize("d", [145, 34, 35, 21, 30, 15])
def test_oracle_computes_each_invariant_once(monkeypatch, d):
    calls = {}

    def count(name):
        fn = getattr(nt, name)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.setdefault(name, []).append((args, result))
            return result

        monkeypatch.setattr(nt, name, counted)

    spec = f.RealQuadratic(d)  # the one squarefree test of d
    names = ("_quadratic_data", "_reduced_form_keys", "_form_cycles", "_fundamental_unit", "_norm_two_element",
             "factorize")
    for name in names:
        count(name)
    f.two_regular_oracle(spec)
    assert len(calls["_quadratic_data"]) == 1
    assert "factorize" not in calls  # the spec was checked on construction
    assert len(calls["_reduced_form_keys"]) == 1  # the enumeration the cycle walk reads
    [(_, (cycle_of, _))] = calls["_form_cycles"]  # the one walk
    # the unit is read off the walk's own index, whose keys start with the period
    [((_, D, index), (_, *period))] = calls["_fundamental_unit"]
    assert D == (d if d % 4 == 1 else 4 * d) and index is cycle_of
    if d % 4 in (2, 3):
        # 2 ramified: the norm +-2 search reads the period lists the unit
        # was built from instead of expanding sqrt(d) again
        [((d_arg, *read), _)] = calls["_norm_two_element"]
        assert d_arg == d and len(read) == len(period) == 2 and all(x is y for x, y in zip(read, period))
    else:
        assert "_norm_two_element" not in calls


def test_oracle_rejects_non_quadratic():
    with pytest.raises(InvalidSpec):
        f.two_regular_oracle(Q)


def test_admissible_q():
    assert f.is_admissible_q(3, 2)
    assert f.is_admissible_q(5, 2)
    assert not f.is_admissible_q(7, 2)  # 7 = -1 mod 8 violates the exclusion
    assert not f.is_admissible_q(2, 2)
    assert not f.is_admissible_q(9, 2)  # not prime
    assert f.is_admissible_q(7, f.RealQuadratic(2).a)


def test_admissible_q_is_the_congruence_definition():
    # max(v2(q - 1), v2(q + 1)) = a exactly when q = +-1 (mod 2^a) but not
    # (mod 2^(a+1)); a = 0 and a = 1 admit no prime
    for q in range(3, 20000, 2):
        if nt.is_prime(q):
            for a in range(20):
                m, m2 = 1 << a, 1 << (a + 1)
                congruence = q % m in (1, m - 1) and q % m2 not in (1, m2 - 1)
                assert f.is_admissible_q(q, a) == congruence, (q, a)
    # no 2^a is built: a negative a is no error, and a huge one costs no memory
    assert not f.is_admissible_q(5, -1)
    assert not f.is_admissible_q(5, 10**9)


def test_find_q():
    assert f.choose_q(Q, None) == 3
    assert f.choose_q(f.RealQuadratic(2), None) == 7
    assert [f.find_q_for_a(a) for a in (2, 3, 4, 5)] == [3, 7, 17, 31]
    for a in range(2, 8):
        q = f.find_q_for_a(a)
        assert f.is_admissible_q(q, a)
    # for a = 2 the admissible primes are exactly those +-3 mod 8
    for q in (3, 5, 11, 13, 19, 29):
        assert f.is_admissible_q(q, 2) and q % 8 in (3, 5)


def test_choose_q_checks_a_given_q():
    field = f.RealQuadratic(2)
    assert f.choose_q(field, 7) == 7
    with pytest.raises(InadmissibleQ, match=r"^q = 3 is not congruence-admissible for Q\(sqrt 2\) \(a = 3\)$"):
        f.choose_q(field, 3)


def test_require_two_regular():
    with pytest.raises(NotTwoRegular):
        f.require_two_regular(f.RealQuadratic(34))
    with pytest.raises(InadmissibleQ):
        f.choose_q(Q, 7)


def test_parse_field_round_trips():
    for text, spec in [
        ("Q", Q),
        ("Q(sqrt 6)", f.RealQuadratic(6)),
        ("Q(sqrt6)", f.RealQuadratic(6)),
        ("Q(zeta 2^4)+", f.MaxRealCyclo2(4)),
        ("Q(zeta 11)+", f.MaxRealCycloOdd(11)),
        ("Q(zeta 8)+", f.MaxRealCyclo2(3)),
        ("generic r=4 a=2 regular", f.Generic(r=4, a=2, regular_claim=True)),
        ("generic r=4 a=3", f.Generic(r=4, a=3)),
    ]:
        assert f.parse_field(text) == spec


def test_parse_field_errors():
    with pytest.raises(f.FieldSyntaxError):
        f.parse_field("Q[sqrt 6]")
    with pytest.raises(InvalidSpec):
        f.parse_field("Q(sqrt 12)")


def _find_q_linear(a, limit=10**7):
    """Reference: the scan over every odd q that find_q_for_a replaced."""
    m, m2 = 1 << a, 1 << (a + 1)
    q = 3
    while q < limit:
        if q % m in (1, m - 1) and q % m2 not in (1, m2 - 1) and nt.is_prime(q):
            return q
        q += 2
    raise InadmissibleQ(f"no admissible prime below {limit} for a = {a}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InadmissibleQ as exc:
        return str(exc)


@pytest.mark.parametrize("a", range(2, 21))
def test_find_q_residue_walk_matches_linear_scan(a):
    assert _outcome(f.find_q_for_a, a) == _outcome(_find_q_linear, a)


# limits just at and above the first admissible prime, and one with none below
@pytest.mark.parametrize("a, limit", [(3, 7), (3, 8), (2, 3), (2, 4), (4, 17), (4, 18), (6, 191), (6, 192),
                                      (20, 10**6), (1, 100)])
def test_find_q_residue_walk_respects_the_limit(monkeypatch, a, limit):
    monkeypatch.setattr(f, "Q_SEARCH_BOUND", limit)
    assert _outcome(f.find_q_for_a, a) == _outcome(_find_q_linear, a, limit)


def test_find_q_without_a_residue_below_the_limit_tests_no_prime(monkeypatch):
    def refuse(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr(nt, "is_prime", refuse)
    with pytest.raises(InadmissibleQ, match="for a = 40"):
        f.find_q_for_a(40)


@pytest.mark.parametrize("a", [-1, 10**9])
def test_find_q_rejects_an_a_out_of_range_before_any_search(monkeypatch, a):
    # no residue is admissible for a < 2, and 2^a - 1 passes the bound for
    # a >= 24, so neither tests a prime or builds 2^a (125 MB at a = 10^9)
    def refuse(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr(nt, "is_prime", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(InadmissibleQ, match=rf"^no admissible prime below 10000000 for a = {a}$"):
            f.find_q_for_a(a)
        assert tracemalloc.get_traced_memory()[1] < 10**6
    finally:
        tracemalloc.stop()


# one spec of every family, and its (r, a, regular, reason)
FAMILY_SPECS = {
    Q: (1, 2, True, "the rationals are 2-regular"),
    f.RealQuadratic(6): (2, 2, True, "d = 2*3 with 3 = 3 (mod 8)"),
    f.RealQuadratic(34): (2, 2, False, "d = 2*17 but 17 = 1 (mod 8) is not +-3 (mod 8)"),
    f.MaxRealCyclo2(4): (4, 4, True, "maximal real 2-power cyclotomic fields are 2-regular"),
    f.MaxRealCycloOdd(11): (5, 2, True, "phi(11) = 10 <= 66"),
    f.Generic(r=3, a=2, regular_claim=True): (3, 2, True, "caller claims 2-regular"),
    f.Generic(r=2, a=3): (2, 3, True, "generic spec without verification data (treated as claimed regular)"),
}


# a spec resolves itself when it is built; what it resolves is no field of
# the record
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=str)
def test_resolve_reads_the_spec_once(spec):
    assert (spec.r, spec.a, spec.regular, spec.reason) == FAMILY_SPECS[spec]
    assert (spec.regular, spec.reason) == f.is_two_regular(spec)
    assert {"regular", "reason"}.isdisjoint(spec._fields)


def test_resolve_keeps_the_errors_of_the_criterion():
    with pytest.raises(InvalidSpec):
        f.RealQuadratic(12)
    # 2^3 = 1 (mod 7): the spec itself refuses m = 7
    with pytest.raises(NotPrimitiveRoot):
        f.MaxRealCycloOdd(7)


def test_require_two_regular_on_a_record():
    with pytest.raises(NotTwoRegular, match=r"^Q\(sqrt 34\) is not 2-regular: "):
        f.require_two_regular(f.RealQuadratic(34))
    field = f.RealQuadratic(6)
    assert f.require_two_regular(field) is field


def test_oracle_failing_matches_the_reason_keywords():
    # the keyword match that the CLI used before the oracle listed its failures
    for d in range(2, 400):
        if nt.squarefree_part(d)[0]:
            inv = f.two_regular_oracle(f.RealQuadratic(d))
            keyed = tuple(r for r in inv.reasons if "fail" in r or "even order" in r or "two dyadic" in r)
            assert inv.failing == keyed, d


def test_oracle_bound_comes_before_any_factorization(monkeypatch):
    def refuse(n, *args):
        raise AssertionError("factorize called")

    spec = f.RealQuadratic(1000003)  # a prime above the bound
    monkeypatch.setattr(nt, "factorize", refuse)
    with pytest.raises(BoundExceeded):
        f.two_regular_oracle(spec)


def test_a_spec_is_checked_on_replace():
    # a spec is changed only by building a new one, which checks itself;
    # dataclasses.replace is no unchecked copy route, and no field can be
    # assigned or deleted in place
    spec = f.RealQuadratic(6)
    with pytest.raises(TypeError):
        dataclasses.replace(spec, d=12)
    with pytest.raises(AttributeError):
        spec.d = 12
    with pytest.raises(AttributeError):
        del spec.d
    assert spec == f.RealQuadratic(6)
    with pytest.raises(InvalidSpec):
        f.RealQuadratic(12)


@pytest.mark.parametrize("fn", [f.is_two_regular, f.require_two_regular],
                         ids=lambda fn: fn.__name__)
def test_a_non_spec_is_an_invalid_spec(fn):
    with pytest.raises(InvalidSpec, match="unknown field spec"):
        fn("Q(sqrt 6)")


def test_b_bound_comes_before_the_embedding_count():
    assert f.MaxRealCyclo2(f.B_BOUND).r == 2 ** (f.B_BOUND - 2)
    with pytest.raises(BoundExceeded, match=f"b must be <= {f.B_BOUND}"):
        f.MaxRealCyclo2(f.B_BOUND + 1)


def test_generic_a_bound_comes_before_any_power_of_two():
    at = f.Generic(r=1, a=f.B_BOUND, regular_claim=True)
    assert at.a == f.B_BOUND and not f.is_admissible_q(3, f.B_BOUND)
    with pytest.raises(BoundExceeded, match=f"a <= {f.B_BOUND}"):
        f.Generic(r=1, a=f.B_BOUND + 1)


def test_r_bound_holds_for_tables_only():
    at, above = (f.Generic(r=r, a=2, regular_claim=True) for r in (f.R_BOUND, f.R_BOUND + 1))
    assert f.require_two_regular(at).r == f.R_BOUND
    assert above.regular and f.choose_q(above, None) == 3
    with pytest.raises(BoundExceeded, match=f"r <= {f.R_BOUND}"):
        f.require_two_regular(above)
    with pytest.raises(BoundExceeded):
        f.require_two_regular(f.MaxRealCyclo2(13))  # r = 2^11
