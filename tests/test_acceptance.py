"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with ``pytest -s tests/test_acceptance.py`` to see them).

Two sub-assertions are recorded as strict expected failures; each sits next
to a passing test that asserts the value forced by the cross-checked tables
and documents why the alternative number cannot hold.
"""

import random
import time
from contextlib import contextmanager

import pytest

from kq2 import adams as ad
from kq2 import numtheory as nt
from kq2 import tables as tb
from kq2 import verify as vf
from kq2.abgroup import C, C2, Z, n_copies, parse_group
from kq2.fields import (
    Generic,
    Rationals,
    RealQuadratic,
    choose_q,
    find_q_for_a,
    is_two_regular,
    require_two_regular,
    two_regular_oracle,
)

Q = Rationals()
SQUAREFREE_200 = [d for d in range(2, 201) if nt.squarefree_part(d)[0]]


def cell(name, n, field, q=None):
    """One group of a theory on a field, read through its column."""
    return tb.column(tb.THEORIES[name], field, q)(n)


def checked(spec, q):
    """The field and the columns that verify.run_all hands its checks: the
    2-regular field and the column of every theory with a degree axis."""
    field = require_two_regular(spec)
    q = choose_q(field, q)
    return field, {name: tb.column(tag, field, q) for name, tag in tb.THEORIES.items() if tag.needs_degree}


@contextmanager
def budget(criterion, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.3f}s, budget {seconds}s)")
    assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s ({elapsed:.3f}s)"


def test_criterion_1_rational_golden_values():
    """Rational field golden values (r = 1, a = 2, q = 3)."""
    with budget("1", 1.0):
        assert cell("KQ+", 1, Q) == C2(3)
        assert cell("KQ-", 3, Q) == C(16)
        assert cell("K", 3, Q) == C(16)  # 2-part of the classical K_3(Z) = Z/48
        assert cell("KQ-", 0, Q) == Z(1)
        # the orthogonal degree-3 group has order w(2, 2) = 8; the symplectic
        # and algebraic groups carry the doubled order 16
        assert cell("KQ+", 3, Q) == C(8)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented discrepancy: the orthogonal degree-3 torsion order is "
        "w(2, a) = 2^(a+1) = 8; the value 16 = 2*w(2, a) belongs to the "
        "symplectic and algebraic columns only.  Forcing 16 here would break "
        "the degree-3 splitting identity against the building-block table "
        "and the t = w valuation identity."
    ),
)
def test_criterion_1_literal_orthogonal_degree_3():
    assert cell("KQ+", 3, Q) == C(16)


def test_criterion_2_regularity_criterion_vs_oracle():
    """Criterion and class-group oracle agree on 2,732 fields: each of the
    2,432 squarefree d < 4000, and 300 squarefree d in (4000, 10^6] drawn
    log-uniformly with seed 2009."""
    rng = random.Random(2009)
    sample = set()
    while len(sample) < 300:
        d = round(4000 * 250 ** rng.random())
        if d > 4000 and nt.squarefree_part(d)[0]:
            sample.add(d)
    fields = [d for d in range(2, 4000) if nt.squarefree_part(d)[0]] + sorted(sample)
    assert len(fields) == 2732
    with budget("2", 30.0):
        for d in fields:
            spec = RealQuadratic(d)
            assert two_regular_oracle(spec).two_regular == is_two_regular(spec)[0], d
        for d in (2, 3, 5, 6, 10, 11, 13):
            assert is_two_regular(RealQuadratic(d))[0], d
        for d in (7, 17, 33, 34):
            assert not is_two_regular(RealQuadratic(d))[0], d
        inv7 = two_regular_oracle(RealQuadratic(7))
        assert any("signs fail" in r for r in inv7.reasons)
        inv34 = two_regular_oracle(RealQuadratic(34))
        assert any("even order" in r for r in inv34.reasons)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented discrepancy: 14 = 2*7 with 7 = -1 (mod 8), so Q(sqrt 14) "
        "fails the quadratic regularity criterion, and the oracle agrees: "
        "the fundamental unit 15 + 4*sqrt(14) and the dyadic generator "
        "4 + sqrt(14) are both totally positive, so units of independent "
        "signs fail (the narrow Picard group of the 2-integers is Z/2)."
    ),
)
def test_criterion_2_literal_d14_regular():
    assert is_two_regular(RealQuadratic(14))[0]


def test_criterion_3_valuation_property_sweep():
    """Closed-form 2-parts of q^m - 1 agree with the modular oracle,
    all odd q <= 99, m <= 64 (3136 cases)."""
    with budget("3", 1.0):
        mod = 1 << 128
        cases = 0
        for q in range(3, 100, 2):
            for m in range(1, 65):
                residue = (pow(q, m, mod) - 1) % mod
                assert residue != 0
                assert nt.val2_q_power(q, m) == nt.two_part(residue), (q, m)
                cases += 1
        assert cases == 3136


def test_criterion_4_t_equals_w():
    """t(n, q) = w((n+1)/2, a) for a in 2..5, q = find_q_for_a(a), n = 3 mod 4,
    n <= 400."""
    with budget("4", 1.0):
        for a in (2, 3, 4, 5):
            q = find_q_for_a(a)
            for n in range(3, 401, 4):
                assert tb.t(n, q) == tb.w((n + 1) // 2, a), (a, q, n)


def test_criterion_5_splitting_identities():
    """All five splitting identities for r in {1, 2, 4, 8}, n <= 64,
    including the degree 7 mod 8 resolution in the K identity."""
    with budget("5", 1.0):
        for r in (1, 2, 4, 8):
            spec = Generic(r=r, a=2, regular_claim=True)
            field, col = checked(spec, 3)
            reports = [rep for rep in vf.check_splittings(field, col, 64)
                       if rep.name.startswith("splitting ")]
            assert len(reports) == 5
            failures = [rep for rep in reports if not rep.passed]
            assert not failures, failures
        # the resolved degree 7 mod 8 order, explicitly
        assert cell("Kbar", 7, Q) == C(tb.w(4, 2))
        assert cell("Kbar", 15, Q) == C(tb.w(8, 2))


def test_criterion_6_v_plus_wedge_and_periodicity():
    """V+ equals 2r copies of KO and is exactly 8-periodic, n <= 64,
    r in {1, 2, 4}."""
    with budget("6", 1.0):
        for r in (1, 2, 4):
            spec = Generic(r=r, a=2, regular_claim=True)
            for n in range(0, 65):
                assert cell("V+", n, spec) == n_copies(2 * r, cell("KO", n, spec)), (r, n)
                assert cell("V+", n, spec) == cell("V+", n + 8, spec), (r, n)


def test_criterion_7_exact_sequence_conditions():
    """Mayer-Vietoris rank counts, the two short exact sequences, and the
    degree 3 mod 8 telescoping window."""
    with budget("7", 1.0):
        for spec in (Q, RealQuadratic(6), Generic(r=4, a=2, regular_claim=True)):
            reports = vf.check_les(*checked(spec, None))
            failures = [rep for rep in reports if not rep.passed]
            assert not failures, (spec, failures)
            names = [rep.name for rep in reports]
            assert sum("Mayer-Vietoris" in n for n in names) == 2
            assert sum("short exact" in n or "coWitt" in n for n in names) == 3
            assert sum("telescoping" in n for n in names) == 2


def test_criterion_8_fault_injection():
    """Perturbing any single stored table row trips at least one check."""
    with budget("8", 60.0):
        spec, q = RealQuadratic(6), 3
        assert all(rep.passed for rep in vf.run_all(spec, q, 16))
        sites = tb.fault_sites()
        assert len(sites) == 72  # 9 tables of 8 rows
        undetected = []
        for site in sites:
            with tb.fault_injection(*site):
                if all(rep.passed for rep in vf.run_all(spec, q, 16)):
                    undetected.append(site)
        assert not undetected, f"blind spots: {undetected}"


def test_criterion_9_parity_obstruction():
    """The bracket's u^(2q) coefficient is odd for every odd q in [3, 199],
    and its constant term is 3(q^4 - 1)."""
    with budget("9", 5.0):
        for q in range(3, 200, 2):
            coeffs = ad.bracket(q)
            assert coeffs[2 * q] % 2 == 1, q
            assert coeffs[0] == 3 * (q**4 - 1), q


def test_criterion_10_number_theory_oracles():
    """Fundamental units verify their norm equations for all squarefree
    d <= 200; class numbers match the reduced-forms enumeration."""
    with budget("10", 30.0):
        for d in SQUAREFREE_200:
            u = nt.quadratic_data(d).unit
            assert u.x * u.x - d * u.y * u.y == u.norm * u.denom**2, d
            assert u.norm in (1, -1)
            if u.denom == 2:
                assert d % 4 == 1 and (u.x - u.y) % 2 == 0
        assert nt.quadratic_data(10).classes.h == 2
        assert nt.quadratic_data(2).classes.h == 1
        assert nt.quadratic_data(15).classes.h == 2


def test_acceptance_summary_values():
    """A few cross-module spot values quoted elsewhere in the suite."""
    assert parse_group("Z/2 + Z/16") == cell("KQ-", 3, RealQuadratic(6))
    assert find_q_for_a(3) == 7
    assert tb.t(7, 7) == 32
