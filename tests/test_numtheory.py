import functools
import math
import random

import pytest
from hypothesis import given, strategies as st

from kq2 import cli, numtheory as nt
from kq2.errors import BadModulus, BoundExceeded, EvenQ, NonPositive
from kq2.fields import MaxRealCycloOdd


def slow_two_part(n):
    out = 1
    while n % 2 == 0:
        n //= 2
        out *= 2
    return out


def test_nu2_two_part_examples():
    assert nt.nu2(8) == 3
    assert nt.two_part(80) == slow_two_part(80) == 16
    assert nt.two_part(7) == 1
    with pytest.raises(NonPositive):
        nt.nu2(0)
    with pytest.raises(NonPositive):
        nt.two_part(0)


@given(st.integers(1, 10**9))
def test_two_part_matches_repeated_division(n):
    assert nt.two_part(n) == slow_two_part(n)
    assert nt.two_part(n) == 2 ** nt.nu2(n)


def test_val2_q_power_examples():
    assert nt.val2_q_power(5, 4) == 16
    assert nt.val2_q_power(3, 3) == 2
    assert nt.val2_q_power(3, 4) == 16
    with pytest.raises(EvenQ):
        nt.val2_q_power(4, 2)
    with pytest.raises(BoundExceeded, match=r"^q must be odd and >= 3, got 1$"):
        nt.val2_q_power(1, 2)
    with pytest.raises(NonPositive):
        nt.val2_q_power(3, 0)


def modexp_two_part_oracle(q, m):
    # 2-part via modular exponentiation, modulus far above any possible answer
    mod = 1 << 128
    r = (pow(q, m, mod) - 1) % mod
    assert r != 0
    return nt.two_part(r)


@given(st.integers(1, 49).map(lambda k: 2 * k + 1), st.integers(1, 64))
def test_val2_q_power_matches_modular_oracle(q, m):
    assert nt.val2_q_power(q, m) == modexp_two_part_oracle(q, m)


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


def test_is_prime_examples():
    assert nt.is_prime(3)
    assert not nt.is_prime(561)  # Carmichael number, 3 * 187
    assert nt.is_prime(179)
    assert not nt.is_prime(1)


def test_is_prime_against_sieve():
    flags = sieve(20000)
    for n in range(2, 20000):
        assert nt.is_prime(n) == bool(flags[n]), n


def test_is_prime_large():
    assert nt.is_prime(2**61 - 1)
    assert not nt.is_prime((2**31 - 1) * (2**19 - 1))


# the twelve witnesses decide every n below psi_12 (Sorenson & Webster,
# 2017); psi_12 itself is a strong pseudoprime to all of them
def test_is_prime_stops_at_psi_12():
    psi_12 = nt.PRIME_BOUND
    assert psi_12 == 3317044064679887385961981 == 1287836182261 * 2575672364521
    with pytest.raises(BoundExceeded, match="primality is decided below"):
        nt.is_prime(psi_12)
    with pytest.raises(BoundExceeded):
        nt.is_prime(2**89 - 1)
    assert not nt.is_prime(psi_12 - 2)  # 17 * 1709 * 1366183751 * 83570142193
    assert not nt.is_prime(psi_12 - 14)  # 560159927 * 5921601858320521
    assert nt.is_prime(psi_12 - 168)  # the largest prime below psi_12


def test_squarefree_part_examples():
    assert nt.squarefree_part(34) == (True, (2, 17))
    assert nt.squarefree_part(12) == (False, (2, 2, 3))
    assert nt.squarefree_part(2) == (True, (2,))


def test_euler_phi_and_primitive_roots():
    # phi(m) = m / p * (p - 1) from the prime p that the spec keeps; r = phi / 2
    assert [MaxRealCycloOdd(m).r for m in (29, 25, 27)] == [14, 10, 9]
    assert nt.is_primitive_root(2, 5, 5)
    assert not nt.is_primitive_root(2, 7, 7)
    assert nt.is_primitive_root(2, 9, 3)
    assert not nt.is_primitive_root(3, 9, 3)  # not prime to m
    assert not nt.is_primitive_root(10, 25, 5)
    for m, p in [(15, 3), (15, 5), (9, 9), (9, 1), (8, 2), (1, 3), (0, 3), (-9, 3)]:
        with pytest.raises(BadModulus):
            nt.is_primitive_root(2, m, p)


def test_sophie_germain_type():
    assert nt.is_sophie_germain_type(11)
    assert all(nt.is_sophie_germain_type(m) for m in (5, 11, 59, 83, 107, 179))
    assert not nt.is_sophie_germain_type(13)


def test_fundamental_unit_examples():
    u2 = nt.quadratic_data(2).unit
    assert (u2.x, u2.y, u2.denom, u2.norm) == (1, 1, 1, -1)
    u3 = nt.quadratic_data(3).unit
    assert (u3.x, u3.y, u3.denom, u3.norm) == (2, 1, 1, 1)
    u5 = nt.quadratic_data(5).unit
    assert (u5.x, u5.y, u5.denom, u5.norm) == (1, 1, 2, -1)
    for d in (1, 0, -2, 12):  # d < 2 or not squarefree
        with pytest.raises(ValueError):
            nt.quadratic_data(d)


def brute_force_fundamental_unit(d):
    """Smallest unit > 1 of the maximal order, by exhaustive search on y."""
    denoms = (1, 2) if d % 4 == 1 else (1,)
    best = None
    for y in range(1, 20000):
        for denom in denoms:
            for sign in (1, -1):
                xx = d * y * y + sign * denom * denom
                if xx < 0:
                    continue
                x = math.isqrt(xx)
                if x * x != xx or (denom == 2 and (x - y) % 2 != 0):
                    continue
                value = (x + y * math.sqrt(d)) / denom
                if value > 1 and (best is None or value < best[0]):
                    best = (value, x, y, denom, sign)
        if best is not None:
            return best[1:]
    raise AssertionError(f"no unit found for d={d}")


@pytest.mark.parametrize("d", [d for d in range(2, 40) if nt.squarefree_part(d)[0]])
def test_fundamental_unit_is_minimal(d):
    x, y, denom, norm = brute_force_fundamental_unit(d)
    u = nt.quadratic_data(d).unit
    assert (u.x, u.y, u.denom, u.norm) == (x, y, denom, norm)


def test_fundamental_unit_norm_equation_exact():
    for d in range(2, 201):
        if not nt.squarefree_part(d)[0]:
            continue
        u = nt.quadratic_data(d).unit
        assert u.x * u.x - d * u.y * u.y == u.norm * u.denom**2
        assert u.norm in (1, -1)


def reference_fundamental_unit(d):
    """(x, y, denom, norm) of the automorph over one period of the continued
    fraction of the reduced generator (P0 + sqrt(d))/Q0 of the maximal
    order, expanded in states (P, Q) until the first state comes back."""
    s = math.isqrt(d)
    P0, Q0 = (s - 1 + s % 2, 2) if d % 4 == 1 else (s, 1)
    P, Q = P0, Q0
    q_prev, q_curr, length = 1, 0, 0  # q_{-2}, q_{-1}
    while length == 0 or (P, Q) != (P0, Q0):
        a = (P + s) // Q
        q_prev, q_curr, length = q_curr, a * q_curr + q_prev, length + 1
        P = a * Q - P
        Q = (d - P * P) // Q
    # q_{l-1} (P0 + sqrt d)/Q0 + q_{l-2} = (x + y sqrt d)/Q0
    x, y = q_curr * P0 + Q0 * q_prev, q_curr
    if Q0 == 2 and x % 2 == 0 and y % 2 == 0:
        x, y, Q0 = x // 2, y // 2, 1
    return x, y, Q0, (-1) ** length


def test_fundamental_unit_matches_the_continued_fraction():
    # the unit is read off half the orbit of the principal form; the full
    # continued-fraction period checks the rotation of its partial quotients
    # and the half-integer units of d = 1 (mod 4)
    for d in [d for d in range(2, 3000) if nt.squarefree_part(d)[0]] + seeded_large_d():
        u = nt.quadratic_data(d).unit
        assert (u.x, u.y, u.denom, u.norm) == reference_fundamental_unit(d), d


def kronecker(a, n):
    """Kronecker symbol (a | n); test-local oracle helper."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 == 1 and a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def analytic_class_number(d):
    """Dirichlet class number formula for real quadratic fields:
    h = -sum(chi(a) log(2 sin(pi a / D))) / (2 log eps)."""
    D = d if d % 4 == 1 else 4 * d
    u = nt.quadratic_data(d).unit
    eps = (u.x + u.y * math.sqrt(d)) / u.denom
    total = 0.0
    for a in range(1, D):
        chi = kronecker(D, a)
        if chi:
            total += chi * math.log(2 * math.sin(math.pi * a / D))
    return -total / (2 * math.log(eps))


def test_class_numbers_examples():
    assert nt.quadratic_data(2).classes.h == 1
    qd10 = nt.quadratic_data(10)
    assert qd10.classes.h == 2 and qd10.dyadic.class_order == 2
    qd34 = nt.quadratic_data(34)
    assert qd34.classes.h == 2 and qd34.dyadic.class_order == 1
    assert nt.quadratic_data(15).classes.h == 2
    assert nt.quadratic_data(5).classes.discriminant == 5
    assert nt.quadratic_data(6).classes.discriminant == 24
    for d in (1, 0, -2, 12):  # d < 2 or not squarefree
        with pytest.raises(ValueError):
            nt.quadratic_data(d)


# Larger fields, one to two per class of d mod 8 (two with h odd), where
# the sieve's progressions and cofactors differ most from trial division.
LARGE_CLASS_NUMBER_D = (10001, 10066, 10011, 99901, 99854, 10087)


def test_class_numbers_against_analytic_formula():
    small = [d for d in range(2, 201) if nt.squarefree_part(d)[0]]
    assert {d % 8 for d in LARGE_CLASS_NUMBER_D} == {1, 2, 3, 5, 6, 7}
    for d in small + list(LARGE_CLASS_NUMBER_D):
        cd = nt.quadratic_data(d).classes
        approx = analytic_class_number(d)
        assert abs(approx - cd.h) < 1e-6, (d, cd.h, approx)
        # narrow/wide relation driven by the unit norm
        if nt.quadratic_data(d).unit.norm == -1:
            assert cd.h_narrow == cd.h
        else:
            assert cd.h_narrow == 2 * cd.h


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def reduced_forms(D):
    """The reduced forms (a, b, c) with a > 0 that the oracle enumerates, decoded from their keys."""
    W = math.isqrt(D) + 1
    return {(a, b, (b * b - D) // (4 * a)) for a, b in (divmod(key, W) for key in nt._reduced_form_keys(D))}


@functools.cache
def reference_reduced_forms(D):
    """Every reduced form, of both signs of a, by trial division of each
    (D - b^2)/4: a brute-force reference for the walk over the leading
    coefficient a in numtheory._reduced_form_keys."""
    s = math.isqrt(D)
    forms = set()
    for b in range(1, s + 1):
        if (D - b * b) % 4 != 0:
            continue
        m = (D - b * b) // 4  # = -a*c > 0
        for a0 in _divisors(m):
            c0 = m // a0
            for a, c in ((a0, -c0), (-a0, c0)):
                f = (a, b, c)
                if nt._is_reduced(f, D):
                    forms.add(f)
    return frozenset(forms)


def negate(f):
    a, b, c = f
    return (-a, b, -c)


def field_discriminant(d):
    return d if d % 4 == 1 else 4 * d


def assert_positive_half_of_reference(D):
    ref = reference_reduced_forms(D)
    # closed under negation, so the forms with a > 0 determine all of them
    assert {negate(f) for f in ref} == ref
    assert reduced_forms(D) == {f for f in ref if f[0] > 0}


def test_reduced_forms_match_reference_small():
    for d in range(2, 3000):
        if nt.squarefree_part(d)[0]:
            assert_positive_half_of_reference(field_discriminant(d))


def seeded_large_d(seed=2009, per_class=2, low=10**5, high=10**6):
    rng = random.Random(seed)
    out = {r: [] for r in (1, 2, 3, 5, 6, 7)}
    while any(len(v) < per_class for v in out.values()):
        d = rng.randrange(low, high + 1)
        r = d % 8
        if r in out and len(out[r]) < per_class and nt.squarefree_part(d)[0]:
            out[r].append(d)
    return sorted(d for v in out.values() for d in v)


# Smaller leading coefficients a <= |c| that need lifted roots: 2^8 and the
# odd prime powers 9, 25, 27 for d = 999961 (D = 1 mod 8); a = 2 (D = 4d)
# and 169, 289 for d = 999983.
LIFTED_LEADS = {999961: {2**8, 9, 25, 27}, 999983: {2, 169, 289}}


@pytest.mark.parametrize("d", [*seeded_large_d(), *LIFTED_LEADS])
def test_reduced_forms_match_reference_large(d):
    D = field_discriminant(d)
    assert_positive_half_of_reference(D)
    assert LIFTED_LEADS.get(d, set()) <= {min(a, -c) for a, _, c in reduced_forms(D)}


def test_reduced_forms_match_reference_every_discriminant():
    # D need not be a field discriminant: where p^2 | D, a root divisible
    # by p lifts to several roots or to none
    for D in range(5, 4000):
        if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D:
            assert_positive_half_of_reference(D)


def test_reduced_forms_take_one_square_root_per_odd_prime(monkeypatch):
    calls = []
    sqrt_mod_prime = nt._sqrt_mod_prime

    def counted(n, p):
        calls.append(p)
        return sqrt_mod_prime(n, p)

    monkeypatch.setattr(nt, "_sqrt_mod_prime", counted)
    for d in (999961, 999983, 5 * 7 * 11 * 13 * 17):
        D = field_discriminant(d)
        calls.clear()
        reduced_forms(D)
        amax = math.isqrt((D - (2 - D % 2) ** 2) // 4)
        assert len(calls) == len(set(calls))
        assert all(2 < p <= amax and nt.is_prime(p) for p in calls)


def brute_rho(f, D):
    """rho(a, b, c) = (c, b', c'), with b' the largest value = -b (mod 2|c|)
    below sqrt(D), found by scanning."""
    _, b, c = f
    t = 2 * abs(c)
    b2 = max(x for x in range(math.isqrt(D), math.isqrt(D) - t, -1) if (x + b) % t == 0)
    return (c, b2, (b2 * b2 - D) // (4 * c))


@functools.cache
def reference_cycles(D):
    """The rho-cycles of every reduced form, both signs of a, walked one
    form at a time."""
    cycles, seen = [], set()
    for f in sorted(reference_reduced_forms(D)):
        if f in seen:
            continue
        cycle, g = set(), f
        while g not in cycle:
            cycle.add(g)
            g = brute_rho(g, D)
        assert g == f
        seen |= cycle
        cycles.append(frozenset(cycle))
    return tuple(cycles)


def assert_cycles_match_reference(D):
    keyed, negation = nt._form_cycles(D)
    # a form (a, b, c) with a > 0 is keyed a*W + b, with W = isqrt(D) + 1
    W = math.isqrt(D) + 1
    cycle_of = {}
    for k, i in keyed.items():
        a, b = divmod(k, W)
        cycle_of[(a, b, (b * b - D) // (4 * a))] = i
    assert set(cycle_of) == reduced_forms(D)

    def label(f):
        return cycle_of[f] if f[0] > 0 else negation[cycle_of[negate(f)]]

    cycles = reference_cycles(D)
    assert len(negation) == len(cycles)
    # the same partition of all reduced forms: one label per reference cycle
    labels = [{label(f) for f in cycle} for cycle in cycles]
    assert all(len(ls) == 1 for ls in labels)
    number = {cycle: ls.pop() for cycle, ls in zip(cycles, labels)}
    assert sorted(number.values()) == list(range(len(cycles)))
    # the same negation map
    for cycle in cycles:
        assert negation[number[cycle]] == number[frozenset(map(negate, cycle))]


def test_form_cycles_match_two_sign_walk_small():
    for d in range(2, 3000):
        if nt.squarefree_part(d)[0]:
            assert_cycles_match_reference(field_discriminant(d))


@pytest.mark.parametrize("d", seeded_large_d())
def test_form_cycles_match_two_sign_walk_large(d):
    assert_cycles_match_reference(field_discriminant(d))


def brute_force_root_classes(D, a):
    """The classes mod 2a of the b < 4a with b^2 = D (mod 4a), by trial."""
    return sorted({b % (2 * a) for b in range(4 * a) if (b * b - D) % (4 * a) == 0})


def test_two_power_roots_match_brute_force():
    for D in range(5, 2000):
        if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D:
            got = {}
            for a, roots in nt._two_power_roots(D):
                if a > 2**12:
                    break
                got[a] = roots
            expected = {}
            a = 1
            # a root mod 8a is one mod 4a, so the first a without roots ends them
            while a <= 2**12 and (roots := brute_force_root_classes(D, a)):
                expected[a] = roots
                a *= 2
            # sorted, not as sets: a root class listed twice fails too
            assert {a: sorted(roots) for a, roots in got.items()} == expected, D
            if D % 16 in (8, 12):  # D = 4d with d = 2, 3 (mod 4): no root mod 16
                assert list(got) == [1, 2], D


def reference_dyadic_orders(d):
    """(class order, narrow class order) of a dyadic prime of Q(sqrt d), 2
    not inert, read off the cycles of the two-sign walk: the first power
    whose form reduces onto the principal cycle (narrow), or onto it or its
    negation (wide)."""
    D = field_discriminant(d)
    label = {f: i for i, cycle in enumerate(reference_cycles(D)) for f in cycle}
    p = nt.principal_form(D)
    princ, neg = label[p], label[negate(p)]

    def cycles(k):
        a = 2**k
        forms = [(a, b, (b * b - D) // (4 * a)) for b in brute_force_root_classes(D, a)]
        return {label[nt._reduce_form(f, D, math.isqrt(D))] for f in forms}

    if d % 8 != 1:  # ramified: the square of the dyadic prime is (2)
        (c,) = cycles(1)
        return (1 if c in (princ, neg) else 2), (1 if c == princ else 2)
    order = narrow = None
    k = 0
    while order is None or narrow is None:
        k += 1
        found = cycles(k)
        if narrow is None and princ in found:
            narrow = k
        if order is None and found & {princ, neg}:
            order = k
    return order, narrow


def test_dyadic_orders_match_two_sign_walk():
    for d in range(2, 3000):
        if d % 8 != 5 and nt.squarefree_part(d)[0]:
            dy = nt.quadratic_data(d).dyadic
            assert (dy.class_order, dy.narrow_class_order) == reference_dyadic_orders(d), d


def test_cycles_are_self_negative_exactly_for_norm_minus_one():
    # Cl+ = Cl exactly when the fundamental unit has norm -1
    for d in [d for d in range(2, 3000) if nt.squarefree_part(d)[0]] + seeded_large_d():
        _, negation = nt._form_cycles(field_discriminant(d))
        self_negative = [negation[i] == i for i in range(len(negation))]
        assert all(self_negative) if nt.quadratic_data(d).unit.norm == -1 else not any(self_negative), d


def sigma_key(key, D):
    """The key of sigma(f) = -rho(f) for the form f = (a, b, c), a > 0, keyed
    a*W + b: the next a is -c, the next b the largest one = -b (mod 2a) up
    to isqrt(D)."""
    s = math.isqrt(D)
    a, b = divmod(key, s + 1)
    a = (b * b - D) // (-4 * a)
    return a * (s + 1) + max(x for x in range(s, s - 2 * a, -1) if (x + b) % (2 * a) == 0)


def _leaves_the_set(keys, D):
    # drop a form that sigma reaches from another one: the walk leaves the set there
    keys.pop(next(k for k in keys if sigma_key(k, D) != k))
    return "left the reduced-form set"


def _merges_cycles(keys, D):
    # add a form that is not reduced but whose sigma is: its walk runs into that cycle
    W = math.isqrt(D) + 1
    key = next(
        a * W + b
        for a in range(1, D)
        for b in range(W)
        if (D - b * b) % (4 * a) == 0 and a * W + b not in keys and sigma_key(a * W + b, D) in keys
    )
    a, b = divmod(key, W)
    assert not nt._is_reduced((a, b, (b * b - D) // (4 * a)), D)
    keys[key] = -1
    return "ran into another cycle"


@pytest.mark.parametrize("d", [10, 3])  # unit norm -1 and +1, each with h+ = 2
@pytest.mark.parametrize("mutant", [_leaves_the_set, _merges_cycles])
def test_a_broken_rho_fails_the_self_checks(monkeypatch, capsys, d, mutant):
    # the cycle walk steps by sigma = -rho over the keys the enumeration
    # returns; a key set one form short or one form long breaks its cycles
    real = nt._reduced_form_keys
    messages = set()

    def broken(D):
        keys = real(D)
        messages.add(mutant(keys, D))
        return keys

    monkeypatch.setattr(nt, "_reduced_form_keys", broken)
    with pytest.raises(RuntimeError) as raised:
        nt.quadratic_data(d)
    (message,) = messages
    assert message in str(raised.value)
    assert cli.main(["regular", "--oracle", "--field", f"Q(sqrt {d})"]) == cli.EXIT_VERIFY
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("d", [10, 3])
def test_a_negation_map_against_the_unit_norm_fails_the_self_check(monkeypatch, capsys, d):
    real = nt._form_cycles

    def flipped(D):
        # self-negative cycles become a pair and a pair becomes two self-negative cycles
        cycle_of, negation = real(D)
        assert len(negation) == 2
        return cycle_of, [negation[1], negation[0]]

    monkeypatch.setattr(nt, "_form_cycles", flipped)
    with pytest.raises(RuntimeError, match="their own negation"):
        nt.quadratic_data(d)
    assert cli.main(["regular", "--oracle", "--field", f"Q(sqrt {d})"]) == cli.EXIT_VERIFY
    assert "their own negation" in capsys.readouterr().err


def test_sqrt_mod_prime():
    for p in (3, 5, 7, 13, 17, 97, 193, 257, 7681):  # 7681 - 1 = 2^9 * 15
        squares = {x * x % p for x in range(p)}
        for n in range(0, p, max(1, p // 200)):
            r = nt._sqrt_mod_prime(n, p)
            assert (r is not None) == (n in squares), (n, p)
            if r is not None:
                assert r * r % p == n, (n, p)


def brute_force_norm_pm2(d):
    for y in range(0, 4000):
        for target in (2, -2):
            xx = d * y * y + target
            if xx >= 0 and math.isqrt(xx) ** 2 == xx:
                return (math.isqrt(xx), y, target)
    return None


def period_norm_two_element(d):
    """The oracle's norm +-2 generator of Q(sqrt d), read off the period of
    s + sqrt(d) when 2 is ramified, or None if it has none."""
    gen = nt.quadratic_data(d).dyadic.generator
    return gen if gen is not None and abs(gen.norm) == 2 else None


def reference_norm_two_element(d):
    """An element of norm +-2, or None: the convergents of sqrt(d), walked
    from (P, Q) = (0, 1) until Q = 2 or a state repeats."""
    if d == 2:
        return (0, 1, -2)
    if d == 3:
        return (1, 1, -2)
    s = math.isqrt(d)
    P, Q = 0, 1
    p_prev, p_curr = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_curr = 1, 0  # q_{-2}, q_{-1}
    seen_states = set()
    while (P, Q) not in seen_states:
        seen_states.add((P, Q))
        a = (P + s) // Q
        p_prev, p_curr = p_curr, a * p_curr + p_prev
        q_prev, q_curr = q_curr, a * q_curr + q_prev
        P = a * Q - P
        Q = (d - P * P) // Q
        # p_i^2 - d q_i^2 = (-1)^(i+1) Q_(i+1); |value| = 2 iff Q_(i+1) = 2
        if Q == 2:
            return (p_curr, q_curr, p_curr * p_curr - d * q_curr * q_curr)
    return None


@pytest.mark.parametrize("d", [d for d in range(2, 120) if nt.squarefree_part(d)[0]])
def test_norm_two_element_complete(d):
    got = period_norm_two_element(d)
    expected = brute_force_norm_pm2(d)
    assert (got is None) == (expected is None)
    if got is not None:
        assert abs(got.norm) == 2
        assert got.x * got.x - d * got.y * got.y == got.norm


def test_norm_two_element_matches_the_convergent_walk():
    ramified = [d for d in range(2, 3000) if d % 4 in (2, 3) and nt.squarefree_part(d)[0]]
    for d in ramified + seeded_large_d():
        gen = period_norm_two_element(d)
        assert (None if gen is None else (gen.x, gen.y, gen.norm)) == reference_norm_two_element(d), d


def test_dyadic_data_examples():
    assert nt.quadratic_data(10).dyadic.class_order == 2
    assert nt.quadratic_data(34).dyadic.class_order == 1
    assert nt.quadratic_data(17).dyadic.count == 2
    dy5 = nt.quadratic_data(5).dyadic
    assert dy5.count == 1 and dy5.class_order == 1


def brute_force_split_dyadic_order(d, kmax=6, ybound=3000):
    """Smallest k with a primitive element of the maximal order of norm
    +-2^k, for split d = 1 (mod 8); exhaustive over half-coordinates."""
    for k in range(1, kmax + 1):
        target = 1 << (k + 2)  # |x^2 - d y^2| for (x + y sqrt d)/2
        for y in range(0, ybound):
            for sign in (1, -1):
                xx = d * y * y + sign * target
                if xx < 0:
                    continue
                x = math.isqrt(xx)
                if x * x != xx or (x - y) % 2 != 0:
                    continue
                if x % 2 == 0 and y % 2 == 0 and (x - y) % 4 == 0:
                    continue  # divisible by 2, not primitive
                return k
    return None


@pytest.mark.parametrize(
    "d", [d for d in range(17, 130, 8) if nt.squarefree_part(d)[0]]
)
def test_split_dyadic_order_against_brute_force(d):
    assert d % 8 == 1
    dd = nt.quadratic_data(d).dyadic
    assert dd.count == 2
    assert dd.class_order == brute_force_split_dyadic_order(d)


def test_bound_errors(monkeypatch):
    with pytest.raises(BoundExceeded):
        nt.quadratic_data(10**6 + 3)
    with pytest.raises(BoundExceeded):
        nt.factorize(10**12 + 1)
    with pytest.raises(NonPositive):
        nt.factorize(0)
    monkeypatch.setattr(nt, "CF_STEP_BOUND", 3)
    with pytest.raises(BoundExceeded):
        nt.quadratic_data(94)  # period 16 exceeds the cap


def test_class_number_bound_checked_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factorized or enumerated above the bound")

    monkeypatch.setattr(nt, "factorize", refuse)
    monkeypatch.setattr(nt, "_sqrt_mod_prime", refuse)
    above = nt.CLASS_NUMBER_BOUND + 1  # 101 * 9901, squarefree, = 1 (mod 8)
    for d in (above, 10**9 + 1):
        with pytest.raises(BoundExceeded):
            nt.quadratic_data(d)
    with pytest.raises(BoundExceeded):
        reduced_forms(4 * nt.CLASS_NUMBER_BOUND + 1)


def test_reduced_forms_rejects_non_discriminants():
    for D in (-4, 0, 1, 4, 7, 10, 16):
        with pytest.raises(ValueError):
            reduced_forms(D)


def test_quad_unit_validation():
    with pytest.raises(ValueError):
        nt.QuadUnit(1, 1, 1, 2, 1)  # wrong norm
    with pytest.raises(ValueError):
        nt.QuadUnit(1, 1, 2, 7, -1)  # half-integers need d = 1 mod 4
    nt.QuadUnit(3, 1, 1, 7, 2)  # valid: 9 - 7 = 2
    nt.QuadUnit(1, 1, 1, 3, -2)  # valid: 1 - 3 = -2
