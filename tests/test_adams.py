from math import comb

import pytest
from hypothesis import given, strategies as st

from kq2 import adams as ad
from kq2.errors import BoundExceeded, EvenQ

# frozen after first computation; independently reproduced by
# bracket_from_laurent below
BRACKET_Q3 = (240, -720, 1448, -1696, 1214, -486, 81)

odd_q = st.integers(1, 30).map(lambda k: 2 * k + 1)


# Brute-force reference: truncated integer power series as tuples of
# coefficients of u^0..u^n, with one math.comb call per coefficient.
def _binomial_row(exponent, n):
    """(1 - u)^exponent for exponent >= 0."""
    return tuple((-1) ** i * comb(exponent, i) for i in range(n + 1))


def _constant(value, n):
    return (value,) + (0,) * n


def _geometric_inverse(n):
    """(1 - u)^(-1) = 1 + u + u^2 + ..."""
    return (1,) * (n + 1)


def _add(a, b):
    assert len(a) == len(b)
    return tuple(x + y for x, y in zip(a, b))


def _negate(a):
    return tuple(-x for x in a)


def _multiply(a, b):
    assert len(a) == len(b)
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] += x * y
    return tuple(out)


def comb_bracket(q, n, top, middle):
    """top (1-u)^(2q) - (1-u)^(q+1) + middle (1-u)^q - (1-u)^(q-1) + top,
    truncated at n; the bracket is top = q^4, middle = q^4 - 1."""
    out = _multiply(_constant(top, n), _binomial_row(2 * q, n))
    out = _add(out, _negate(_binomial_row(q + 1, n)))
    out = _add(out, _multiply(_constant(middle, n), _binomial_row(q, n)))
    out = _add(out, _negate(_binomial_row(q - 1, n)))
    return _add(out, _constant(top, n))


def test_bracket_golden_q3():
    assert ad.bracket(3) == BRACKET_Q3


def bracket_from_laurent(q, n):
    """Independent reconstruction: multiply the Laurent expression
    q^4 t^q + q^4 t^(-q) + q^4 - t - 1/t - 1 (t = 1-u) by t^q."""
    t = _binomial_row(1, n)
    tinv = _geometric_inverse(n)
    tinv_q = _constant(1, n)
    for _ in range(q):
        tinv_q = _multiply(tinv_q, tinv)
    q4 = _constant(q**4, n)
    inner = _multiply(q4, _binomial_row(q, n))
    inner = _add(inner, _multiply(q4, tinv_q))
    inner = _add(inner, q4)
    inner = _add(inner, _negate(t))
    inner = _add(inner, _negate(tinv))
    inner = _add(inner, _negate(_constant(1, n)))
    return _multiply(_binomial_row(q, n), inner)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_bracket_matches_laurent_reconstruction(q):
    assert ad.bracket(q) == bracket_from_laurent(q, 2 * q)


@pytest.mark.parametrize("q", list(range(3, 62, 2)) + [1001])
def test_bracket_matches_comb_reference(q):
    assert ad.bracket(q) == comb_bracket(q, 2 * q, q**4, q**4 - 1)


@given(odd_q)
def test_bracket_constant_term(q):
    assert ad.bracket(q)[0] == 3 * (q**4 - 1)


@given(odd_q)
def test_bracket_top_degree_and_leading_coefficient(q):
    coeffs = ad.bracket(q)
    assert len(coeffs) == 2 * q + 1
    assert coeffs[2 * q] == q**4
    assert coeffs[2 * q] % 2 == 1
    # the polynomial really stops at degree 2q
    padded = comb_bracket(q, 2 * q + 4, q**4, q**4 - 1)
    assert padded[: 2 * q + 1] == coeffs and padded[2 * q + 1 :] == (0,) * 4


def test_bracket_at_the_bound():
    # a guard on the expansion's cost too: one math.comb per coefficient
    # took about 20 s here
    q = ad.Q_BOUND
    coeffs = ad.bracket(q)
    assert len(coeffs) == 2 * q + 1
    assert coeffs[2 * q] == q**4
    assert coeffs[0] == 3 * (q**4 - 1)


@given(odd_q)
def test_obstruction_holds(q):
    assert ad.bracket(q)[2 * q] % 2 == 1


def test_coefficient_of_u10_for_q5():
    assert ad.bracket(5)[10] == 5**4 == 625


@given(odd_q)
def test_mod2_reduction_commutes(q):
    """Reducing the final polynomial mod 2 equals computing with inputs
    reduced mod 2 (checked coefficientwise)."""
    full = ad.bracket(q)
    reduced = comb_bracket(q, 2 * q, (q**4) % 2, (q**4 - 1) % 2)
    assert tuple(c % 2 for c in full) == tuple(c % 2 for c in reduced)


def test_domain_errors():
    with pytest.raises(EvenQ):
        ad.bracket(4)
    # an odd q below 3 is out of range, not even
    with pytest.raises(BoundExceeded, match=r"^q must be odd and >= 3, got 1$"):
        ad.bracket(1)
    with pytest.raises(BoundExceeded, match=r"^q must be odd and >= 3, got -3$"):
        ad.bracket(-3)
    with pytest.raises(BoundExceeded):
        ad.bracket(ad.Q_BOUND + 2)


def test_big_q_exact_integers():
    # binomial products near q = 51 overflow 64-bit words; exactness matters
    coeffs = ad.bracket(51)
    assert coeffs[51] % 2 == 0 or coeffs[51] % 2 == 1  # evaluates without overflow
    assert coeffs[2 * 51] % 2 == 1
    assert coeffs[0] == 3 * (51**4 - 1)


@pytest.mark.parametrize("q", range(3, 62, 2))
def test_coefficient_matches_the_bracket(q):
    # the closed forms of the two coefficients that adams prints
    coeffs = ad.bracket(q)
    assert ad.ends(q) == (coeffs[2 * q], coeffs[0])


def test_coefficient_at_the_bound():
    q = ad.Q_BOUND
    coeffs = ad.bracket(q)
    assert ad.ends(q) == (coeffs[2 * q], coeffs[0])


def test_coefficient_checks_q_as_the_bracket_does():
    for q, error in ((4, EvenQ), (1, BoundExceeded), (-3, BoundExceeded), (-2, EvenQ),
                     (ad.Q_BOUND + 2, BoundExceeded)):
        with pytest.raises(error) as from_bracket:
            ad.bracket(q)
        with pytest.raises(error) as from_ends:
            ad.ends(q)
        assert type(from_ends.value) is type(from_bracket.value)
        assert str(from_ends.value) == str(from_bracket.value)
