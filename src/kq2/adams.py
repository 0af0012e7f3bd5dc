"""Exact binomial-recurrence check that q^4 psi^q - 1 cannot factor
through realification.

Everything is integer-exact.  The obstruction reduces to a parity statement
about one polynomial: after clearing the unit prefactor (1-u)^(-q), whose
constant term is odd and therefore cannot change 2-divisibility, the
operator applied to the standard three-dimensional representation becomes

    q^4 (1-u)^(2q) - (1-u)^(q+1) + (q^4 - 1)(1-u)^q - (1-u)^(q-1) + q^4

and the coefficient of u^(2q) must be odd.  The module reads one
coefficient from its four binomials, or expands the whole bracket exactly,
in one pass over the degrees 0..2q.
"""

from __future__ import annotations

import math

from .errors import BoundExceeded, EvenQ

# Largest q accepted.  The full expansion takes O(q) bignum steps, but the
# bracket's 2q+1 coefficients reach about 2q bits, so --dump-coeffs prints
# about 22 MB at q = 5001; the bound caps that output.
Q_BOUND = 5001


def _check_q(q: int) -> None:
    """The one check of q that bracket and coefficient share."""
    if q % 2 == 0 or q < 3:
        raise (EvenQ if q % 2 == 0 else BoundExceeded)(f"q must be odd and >= 3, got {q}")
    if q > Q_BOUND:
        raise BoundExceeded(f"q must be <= {Q_BOUND}, got {q}")


def _expand(q: int) -> tuple[int, ...]:
    """The bracket's coefficients of u^0..u^(2q).

    Each (1-u)^e keeps its running coefficient c_i = (-1)^i C(e, i), stepped
    by c_(i+1) = -c_i (e - i) / (i + 1), which divides exactly and reaches 0
    past i = e.
    """
    q4 = q**4
    # c2q, cup, cq, cdown run over (1-u)^(2q), (1-u)^(q+1), (1-u)^q, (1-u)^(q-1)
    c2q = cup = cq = cdown = 1
    out = []
    for i in range(2 * q + 1):
        out.append(q4 * c2q - cup + (q4 - 1) * cq - cdown)
        c2q = -c2q * (2 * q - i) // (i + 1)
        cup = -cup * (q + 1 - i) // (i + 1)
        cq = -cq * (q - i) // (i + 1)
        cdown = -cdown * (q - 1 - i) // (i + 1)
    out[0] += q4
    return tuple(out)


def _coefficient(q: int, i: int) -> int:
    """The bracket's coefficient of u^i, read from the binomials C(e, i) of
    its four powers (1-u)^e."""
    q4 = q**4
    c2q, cup, cq, cdown = (math.comb(e, i) for e in (2 * q, q + 1, q, q - 1))
    return (-1) ** i * (q4 * c2q - cup + (q4 - 1) * cq - cdown) + (q4 if i == 0 else 0)


def bracket(q: int) -> tuple[int, ...]:
    """The 2q+1 coefficients of the degree-2q obstruction polynomial, for
    odd 3 <= q <= Q_BOUND."""
    _check_q(q)
    return _expand(q)


def coefficient(q: int, i: int) -> int:
    """The coefficient of u^i, 0 <= i <= 2q, of bracket(q), for odd
    3 <= q <= Q_BOUND."""
    _check_q(q)
    return _coefficient(q, i)
