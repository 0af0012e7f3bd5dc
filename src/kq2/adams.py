"""Exact truncated power-series check that q^4 psi^q - 1 cannot factor
through realification.

Everything is integer-exact.  The obstruction reduces to a parity statement
about one polynomial: after clearing the unit prefactor (1-u)^(-q), whose
constant term is odd and therefore cannot change 2-divisibility, the
operator applied to the standard three-dimensional representation becomes

    q^4 (1-u)^(2q) - (1-u)^(q+1) + (q^4 - 1)(1-u)^q - (1-u)^(q-1) + q^4

and the coefficient of u^(2q) must be odd.  The module expands the bracket
exactly and reads off that coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import BoundExceeded, EvenQ, TruncationMismatch, TruncationTooSmall

# Largest q accepted: the exact expansion grows faster than q^2 in bignum work.
Q_BOUND = 5001


@dataclass(frozen=True)
class TruncSeries:
    """Integer power series truncated at degree ``n_trunc`` (inclusive)."""

    coeffs: tuple[int, ...]
    n_trunc: int

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n_trunc + 1:
            raise ValueError(
                f"need {self.n_trunc + 1} coefficients for truncation degree "
                f"{self.n_trunc}, got {len(self.coeffs)}"
            )

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else f"{c}*u^{i}")
        return " + ".join(terms) if terms else "0"


def constant(value: int, n_trunc: int) -> TruncSeries:
    return TruncSeries((value,) + (0,) * n_trunc, n_trunc)


def _match(a: TruncSeries, b: TruncSeries) -> None:
    if a.n_trunc != b.n_trunc:
        raise TruncationMismatch(f"truncation degrees differ: {a.n_trunc} vs {b.n_trunc}")


def add(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    _match(a, b)
    return TruncSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), a.n_trunc)


def negate(a: TruncSeries) -> TruncSeries:
    return TruncSeries(tuple(-x for x in a.coeffs), a.n_trunc)


def multiply(a: TruncSeries, b: TruncSeries, n_trunc: int | None = None) -> TruncSeries:
    _match(a, b)
    n = a.n_trunc if n_trunc is None else n_trunc
    if n > a.n_trunc:
        raise TruncationTooSmall(f"operands truncated at {a.n_trunc} cannot produce degree {n}")
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0 or i > n:
            continue
        for j, y in enumerate(b.coeffs[: n - i + 1]):
            out[i + j] += x * y
    return TruncSeries(tuple(out), n)


def binomial_power(exponent: int, n_trunc: int) -> TruncSeries:
    """(1 - u)^exponent for exponent >= 0, exactly."""
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    coeffs = tuple(
        (-1) ** i * comb(exponent, i) if i <= exponent else 0 for i in range(n_trunc + 1)
    )
    return TruncSeries(coeffs, n_trunc)


def geometric_inverse(n_trunc: int) -> TruncSeries:
    """(1 - u)^(-1) = 1 + u + u^2 + ... truncated."""
    return TruncSeries((1,) * (n_trunc + 1), n_trunc)


def _check_q(q: int) -> None:
    if q % 2 == 0 or q < 3:
        raise EvenQ(f"q must be odd and >= 3, got {q}")
    if q > Q_BOUND:
        raise BoundExceeded(f"q must be <= {Q_BOUND}, got {q}")


def bracket(q: int, n_trunc: int) -> TruncSeries:
    """The degree-2q obstruction polynomial for odd q >= 3."""
    _check_q(q)
    if n_trunc < 2 * q:
        raise TruncationTooSmall(f"need truncation >= 2q = {2 * q}, got {n_trunc}")
    q4 = q**4
    out = multiply(constant(q4, n_trunc), binomial_power(2 * q, n_trunc))
    out = add(out, negate(binomial_power(q + 1, n_trunc)))
    out = add(out, multiply(constant(q4 - 1, n_trunc), binomial_power(q, n_trunc)))
    out = add(out, negate(binomial_power(q - 1, n_trunc)))
    out = add(out, constant(q4, n_trunc))
    return out


def check_obstruction(q: int) -> bool:
    """True iff the u^(2q) coefficient of the bracket is odd.

    The discarded prefactor (1-u)^(-q) has odd constant term, so it cannot
    make an odd coefficient even; oddness here proves the operator is not
    in the image of realification (which doubles every coefficient).
    """
    _check_q(q)
    return bracket(q, 2 * q)[2 * q] % 2 == 1
