"""Totally real field descriptions, their 2-regularity, and the prime q.

A field enters either as one of the closed-form families (the rationals,
real quadratic fields, maximal real subfields of cyclotomic fields) or as a
generic description by its invariants.  The fast criteria decide
2-regularity in closed form; :func:`two_regular_oracle` re-derives the
quadratic verdict from first principles (dyadic splitting, class group
parity, unit signatures) using the exact machinery in :mod:`kq2.numtheory`.
"""

from __future__ import annotations

from . import numtheory as nt
from .errors import BoundExceeded, InadmissibleQ, InvalidSpec, NotPrimitiveRoot, NotTwoRegular, UsageError
from .record import Record


# MaxRealCyclo2 accepts b <= B_BOUND (r = 2^(b-2) real embeddings, a_F = b)
# and Generic accepts a <= B_BOUND, so 2^a stays a small integer; the
# field-reading tables accept r <= R_BOUND (their groups hold about r summands)
B_BOUND = 64
R_BOUND = 1024
# find_q_for_a searches the primes below this limit
Q_SEARCH_BOUND = 10**7


# Each family checks its own invariants on construction, so a spec object
# that exists is valid, and then resolves itself: it sets r (its real
# embeddings), a (its 2-adic size a_F) and the closed-form 2-regularity
# verdict ``regular`` with its ``reason``, as attributes that are not fields
# of the record.  a_F = 2 except in the 2-power cyclotomic tower and for
# Q(sqrt 2), where it is 3.  Odd cyclotomic fields outside the certified
# list report False rather than guessing; a Generic spec without a claim
# counts as unverified-regular so that table queries stay possible (callers
# should flag this, see is_unverified_generic).


def _resolved(spec, r: int, a: int, regular: bool, reason: str) -> None:
    for name, value in (("r", r), ("a", a), ("regular", regular), ("reason", reason)):
        object.__setattr__(spec, name, value)


class Rationals(Record):
    def __post_init__(self) -> None:
        _resolved(self, 1, 2, True, "the rationals are 2-regular")

    def __str__(self) -> str:
        return "Q"


class RealQuadratic(Record):
    """Q(sqrt(d)) for squarefree d >= 2."""

    d: int

    def __post_init__(self) -> None:
        d = self.d
        if d < 2:
            raise InvalidSpec(f"d must be >= 2, got {d}")
        squarefree, factors = nt.squarefree_part(d)
        if not squarefree:
            raise InvalidSpec(f"d must be squarefree, got {d}")
        _resolved(self, 2, 3 if d == 2 else 2, *_quadratic_criterion(d, factors))

    def __str__(self) -> str:
        return f"Q(sqrt {self.d})"


class MaxRealCyclo2(Record):
    """Maximal real subfield of the 2^b-th cyclotomic field, 2 <= b <= B_BOUND."""

    b: int

    def __post_init__(self) -> None:
        b = self.b
        if b < 2:
            raise InvalidSpec(f"b must be >= 2, got {b}")
        if b > B_BOUND:
            raise BoundExceeded(f"b must be <= {B_BOUND}, got {b}")
        _resolved(self, 2 ** (b - 2), b, True, "maximal real 2-power cyclotomic fields are 2-regular")

    def __str__(self) -> str:
        return f"Q(zeta 2^{self.b})+"


class MaxRealCycloOdd(Record):
    """Maximal real subfield of the m-th cyclotomic field, m an odd prime
    power with 2 a primitive root modulo m.  ``p``, the prime of m, is
    found when the spec is checked and is not a field of the record."""

    m: int

    def __post_init__(self) -> None:
        m = self.m
        if m < 3 or m % 2 == 0:
            raise InvalidSpec(f"m must be an odd prime power >= 3, got {m}")
        primes = set(nt.factorize(m))
        if len(primes) != 1:
            raise InvalidSpec(f"m must be a prime power, got {m}")
        p = primes.pop()
        if not nt.is_primitive_root(2, m, p):
            raise NotPrimitiveRoot(f"2 is not a primitive root modulo {m}")
        object.__setattr__(self, "p", p)
        phi = m // p * (p - 1)
        _resolved(self, phi // 2, 2, *_cyclotomic_criterion(m, phi))

    def __str__(self) -> str:
        return f"Q(zeta {self.m})+"


class Generic(Record):
    """A totally real field given by its invariants.

    ``regular_claim`` is the caller's 2-regularity claim, or None for an
    unverified description.
    """

    r: int
    a: int
    regular_claim: bool | None = None

    def __post_init__(self) -> None:
        if self.r < 1:
            raise InvalidSpec(f"generic spec needs r >= 1, got {self.r}")
        if self.a < 2:
            raise InvalidSpec(f"generic spec needs a >= 2, got {self.a}")
        if self.a > B_BOUND:
            raise BoundExceeded(f"generic spec needs a <= {B_BOUND}, got {self.a}")
        claim = self.regular_claim
        if claim is None:
            regular, reason = True, "generic spec without verification data (treated as claimed regular)"
        else:
            regular, reason = claim, "caller claims 2-regular" if claim else "caller claims not 2-regular"
        _resolved(self, self.r, self.a, regular, reason)

    def __str__(self) -> str:
        suffix = " regular" if self.regular_claim is True else ""
        return f"generic r={self.r} a={self.a}{suffix}"


FieldSpec = Rationals | RealQuadratic | MaxRealCyclo2 | MaxRealCycloOdd | Generic


class FieldInvariants(Record):
    """The regularity oracle's verdict on a real quadratic field and the
    invariants behind it."""

    dyadic_count: int
    pic_odd: bool
    units_indep_signs: bool
    narrow_pic_odd: bool
    two_regular: bool
    reasons: tuple[str, ...] = ()
    # the reasons of the conditions that fail
    failing: tuple[str, ...] = ()


def _quadratic_criterion(d: int, factors: tuple[int, ...]) -> tuple[bool, str]:
    # 2-regular iff d = 2, d = p, or d = 2p with p = +-3 (mod 8) prime;
    # factors is the prime factor multiset of the squarefree d
    if d == 2:
        return True, "d = 2"
    if factors == (d,):
        if d % 8 in (3, 5):
            return True, f"d = {d} is prime with {d} = {d % 8} (mod 8)"
        return False, f"d = {d} is prime but {d} = {d % 8} (mod 8) is not +-3 (mod 8)"
    if factors == (2, d // 2):
        p = d // 2
        if p % 8 in (3, 5):
            return True, f"d = 2*{p} with {p} = {p % 8} (mod 8)"
        return False, f"d = 2*{p} but {p} = {p % 8} (mod 8) is not +-3 (mod 8)"
    return False, f"d = {d} is neither 2, a prime, nor twice a prime"


def _cyclotomic_criterion(m: int, phi: int) -> tuple[bool, str]:
    # m is an odd prime power with 2 as a primitive root, and phi = phi(m)
    if m == 29:
        return False, "m = 29 is the known exception to the phi <= 66 rule"
    if phi <= 66:
        return True, f"phi({m}) = {phi} <= 66"
    if nt.is_sophie_germain_type(m) and m % 8 != 7:
        return True, f"m = {m} and (m-1)/2 both prime with m != 7 (mod 8)"
    return False, f"m = {m} is outside the certified list"


def require_spec(spec: FieldSpec) -> FieldSpec:
    """spec, if it is a field spec; raises InvalidSpec for anything else."""
    if not isinstance(spec, FieldSpec):
        raise InvalidSpec(f"unknown field spec {spec!r}")
    return spec


def is_two_regular(spec: FieldSpec) -> tuple[bool, str]:
    """The spec's 2-regularity verdict and its one-line reason."""
    spec = require_spec(spec)
    return spec.regular, spec.reason


def is_unverified_generic(spec: FieldSpec) -> bool:
    """Whether only the trust in a generic spec without a claim admits the
    field: a Generic spec with no regularity claim."""
    return isinstance(spec, Generic) and spec.regular_claim is None


def require_two_regular(spec: FieldSpec) -> FieldSpec:
    """spec, if it is a 2-regular field with r <= R_BOUND; raises
    NotTwoRegular or BoundExceeded."""
    spec = require_spec(spec)
    if not spec.regular:
        raise NotTwoRegular(f"{spec} is not 2-regular: {spec.reason}")
    if spec.r > R_BOUND:
        raise BoundExceeded(f"tables need r <= {R_BOUND}, got r = {spec.r} for {spec}")
    return spec


def two_regular_oracle(spec: RealQuadratic) -> FieldInvariants:
    """Independent 2-regularity verdict for a real quadratic field.

    Recomputes the three defining conditions from scratch: the number of
    dyadic primes from the splitting of 2, the parity of Pic(R_F) from the
    class number divided by the dyadic class order, and units of
    independent signs from the norms of the fundamental unit and of the
    dyadic S-unit generators (a norm is the product of the two signs).
    """
    if not isinstance(spec, RealQuadratic):
        raise InvalidSpec("the regularity oracle covers real quadratic fields only")
    d = spec.d
    nt.check_class_number_bound(d)
    qd = nt._quadratic_data(d)
    cd, dy, eps = qd.classes, qd.dyadic, qd.unit

    reasons: list[str] = []
    failing: list[str] = []

    def note(reason: str, holds: bool) -> None:
        reasons.append(reason)
        if not holds:
            failing.append(reason)

    if dy.count == 1:
        note("unique dyadic prime", True)
    else:
        note(f"two dyadic primes (d = {d} splits 2, d = 1 mod 8)", False)

    pic_order = cd.h // dy.class_order
    pic_odd = pic_order % 2 == 1
    note(
        f"Pic(R_F) has {'odd' if pic_odd else 'even'} order {pic_order}"
        f" (h = {cd.h}, dyadic class order {dy.class_order})",
        pic_odd,
    )
    narrow_pic_odd = cd.h_narrow // dy.narrow_class_order % 2 == 1

    # -1, the fundamental unit and the dyadic S-units give every pair of
    # signs iff one has negative norm, the product of its two signs: -1 has
    # norm 1, and a generator and its conjugate share their norm.
    units = eps.norm == -1 or dy.generator_norm_negative
    if eps.norm == -1:
        note("fundamental unit has norm -1 (independent signs)", units)
    elif units:
        note("units of independent signs", units)
    elif dy.generator is not None:
        note("units of independent signs fail (all 2-unit generators totally positive up to sign)", units)
    else:
        note("units of independent signs fail", units)

    two_regular = dy.count == 1 and pic_odd and units
    if two_regular:
        reasons.append("2-regular")
    return FieldInvariants(dy.count, pic_odd, units, narrow_pic_odd, two_regular,
                           tuple(reasons), tuple(failing))


# ---------------------------------------------------------------------------
# The auxiliary prime q


def is_admissible_q(q: int, a: int) -> bool:
    """Congruence admissibility: q prime, q = +-1 (mod 2^a) but not
    (mod 2^(a+1)), where a is the field's 2-adic size parameter; that is,
    the larger of v2(q - 1) and v2(q + 1) is a."""
    return q >= 3 and nt.is_prime(q) and max(nt.nu2(q - 1), nt.nu2(q + 1)) == a


def find_q_for_a(a: int) -> int:
    """Smallest congruence-admissible prime below Q_SEARCH_BOUND for the
    parameter a.

    For a >= 2 the admissible residues are 2^a - 1 and 2^a + 1 modulo
    2^(a+1); only those are tried, in increasing order.  For a < 2 no
    residue is admissible, and for 2^a - 1 >= Q_SEARCH_BOUND none lies
    below the bound."""
    if 2 <= a < Q_SEARCH_BOUND.bit_length():
        m, m2 = 1 << a, 1 << (a + 1)
        for low in range(m - 1, Q_SEARCH_BOUND, m2):
            for q in (low, low + 2):
                if q < Q_SEARCH_BOUND and nt.is_prime(q):
                    return q
    raise InadmissibleQ(f"no admissible prime below {Q_SEARCH_BOUND} for a = {a}")


def choose_q(field: FieldSpec, q: int | None) -> int:
    """The field's auxiliary prime: the smallest congruence-admissible one if
    q is None, else q once it is checked (InadmissibleQ if it fails)."""
    if q is None:
        return find_q_for_a(field.a)
    if not is_admissible_q(q, field.a):
        raise InadmissibleQ(f"q = {q} is not congruence-admissible for {field} (a = {field.a})")
    return q


# ---------------------------------------------------------------------------
# Text syntax

class FieldSyntaxError(UsageError):
    """Unparseable field text."""


def _number(digits: str) -> int:
    """int(digits), with int()'s digit limit reported as a usage error."""
    try:
        return int(digits)
    except ValueError as exc:
        raise FieldSyntaxError(f"cannot parse field: {exc}") from None


def _scan(text: str, pattern: str) -> list[str] | None:
    """The digit runs of text if all of text matches pattern, else None.

    In pattern, "~" matches a run of whitespace (str.isspace), "_" a
    nonempty one and "#" a nonempty run of decimal digits (str.isdecimal),
    as the regular expressions \\s*, \\s+ and (\\d+) do; any other character
    matches itself.  No pattern here puts a class before a character of the
    same class, so reading each run greedily is exact.
    """
    digits: list[str] = []
    i, end = 0, len(text)
    for c in pattern:
        start = i
        if c == "~" or c == "_":
            while i < end and text[i].isspace():
                i += 1
            if c == "_" and i == start:
                return None
        elif c == "#":
            while i < end and text[i].isdecimal():
                i += 1
            if i == start:
                return None
            digits.append(text[start:i])
        elif text[i:i + 1] == c:
            i += 1
        else:
            return None
    return digits if i == end else None


def parse_field(text: str) -> FieldSpec:
    """Parse "Q", "Q(sqrt D)", "Q(zeta 2^B)+", "Q(zeta M)+",
    "generic r=R a=A [regular]"."""
    text = text.strip()
    if text == "Q":
        return Rationals()
    m = _scan(text, "Q(~sqrt~#~)")
    if m:
        return RealQuadratic(_number(m[0]))
    m = _scan(text, "Q(~zeta~2^#~)+")
    if m:
        return MaxRealCyclo2(_number(m[0]))
    m = _scan(text, "Q(~zeta~#~)+")
    if m:
        n = _number(m[0])
        if n >= 4 and n & (n - 1) == 0:
            return MaxRealCyclo2(n.bit_length() - 1)
        return MaxRealCycloOdd(n)
    for pattern, claim in (("generic_r=#_a=#_regular", True), ("generic_r=#_a=#", None)):
        m = _scan(text, pattern)
        if m:
            return Generic(r=_number(m[0]), a=_number(m[1]), regular_claim=claim)
    raise FieldSyntaxError(
        f"cannot parse field {text!r}; expected Q, Q(sqrt D), Q(zeta 2^B)+, "
        f"Q(zeta M)+, or generic r=R a=A [regular]"
    )
