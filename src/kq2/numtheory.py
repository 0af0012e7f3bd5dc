"""Exact integer number theory for real quadratic fields.

Everything here is exact arithmetic on Python integers: 2-adic valuations,
deterministic primality, and the invariants of a real quadratic field that
``quadratic_data(d)``, the one validated entry point, returns.  One walk over
the reduced indefinite binary quadratic forms that ``_reduced_form_keys``
enumerates gives them: its cycles give the class numbers, and the principal
form's orbit, the continued-fraction period of the maximal order, gives the
fundamental unit.  This layer is the independent oracle against which the
closed-form regularity criteria are checked.
"""

from __future__ import annotations

from math import isqrt

from .errors import BadModulus, BoundExceeded, EvenQ, NonPositive, Undecided
from .record import Record

TRIAL_DIVISION_BOUND = 10**12
CLASS_NUMBER_BOUND = 10**6
# caps every continued-fraction walk and every form reduction
CF_STEP_BOUND = 10**6
_ODD_PRIMES: list[int] = []  # the odd primes up to isqrt(CLASS_NUMBER_BOUND), sieved on first use


# ---------------------------------------------------------------------------
# 2-adic valuations


def nu2(n: int) -> int:
    """Largest e with 2^e dividing n (n >= 1)."""
    if n < 1:
        raise NonPositive(f"nu2 requires n >= 1, got {n}")
    return (n & -n).bit_length() - 1


def two_part(n: int) -> int:
    """The 2-part of n, i.e. 2^nu2(n)."""
    if n < 1:
        raise NonPositive(f"two_part requires n >= 1, got {n}")
    return n & -n


def val2_q_power(q: int, m: int) -> int:
    """The 2-part of q^m - 1 by the closed multiplicativity formulas.

    For odd m the 2-part equals that of q - 1; for even m = 2m' it equals
    the 2-part of q^2 - 1 times the 2-part of m'.  Tests compare this
    against direct modular exponentiation.
    """
    if q < 3 or q % 2 == 0:
        raise (EvenQ if q % 2 == 0 else BoundExceeded)(f"q must be odd and >= 3, got {q}")
    if m < 1:
        raise NonPositive(f"exponent must be >= 1, got {m}")
    if m % 2 == 1:
        return two_part(q - 1)
    return two_part(q * q - 1) * two_part(m // 2)


# ---------------------------------------------------------------------------
# Primality and factorization

# The primes up to 37: trial divisors, and the Miller-Rabin witnesses that
# decide every n < PRIME_BOUND (psi_12, Sorenson & Webster, Math. Comp. 86,
# 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_BOUND (about 3.3 * 10^24); a
    larger n raises BoundExceeded."""
    if n >= PRIME_BOUND:
        raise BoundExceeded(f"primality is decided below {PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = nu2(d)
    d >>= s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> tuple[int, ...]:
    """Prime factor multiset of n by trial division (1 <= n <= TRIAL_DIVISION_BOUND)."""
    if n < 1:
        raise NonPositive(f"factorize requires n >= 1, got {n}")
    if n > TRIAL_DIVISION_BOUND:
        raise BoundExceeded(f"{n} exceeds the trial-division bound {TRIAL_DIVISION_BOUND}")
    factors: list[int] = []
    for p in (2, 3):
        while n % p == 0:
            factors.append(p)
            n //= p
    p = 5
    # 6k +- 1 wheel
    step = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += step
        step = 6 - step
    if n > 1:
        factors.append(n)
    return tuple(sorted(factors))


def squarefree_part(n: int) -> tuple[bool, tuple[int, ...]]:
    """(is n squarefree, prime factor multiset of n)."""
    factors = factorize(n)
    squarefree = len(factors) == len(set(factors))
    return squarefree, factors


def is_primitive_root(g: int, m: int, p: int) -> bool:
    """Whether g generates (Z/m)^*; m >= 3 must be a power of the odd prime p,
    which the caller has found (this function does not factorize m)."""
    rest = m
    while p >= 3 and rest > 1 and rest % p == 0:
        rest //= p
    if m < 3 or rest != 1 or not is_prime(p):
        raise BadModulus(f"modulus must be a power >= 3 of the odd prime p, got m = {m}, p = {p}")
    phi = m // p * (p - 1)
    if pow(g, phi, m) != 1:  # not coprime
        return False
    return all(pow(g, phi // ell, m) != 1 for ell in set(factorize(phi)))


def is_sophie_germain_type(m: int) -> bool:
    """m and (m-1)/2 both prime (the safe-prime shape 2p + 1)."""
    return m % 2 == 1 and is_prime(m) and is_prime((m - 1) // 2)


# ---------------------------------------------------------------------------
# Quadratic field elements


class QuadUnit(Record):
    """Element (x + y*sqrt(d))/denom of a real quadratic field.

    Used both for fundamental units (norm +-1) and dyadic S-unit generators
    (norm +-2^k).  ``denom`` = 2 is only allowed for d = 1 (mod 4) with
    x = y (mod 2).
    """

    x: int
    y: int
    denom: int
    d: int
    norm: int

    def __post_init__(self) -> None:
        if self.denom not in (1, 2):
            raise ValueError("denom must be 1 or 2")
        if self.denom == 2 and (self.d % 4 != 1 or (self.x - self.y) % 2 != 0):
            raise ValueError("half-integer coordinates need d = 1 (mod 4) and x = y (mod 2)")
        if self.x * self.x - self.d * self.y * self.y != self.norm * self.denom**2:
            raise ValueError(
                f"norm equation violated: ({self.x}^2 - {self.d}*{self.y}^2)"
                f"/{self.denom}^2 != {self.norm}"
            )


def _norm_two_element(d: int, quotients: list[int], denominators: list[int]) -> QuadUnit | None:
    """An integral element of norm +-2, or None if none exists, of Q(sqrt(d))
    for a squarefree d = 2, 3 (mod 4), read off the first half of the period
    of s + sqrt(d), up to its centre, which holds every Q_i (Q_i = Q_(l-i)).

    That period walks the states of sqrt(d)'s, so with a_0 = s it gives the
    convergents p_i/q_i of sqrt(d): p_i^2 - d q_i^2 = (-1)^(i+1) Q_(i+1).
    For d >= 5 they hold every primitive solution of |x^2 - d y^2| = 2.
    """
    if d in (2, 3):  # sqrt(2) and 1 + sqrt(3)
        return QuadUnit(d - 2, 1, 1, d, -2)
    if 2 not in denominators:
        return None
    p_prev, p_curr = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_curr = 1, 0  # q_{-2}, q_{-1}
    for a in [isqrt(d), *quotients[1 : denominators.index(2) + 1]]:
        p_prev, p_curr = p_curr, a * p_curr + p_prev
        q_prev, q_curr = q_curr, a * q_curr + q_prev
    norm = p_curr * p_curr - d * q_curr * q_curr
    if abs(norm) != 2:
        raise RuntimeError(f"convergent bookkeeping broke for d={d}")
    return QuadUnit(p_curr, q_curr, 1, d, norm)


# ---------------------------------------------------------------------------
# Reduced indefinite binary quadratic forms

Form = tuple[int, int, int]


def _is_reduced(f: Form, D: int) -> bool:
    # (a, b, c) indefinite of discriminant D is reduced iff
    # |sqrt(D) - 2|a|| < b < sqrt(D)
    a, b, _ = f
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= D:  # need t > sqrt(D) - b
        return False
    if t > b and (t - b) ** 2 >= D:  # need t < sqrt(D) + b
        return False
    return True


def _rho(f: Form, D: int, s: int) -> Form:
    """One reduction/cycle step: (a, b, c) -> (c, b', c')."""
    _, b, c = f
    cabs = abs(c)
    t = 2 * cabs
    b2 = (-b) % t
    if cabs > s:
        if b2 > cabs:
            b2 -= t
    else:
        b2 += ((s - b2) // t) * t  # largest value = -b (mod t) that is <= floor(sqrt(D))
    c2 = (b2 * b2 - D) // (4 * c)
    return (c, b2, c2)


def _reduce_form(f: Form, D: int, s: int) -> Form:
    for _ in range(CF_STEP_BOUND):
        if _is_reduced(f, D):
            return f
        f = _rho(f, D, s)
    raise BoundExceeded(f"form reduction of {f} (D={D}) did not terminate")


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None for a non-residue:
    one power, checked, for p = 3 (mod 4) and, by Atkin's formula, p = 5
    (mod 8); Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1) for p = 1 (mod 8).
    """
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        x = pow(n, (p + 1) // 4, p)
    elif p % 8 == 5:  # 2n v^2 = (2n)^((p-1)/4) is a square root of -1
        v = pow(2 * n, (p - 5) // 8, p)
        x = n * v * (2 * n * v * v - 1) % p
    if p % 8 != 1:
        return x if x * x % p == n else None
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    e = nu2(p - 1)
    q = (p - 1) >> e
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    y, r = pow(z, q, p), e
    x = pow(n, (q - 1) // 2, p)
    b = n * x * x % p
    x = n * x % p
    while b != 1:
        m, t = 1, b * b % p
        while t != 1:
            m, t = m + 1, t * t % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


def _lift_roots(roots: list[int], D: int, q: int, p: int) -> list[int]:
    """The square roots of D modulo q*p, from those modulo q, a power of
    the odd prime p: a root x prime to p lifts to one root by a Newton
    step, and a root x divisible by p lifts to all of x + t*q or to none."""
    qp = q * p
    out: list[int] = []
    for x in roots:
        if x % p:
            out.append((x - (x * x - D) * pow(2 * x, -1, qp)) % qp)
        elif (x * x - D) % qp == 0:
            out += range(x, qp, q)
    return out


def _two_power_roots(D: int):
    """Yield (a, the classes mod 2a of the roots of b^2 = D (mod 4a)) for
    a = 1, 2, 4, ... while there are roots, each list from the last by
    lifting one bit: a root mod 8a reduces to one mod 4a."""
    a, roots = 1, [D % 2]
    while roots:
        yield a, roots
        roots = [y for x in roots for y in (x, x + 2 * a) if (y * y - D) % (8 * a) == 0]
        a *= 2


def _reduced_form_keys(D: int) -> dict[int, int]:
    """The reduced indefinite forms (a, b, c) with a > 0 of (nonsquare)
    discriminant D > 0, each as the key a*W + b, with W = isqrt(D) + 1 > b,
    of a dict that maps each to -1, not yet walked; c is (b*b - D) // (4a).
    Every other reduced form is the negation (-a, b, -c) of one.

    (a, b, c) is reduced iff 0 < b < sqrt(D) and sqrt(D) - b < 2|a| <
    sqrt(D) + b.  Since 2|a| * 2|c| = (sqrt(D) - b)(sqrt(D) + b), |a| lies
    in that interval exactly when |c| does, so each form pair (a, b, -c),
    (c, b, -a) is found once, from the smaller leading coefficient a <= c:
    then s - 2a < b <= isqrt(D - 4a^2), with s = isqrt(D), and b^2 = D (mod
    4a).  That window is at most 2a long and the roots are periodic mod 2a,
    so each root class mod 2a gives at most one b.

    The a up to amax = isqrt((D - b0^2)/4) are walked depth first over
    their factorizations 2a = 2^(k+1) p_1^e_1 ... (odd p_1 < p_2 < ...),
    joining the roots of each factor to the parent's by the Chinese
    remainder theorem: the 2^(k+1) with the roots of b^2 = D (mod 2^(k+2)),
    lifted bit by bit; each p^e from one square root mod p, lifted as in
    Cohen, GTM 138, Sec. 1.5, and only for (D/p) != -1, as no other p
    divides an a that leads a form.  D is at most 4 * CLASS_NUMBER_BOUND.
    """
    if D > 4 * CLASS_NUMBER_BOUND:
        raise BoundExceeded(f"discriminant {D} exceeds the bound {4 * CLASS_NUMBER_BOUND}")
    if D < 5 or D % 4 in (2, 3) or isqrt(D) ** 2 == D:
        raise ValueError(f"{D} is not a nonsquare discriminant")
    s = isqrt(D)
    b0 = 2 - D % 2
    amax = isqrt((D - b0 * b0) >> 2)

    chains: list[list[tuple[int, list[int]]]] = [[]]
    for a, roots in _two_power_roots(D):
        if a > amax:
            break
        chains[0].append((2 * a, roots))
    if not _ODD_PRIMES:
        n = isqrt(CLASS_NUMBER_BOUND)
        prime = bytearray([1]) * (n + 1)
        for p in range(3, isqrt(n) + 1, 2):
            prime[p * p :: 2 * p] = bytes(len(range(p * p, n + 1, 2 * p)))
        _ODD_PRIMES.extend(p for p in range(3, n + 1, 2) if prime[p])
    for p in _ODD_PRIMES:
        if p > amax:
            break
        r = _sqrt_mod_prime(D, p)
        if r is None:
            continue
        chain = [(p, [r, p - r] if r else [0])]
        while chain[-1][0] * p <= amax:
            q, roots = chain[-1]
            roots = _lift_roots(roots, D, q, p)
            if not roots:
                break
            chain.append((q * p, roots))
        chains.append(chain)

    tmax = 2 * amax
    heads = [chain[0][0] for chain in chains] + [tmax + 1]
    W = s + 1
    keys: dict[int, int] = {}
    stack = [(1, [0], 0)]  # (t, its root classes mod t, index of its next chain)
    pop, push = stack.pop, stack.append
    while stack:
        t, roots, i = pop()
        limit = tmax // t
        for j in range(i, len(chains) if i else 1):  # the start takes the 2^(k+1)
            if heads[j] > limit:
                break
            for q, qroots in chains[j]:
                if q > limit:
                    break
                tq = t * q
                e = t * pow(t, -1, q)  # CRT: x + (y - x) e = x (mod t), = y (mod q)
                lo, hi = s - tq + 1, isqrt(D - tq * tq)  # lo >= 1 as tq <= s; b = D (mod 2)
                aW, t2 = tq // 2 * W, 2 * tq
                for x in roots:
                    xo = x - lo
                    for y in qroots:
                        b = lo + ((y - x) * e + xo) % tq
                        if b <= hi:
                            keys[aW + b] = -1
                            keys[(D - b * b) // t2 * W + b] = -1
                if tq * heads[j + 1] <= tmax:
                    push((tq, [(x + (y - x) * e) % tq for x in roots for y in qroots], j + 1))
    return keys


def principal_form(D: int) -> Form:
    s = isqrt(D)
    b0 = s if (s - D) % 2 == 0 else s - 1
    return (1, b0, (b0 * b0 - D) // 4)


def _form_cycles(D: int) -> tuple[dict[int, int], list[int]]:
    """Split the reduced forms of discriminant D into rho-cycles.

    Only the forms with a > 0 are enumerated, as keys a*W + b.  Since
    rho(-f) = -rho(f) and rho changes the sign of a, sigma(f) = -rho(f)
    permutes them, and its orbit through f is f, -rho(f), rho^2(f), ...
    An orbit of even length holds the forms with a > 0 of two cycles: the
    rho-cycle of f (its even steps) and the negation of that cycle (its odd
    steps).  An orbit of odd length meets -f, so its cycle is its own
    negation.

    Returns the index (key of a form with a > 0) -> cycle number, in walk
    order from the principal form, and for each cycle the number of its
    negation; the number of cycles is the narrow class number.
    """
    s = isqrt(D)
    W = s + 1
    unwalked = _reduced_form_keys(D)
    cycle_of: dict[int, int] = {}
    negation: list[int] = []
    f = W + principal_form(D)[1]
    start = unwalked.pop(f, None)  # None: f is not among the reduced forms
    while True:
        count = len(negation)
        orbit = []
        a, b = divmod(f, W)
        g = f
        try:
            while True:
                cycle_of[g] = count
                orbit.append(g)
                a = (D - b * b) // (4 * a)  # sigma: a' = -c, and b' the
                b = s - (s + b) % (2 * a)  # largest b' = -b (mod 2a') up to s
                g = a * W + b
                del unwalked[g]
        except KeyError:
            pass
        if start is None or g != f:
            a, b = divmod(f, W)
            fault = "ran into another cycle" if g != f and g in cycle_of else "left the reduced-form set"
            raise RuntimeError(f"cycle through {(a, b, (b * b - D) // (4 * a))} {fault} (D={D})")
        if len(orbit) % 2:
            negation.append(count)
        else:
            for g in orbit[1::2]:
                cycle_of[g] = count + 1
            negation += (count + 1, count)
        if not unwalked:
            return cycle_of, negation
        f, start = unwalked.popitem()


def _fundamental_unit(d: int, D: int, cycle_of: dict[int, int]) -> tuple[QuadUnit, list[int], list[int]]:
    """Fundamental unit > 1 of the maximal order of Q(sqrt(d)), and the first
    half of its period.

    The keys of ``cycle_of`` start with the orbit f_i = (a_i, b_i), i < l,
    of the principal form: the period of omega = (b_0 + sqrt(D))/2, with
    partial quotients q_0 = b_0, q_i = (b_(i-1) + b_i)/2a_i, and Q_i = a_i
    (2a_i for D = d).  As (a, b, -c) -> (c, b, -a) maps f_i to f_(l-1-i), the
    orbit is read to its centre, a_(i+1) = a_i (l odd) or b_(i+1) = b_i; the
    product of the [[q_i, 1], [1, 0]], 0 < i < l, is N N^T or N [[q_(m+1),
    1], [1, 0]] N^T, N the product up to m = (l-1) // 2, and its top row
    (y, y') gives the fundamental unit y*omega + y', of norm (-1)^l.
    """
    W = isqrt(D) + 1
    keys = iter(cycle_of)
    b0 = next(keys) - W
    a_prev, b_prev, quotients, denominators = 1, b0, [b0], []
    even = False  # l = 1 iff the principal form is its own sigma: D = b_0^2 + 4
    for key in keys if D - b0 * b0 != 4 else ():
        a, b = divmod(key, W)
        if a == a_prev:
            break
        quotients.append((b_prev + b) // (2 * a))
        denominators.append(a if D != d else 2 * a)
        if even := b == b_prev:
            break
        a_prev, b_prev = a, b
    if 2 * len(quotients) - 1 - even > CF_STEP_BOUND:  # l
        raise BoundExceeded(f"continued-fraction period of ({b0}+sqrt({D}))/2 exceeds {CF_STEP_BOUND}")
    n00, n01, n10, n11 = 1, 0, 0, 1
    for q in quotients[1 : len(quotients) - even]:
        n00, n01, n10, n11 = q * n00 + n01, n00, q * n10 + n11, n10
    r0, r1 = (quotients[-1] * n00 + n01, n00) if even else (n00, n01)
    y, y_prev = r0 * n00 + r1 * n01, r0 * n10 + r1 * n11
    # y*omega + y' = (x + y sqrt(D))/2, with sqrt(D) = 2 sqrt(d) for D = 4d
    x, y, norm = y * b0 + 2 * y_prev, y if D == d else 2 * y, 1 if even else -1
    if x % 2 or y % 2:
        return QuadUnit(x, y, 2, d, norm), quotients, denominators
    return QuadUnit(x // 2, y // 2, 1, d, norm), quotients, denominators


class DyadicData(Record):
    """Behaviour of the prime 2 in Q(sqrt(d)) and the ideal class it spans."""

    count: int                      # number of dyadic primes (1 or 2)
    class_order: int                # order of the dyadic prime class in Cl
    narrow_class_order: int         # its order in the narrow class group
    # whether the first principal power of a dyadic prime has a generator
    # of negative norm; the oracle reads it when the unit has norm +1
    generator_norm_negative: bool
    generator: QuadUnit | None      # a generator of that power; None when 2 splits


class ClassData(Record):
    """Class numbers of Q(sqrt(d))."""

    d: int
    discriminant: int
    h: int
    h_narrow: int


class QuadraticData(Record):
    """The invariants of Q(sqrt(d)) that the regularity oracle reads."""

    unit: QuadUnit        # the fundamental unit
    classes: ClassData
    dyadic: DyadicData


def _dyadic_data(d: int, D: int, cycle_of: dict[int, int], negation: list[int], period: list) -> DyadicData:
    """Splitting of 2 and the order of the dyadic ideal class.

    Principality of a power of the dyadic prime is decided by reducing its
    form and looking up its cycle: the principal cycle (narrow) or the
    principal-or-negated-principal cycles (wide).  ``cycle_of`` indexes the
    reduced forms with a > 0 by key; a reduced form with a < 0 lies on the
    negation of the cycle of its negation.  The form of the k-th power of a
    dyadic prime is (2^k, b, c), with b a root of b^2 = D (mod 2^(k+2)),
    lifted one bit per power.  When 2 is ramified, a norm +-2 generator is
    read off the ``period`` of s + sqrt(d) of the unit.
    """
    if d % 8 == 5:
        # 2 inert: the dyadic prime is (2) itself
        return DyadicData(1, 1, 1, False, QuadUnit(2, 0, 1, d, 4))

    s = isqrt(D)
    W = s + 1
    princ, neg = 0, negation[0]  # the principal form's orbit is walked first

    def cycle(a: int, b: int) -> int:
        f = (a, b, (b * b - D) // (4 * a))
        a, b, _ = _reduce_form(f, D, s)
        g = abs(a) * W + b
        if g not in cycle_of:
            raise RuntimeError(f"reduction of {f} is not among the reduced forms (D={D})")
        return cycle_of[g] if a > 0 else negation[cycle_of[g]]

    roots = _two_power_roots(D)
    next(roots)  # a = 1; the dyadic powers start at 2^1
    if d % 8 == 1:
        # 2 split: two dyadic primes; walk powers until one is principal
        order = narrow_order = neg_gen = None
        for k, (a, bs) in zip(range(1, len(negation) + 1), roots):
            cycles = {cycle(a, b) for b in bs}
            if narrow_order is None and princ in cycles:
                narrow_order = k
            if order is None:
                if princ in cycles:
                    order, neg_gen = k, False
                elif neg in cycles:
                    order, neg_gen = k, True
            if order is not None and narrow_order is not None:
                break
        if order is None or narrow_order is None:
            raise Undecided(f"dyadic class order search exhausted for d={d}")
        return DyadicData(2, order, narrow_order, neg_gen, None)

    # 2 ramified: the square of the dyadic prime is (2)
    gen = _norm_two_element(d, *period)
    if gen is not None:
        a, (b,) = next(roots)
        c = cycle(a, b)
        if c not in (princ, neg):
            raise RuntimeError(f"norm +-2 element found but form not principal (d={d})")
        narrow_order = 1 if c == princ else 2
        return DyadicData(1, 1, narrow_order, gen.norm < 0, gen)
    return DyadicData(1, 2, 2, False, QuadUnit(2, 0, 1, d, 4))


def quadratic_data(d: int) -> QuadraticData:
    """Fundamental unit, class numbers and dyadic data of Q(sqrt(d)).

    Each invariant is computed once: d is validated (2 <= d <=
    CLASS_NUMBER_BOUND, then squarefree), and the reduced forms of the field
    discriminant are enumerated and walked once.  The number of cycles is
    the narrow class number; the principal form's orbit, walked first, is
    the period that gives the fundamental unit, whose norm gives the wide
    class number; the dyadic data reads the cycle index.
    """
    check_class_number_bound(d)
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not squarefree_part(d)[0]:
        raise ValueError(f"d must be squarefree, got {d}")
    return _quadratic_data(d)


def check_class_number_bound(d: int) -> None:
    """Raise BoundExceeded for d > CLASS_NUMBER_BOUND (no factorization)."""
    if d > CLASS_NUMBER_BOUND:
        raise BoundExceeded(f"d={d} exceeds the class-number bound {CLASS_NUMBER_BOUND}")


def _quadratic_data(d: int) -> QuadraticData:
    """quadratic_data for a d already known to be squarefree and in bounds."""
    D = d if d % 4 == 1 else 4 * d
    cycle_of, negation = _form_cycles(D)
    unit, *period = _fundamental_unit(d, D, cycle_of)
    h_narrow = len(negation)
    # Cl+ = Cl exactly when the unit has norm -1: then every cycle is its
    # own negation, and otherwise none is.
    self_negative = sum(i == j for i, j in enumerate(negation))
    if self_negative != (h_narrow if unit.norm == -1 else 0):
        raise RuntimeError(
            f"{self_negative} of {h_narrow} form cycles are their own negation,"
            f" but the fundamental unit has norm {unit.norm} (d={d})"
        )
    h = h_narrow if unit.norm == -1 else h_narrow // 2
    return QuadraticData(unit, ClassData(d, D, h, h_narrow), _dyadic_data(d, D, cycle_of, negation, period))
