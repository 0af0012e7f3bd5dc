"""Finitely generated abelian groups up to odd torsion.

A group is stored in canonical form as a free rank plus an ascending
multiset of cyclic 2-power torsion orders.  Only 2-groups ever occur as
torsion here, so this is the full invariant; odd torsion is deliberately
not representable.

>>> print(direct_sum(Z(1), C(2)))
Z + Z/2
>>> print(n_copies(3, C(2)))
Z/2 + Z/2 + Z/2
"""

from __future__ import annotations

import math

from .errors import EmptyWindow
from .record import Record


# The intern table: (rank, torsion as given) -> the one value.
_INTERNED: dict = {}


class FgAb2(Record):
    """A finitely generated abelian group modulo odd torsion.

    ``rank`` counts infinite cyclic summands; ``torsion`` lists the orders
    of the cyclic 2-torsion summands, each a power of two >= 2, ascending.
    There is one object per canonical value: ``FgAb2(rank, torsion)``
    returns it, so two groups are equal iff they are the same object, and
    equality and hashing are ``object``'s.
    """

    rank: int
    torsion: tuple[int, ...]

    # __new__ returns the one finished object per value: Record's __init__
    # must not write into it again, and equality and hashing are identity
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, rank: int = 0, torsion: tuple[int, ...] = ()) -> FgAb2:
        key = rank, tuple(torsion)
        g = _INTERNED.get(key)
        if g is None:
            # the first caller's fields are every caller's: True or 2.0 would stick
            if type(rank) is not int or not all(type(t) is int for t in key[1]):
                raise TypeError(f"rank and torsion orders must be ints, got {rank!r}, {key[1]!r}")
            if rank < 0:
                raise ValueError(f"rank must be nonnegative, got {rank}")
            tors = tuple(sorted(key[1]))
            for t in tors:
                if t < 2 or t & (t - 1):
                    raise ValueError(f"torsion order {t} is not a 2-power >= 2")
            g = _INTERNED.get((rank, tors))
            if g is None:
                g = _INTERNED[rank, tors] = object.__new__(cls)
                object.__setattr__(g, "rank", rank)
                object.__setattr__(g, "torsion", tors)
            # an unsorted torsion finds the value without sorting next time
            _INTERNED[key] = g
        return g

    def __reduce__(self):
        # rebuild through FgAb2(), not by writing fields into FgAb2.__new__()
        return FgAb2, (self.rank, self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def torsion_order(self) -> int:
        """Order of the torsion subgroup (1 for torsion-free groups)."""
        return math.prod(self.torsion)

    def __str__(self) -> str:
        return format_group(self)


ZERO = FgAb2(0, ())


class _Memo(dict):
    """A dict that builds a missing value as ``build(key)`` and keeps it;
    calling it looks the key up, so ``Z(3)`` is ``Z[3]``."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value

    __call__ = dict.__getitem__


# One shared value per argument.  The input bounds (N_MAX_BOUND, R_BOUND,
# B_BOUND, Q_BOUND) keep the set of distinct arguments small.
# Z(rank): the free abelian group of the given rank.
Z = _Memo(lambda rank: FgAb2(rank, ()))
# C(order): the cyclic group of the given 2-power order.
C = _Memo(lambda order: FgAb2(0, (order,)))
# C2(copies): (Z/2)^copies.
C2 = _Memo(lambda copies: FgAb2(0, (2,) * copies))


def direct_sum(*groups: FgAb2) -> FgAb2:
    """Direct sum; rank adds and torsion multisets merge.

    Associative and commutative with neutral element the zero group; a sum
    with at most one nonzero operand returns that operand (or ZERO).  One
    shared value per operand tuple, like Z, C and C2.
    """
    return _SUMS(groups)


# FgAb2 interns, so a sum with one nonzero operand is that operand's object
_SUMS = _Memo(lambda groups: FgAb2(sum(g.rank for g in groups),
                                   tuple(t for g in groups for t in g.torsion)))


def n_copies(k: int, g: FgAb2) -> FgAb2:
    """k-fold direct sum of g; k = 0 gives the zero group.  One shared value
    per (k, g), like direct_sum."""
    if k < 0:
        raise ValueError(f"copy count must be nonnegative, got {k}")
    return _COPIES[k, g]


_COPIES = _Memo(lambda key: FgAb2(key[0] * key[1].rank, key[1].torsion * key[0]))


def ses_consistent(a: FgAb2, b: FgAb2, c: FgAb2) -> bool:
    """Necessary conditions for a short exact sequence 0 -> a -> b -> c -> 0.

    Checks the rank additivity and the two torsion-order divisibilities.
    These conditions are necessary but not sufficient; every split sequence
    passes.
    """
    if b.rank != a.rank + c.rank:
        return False
    ta, tb, tc = a.torsion_order(), b.torsion_order(), c.torsion_order()
    return tb % ta == 0 and (ta * tc) % tb == 0


def alternating_rank_sum(groups) -> int:
    return sum((-1) ** i * g.rank for i, g in enumerate(groups))


def exact_window_check(groups: tuple[FgAb2, ...]) -> bool:
    """Necessary exactness conditions for consecutive terms of an exact
    sequence flanked by zero groups (or by maps that are provably zero) on
    both sides.

    All-finite windows must telescope: the alternating product of the group
    orders is 1.  As soon as free parts appear only the rank Euler
    characteristic is asserted (boundary maps are not modeled, so torsion
    telescoping is not determined).  A full period of a periodic long exact
    sequence, which has no zero ends, is held to the rank condition alone:
    ``alternating_rank_sum(period) == 0``.
    """
    if not groups:
        raise EmptyWindow("exact window must contain at least one group")
    if all(g.is_finite for g in groups):
        even = math.prod(g.torsion_order() for g in groups[0::2])
        odd = math.prod(g.torsion_order() for g in groups[1::2])
        return even == odd
    return alternating_rank_sum(groups) == 0


def format_group(g: FgAb2) -> str:
    """Canonical text form, e.g. "Z^2 + Z/2 + Z/16"; "0" for the zero group.
    One shared text per group, like direct_sum."""
    return _TEXTS(g)


def _text(g: FgAb2) -> str:
    parts: list[str] = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank > 1:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{t}" for t in g.torsion)
    return " + ".join(parts) if parts else "0"


_TEXTS = _Memo(_text)


def parse_group(text: str) -> FgAb2:
    """Inverse of :func:`format_group` on canonical forms."""
    text = text.strip()
    if text == "0":
        return ZERO
    rank = 0
    torsion: list[int] = []
    for token in text.split("+"):
        token = token.strip()
        if token == "Z":
            rank += 1
        elif token.startswith("Z^"):
            rank += int(token[2:])
        elif token.startswith("Z/"):
            torsion.append(int(token[2:]))
        else:
            raise ValueError(f"cannot parse group term {token!r}")
    return FgAb2(rank, tuple(torsion))


def group_to_json(g: FgAb2) -> dict:
    """JSON shape {"rank": <int>, "torsion": [<int>...]} with torsion ascending."""
    return {"rank": g.rank, "torsion": list(g.torsion)}
