import doctest
import json

import pytest
from hypothesis import given, strategies as st

import kq2.abgroup
from kq2 import tables
from kq2.abgroup import (
    C,
    C2,
    FgAb2,
    Z,
    ZERO,
    alternating_rank_sum,
    direct_sum,
    exact_window_check,
    format_group,
    group_to_json,
    n_copies,
    parse_group,
    ses_consistent,
)
from kq2.cli import main
from kq2.errors import EmptyWindow

groups = st.builds(
    FgAb2,
    st.integers(0, 4),
    st.lists(st.sampled_from([2, 4, 8, 16, 32]), max_size=5).map(tuple),
)


def test_canonical_form():
    g = FgAb2(1, (16, 2, 4))
    assert g.torsion == (2, 4, 16)
    assert FgAb2(1, (2, 4, 16)) == g


@pytest.mark.parametrize("bad", [(3,), (0,), (6,), (1,), (-2,)])
def test_rejects_non_two_power_torsion(bad):
    with pytest.raises(ValueError):
        FgAb2(0, bad)


def test_rejects_negative_rank():
    with pytest.raises(ValueError):
        FgAb2(-1, ())


def test_module_docstring_examples():
    result = doctest.testmod(kq2.abgroup)
    assert (result.failed, result.attempted) == (0, 2)


@given(st.lists(groups, max_size=5), st.randoms(use_true_random=False))
def test_memoized_direct_sum_is_the_merge_of_its_operands(operands, rng):
    expected = FgAb2(sum(g.rank for g in operands), tuple(t for g in operands for t in g.torsion))
    shuffled = list(operands)
    rng.shuffle(shuffled)
    for order in (operands, shuffled, operands, [FgAb2(g.rank, g.torsion) for g in shuffled]):
        assert direct_sum(*order) == expected


@given(st.integers(0, 6), groups)
def test_memoized_n_copies_is_the_merge_of_k_copies(k, g):
    expected = FgAb2(k * g.rank, g.torsion * k)
    assert n_copies(k, g) == n_copies(k, FgAb2(g.rank, g.torsion)) == expected


def test_direct_sum_examples():
    assert direct_sum(Z(1), C(2)) == FgAb2(1, (2,))
    assert direct_sum(ZERO, C(8)) == C(8)
    assert direct_sum(FgAb2(1, (2,)), FgAb2(1, (16,))) == FgAb2(2, (2, 16))


def test_n_copies_examples():
    assert n_copies(3, C(2)) == C2(3)
    assert n_copies(0, Z(1)) == ZERO
    assert n_copies(2, FgAb2(1, (2,))) == FgAb2(2, (2, 2))
    with pytest.raises(ValueError):
        n_copies(-1, Z(1))


def test_ses_consistent_examples():
    assert ses_consistent(Z(2), FgAb2(2, (2,)), C2(3))
    assert ses_consistent(ZERO, FgAb2(1, (4,)), FgAb2(1, (4,)))
    assert not ses_consistent(C(4), C(2), ZERO)
    assert not ses_consistent(Z(1), Z(1), Z(1))  # ranks do not add up


@given(groups, groups)
def test_split_sequences_always_consistent(a, c):
    assert ses_consistent(a, direct_sum(a, c), c)


@given(groups, groups, groups)
def test_direct_sum_associative_commutative(a, b, c):
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
    assert direct_sum(a, b) == direct_sum(b, a)
    assert direct_sum(a, ZERO) == a


def test_exact_window_examples():
    assert exact_window_check((ZERO, C(2), C2(2), C(2), ZERO))
    assert exact_window_check((ZERO, Z(1), Z(2), Z(1), ZERO))
    assert not exact_window_check((ZERO, C(2), C(2), C(2), ZERO))


def test_exact_window_empty():
    with pytest.raises(EmptyWindow):
        exact_window_check(())


@given(groups)
def test_identity_window_passes(g):
    assert exact_window_check((ZERO, g, g, ZERO))


@given(groups)
def test_lonely_nonzero_group_fails(g):
    window = (ZERO, g, ZERO)
    assert exact_window_check(window) == (g is ZERO)


def test_mixed_window_checks_rank_only():
    # free parts present: only the rank Euler characteristic is asserted
    window = (ZERO, FgAb2(1, (2,)), FgAb2(1, (8,)), ZERO)
    assert exact_window_check(window)


def test_unbounded_window_checks_rank():
    assert alternating_rank_sum((Z(1), Z(2), Z(1))) == 0
    assert alternating_rank_sum((Z(1), Z(2))) != 0


def test_memoized_format_group_returns_the_same_text(capsys):
    theories = ",".join(name for name, tag in tables.THEORIES.items() if tag.needs_degree)
    assert main(["table", "--json", "--n-max", "300", "--theories", theories, "--field", "Q(zeta 11)+"]) == 0
    printed = {(g["rank"], tuple(g["torsion"])): g["formatted"]
               for row in json.loads(capsys.readouterr().out)["results"]
               for g in row["groups"].values() if g is not None}
    assert len(printed) > 10
    for (rank, torsion), text in printed.items():
        free = [] if rank == 0 else ["Z"] if rank == 1 else [f"Z^{rank}"]
        expected = " + ".join(free + [f"Z/{t}" for t in torsion]) or "0"
        g = FgAb2(rank, torsion)
        assert format_group(g) == str(g) == text == expected
        assert format_group(g) is format_group(g)


def test_format_examples():
    assert format_group(FgAb2(2, (2,))) == "Z^2 + Z/2"
    assert format_group(ZERO) == "0"
    assert format_group(C2(3)) == "Z/2 + Z/2 + Z/2"
    assert group_to_json(C(16)) == {"rank": 0, "torsion": [16]}


@given(groups)
def test_format_parse_round_trip(g):
    assert parse_group(format_group(g)) == g


def group_from_json(data: dict) -> FgAb2:
    """Reference inverse of group_to_json."""
    return FgAb2(int(data["rank"]), tuple(int(t) for t in data["torsion"]))


@given(groups)
def test_json_round_trip(g):
    assert group_from_json(group_to_json(g)) == g


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_group("Z/3 + Q")
