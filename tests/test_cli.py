import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kq2 import abgroup, adams, cli, fields, numtheory as nt, tables as tb, verify
from kq2.adams import Q_BOUND
from kq2.cli import N_MAX_BOUND, _dumps, main
from kq2.errors import DegreeOutOfRange

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_human(capsys):
    code, out, _ = run(capsys, "group", "--theory", "KQ-", "--n", "3", "--field", "Q(sqrt 6)")
    assert code == 0
    assert out.splitlines()[0] == "Z/2 + Z/16"
    assert any(line.startswith("# q = 3") for line in out.splitlines())


def test_group_json_matches_human(capsys):
    code, out, _ = run(
        capsys, "group", "--theory", "KQ-", "--n", "3", "--field", "Q(sqrt 6)", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["formatted"] == "Z/2 + Z/16"
    assert payload["result"] == {"rank": 0, "torsion": [2, 16], "formatted": "Z/2 + Z/16"}
    assert payload["q"] == 3
    assert payload["field"] == {"label": "Q(sqrt 6)", "r": 2, "a_F": 2, "two_regular": True}


def test_regular_oracle(capsys):
    code, out, _ = run(capsys, "regular", "--field", "Q(sqrt 34)", "--oracle")
    assert code == 0
    assert out.startswith("not 2-regular:")
    assert "even order" in out

    code, out, _ = run(capsys, "regular", "--field", "Q(sqrt 7)", "--oracle")
    assert code == 0
    assert "signs fail" in out

    code, out, _ = run(capsys, "regular", "--field", "Q(sqrt 10)", "--oracle")
    assert code == 0
    assert out.startswith("2-regular:")


def test_regular_oracle_prints_only_the_failing_conditions(capsys):
    _, out, _ = run(capsys, "regular", "--field", "Q(sqrt 17)", "--oracle")
    assert out == "not 2-regular: two dyadic primes (d = 17 splits 2, d = 1 mod 8)\n"
    _, out, _ = run(capsys, "regular", "--field", "Q(sqrt 34)", "--oracle", "--json")
    assert json.loads(out)["result"]["oracle"]["reasons"][0] == "unique dyadic prime"


def test_regular_oracle_notes_a_disagreement_with_the_criterion(capsys, monkeypatch):
    oracle = cli.two_regular_oracle

    def flipped(spec):
        inv = oracle(spec)
        return fields.FieldInvariants(inv.dyadic_count, inv.pic_odd, inv.units_indep_signs, inv.narrow_pic_odd,
                                      not inv.two_regular, inv.reasons, inv.failing)
    monkeypatch.setattr(cli, "two_regular_oracle", flipped)
    note = "oracle verdict disagrees with the closed-form criterion"
    # the criterion admits Q(sqrt 10); the flipped oracle does not, and wins
    code, out, _ = run(capsys, "regular", "--oracle", "--field", "Q(sqrt 10)")
    assert code == 0 and out.startswith("not 2-regular:") and out.endswith(f"\n# {note}\n")
    code, out, _ = run(capsys, "regular", "--oracle", "--json", "--field", "Q(sqrt 10)")
    payload = json.loads(out)
    assert payload["notes"] == [note] and payload["result"]["two_regular"] is False


def test_group_on_irregular_field_exits_2(capsys):
    code, _, err = run(capsys, "group", "--theory", "KQ+", "--n", "5", "--field", "Q(sqrt 34)")
    assert code == 2
    assert "NotTwoRegular" in err


# U is V one degree down, so U+ and U- have no degree 0; the field is still
# checked first, in every degree
@pytest.mark.parametrize("argv", [
    ("table", "--n-max", "0", "--theories", "U+,U-"),
    ("table", "--n-max", "8", "--theories", "U+"),
    ("group", "--theory", "U-", "--n", "0"),
    ("group", "--theory", "U+", "--n", "0"),
])
def test_u_on_irregular_field_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--field", "Q(sqrt 7)")
    assert (code, out) == (2, "")
    assert err.startswith("error: NotTwoRegular: Q(sqrt 7) is not 2-regular")


def test_u_in_degree_0_is_out_of_range_on_a_regular_field(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "1", "--theories", "U+,U-", "--field", "Q")
    assert code == 0 and out.splitlines()[1].split() == ["0", "-", "-"]
    code, _, err = run(capsys, "group", "--theory", "U-", "--n", "0", "--field", "Q")
    assert code == 2 and err == "error: DegreeOutOfRange: theory U- needs n >= 1, got 0\n"
    code, _, err = run(capsys, "group", "--theory", "U+", "--n", "0", "--field", "Q")
    assert code == 2 and err == "error: DegreeOutOfRange: theory U+ needs n >= 1, got 0\n"


def test_kbar_in_degree_0_names_the_theory(capsys):
    code, out, err = run(capsys, "group", "--theory", "Kbar", "--n", "0", "--field", "Q")
    assert (code, out) == (2, "")
    assert err == "error: DegreeOutOfRange: theory Kbar needs n >= 1, got 0\n"


def test_inadmissible_q_exits_2(capsys):
    code, _, err = run(capsys, "group", "--theory", "KQ+", "--n", "1", "--field", "Q", "--q", "7")
    assert code == 2
    assert "InadmissibleQ" in err


# no admissible prime lies below Q_SEARCH_BOUND for a >= 21: a command whose
# theories read no q runs without one, and every other command exits 2
NO_Q_FIELD = "generic r=1 a=21 regular"


@pytest.mark.parametrize("argv, first", [
    (("group", "--theory", "K", "--n", "3"), "Z/8388608"),
    (("table", "--n-max", "3", "--theories", "K,KQ+"), "n  K          KQ+"),
])
def test_commands_that_read_no_q_run_without_one(capsys, argv, first):
    code, out, err = run(capsys, *argv, "--field", NO_Q_FIELD)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == first
    assert lines[-1] == f"# no congruence-admissible prime q exists below {fields.Q_SEARCH_BOUND}; no theory here reads q"
    code, out, _ = run(capsys, *argv, "--field", NO_Q_FIELD, "--json")
    assert code == 0 and json.loads(out)["q"] is None


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("find-q",),
    ("group", "--theory", "KFq", "--n", "3"),
    ("table", "--n-max", "3", "--theories", "K,KQbar+"),
    ("group", "--theory", "K", "--n", "3", "--q", "7"),
    ("table", "--n-max", "3", "--theories", "K", "--q", "7"),
])
def test_commands_that_read_q_exit_2_without_one(capsys, argv):
    code, out, err = run(capsys, *argv, "--field", NO_Q_FIELD)
    assert (code, out) == (2, "")
    assert err.startswith("error: InadmissibleQ: ")


def test_usage_errors_exit_1(capsys):
    code, _, _ = run(capsys, "group", "--theory", "BOGUS", "--n", "1")
    assert code == 1
    code, _, _ = run(capsys, "group", "--theory", "K", "--n", "-1", "--field", "Q")
    assert code == 1
    code, _, _ = run(capsys, "bogus-command")
    assert code == 1
    code, _, _ = run(capsys, "group", "--field", "Q")  # missing --theory
    assert code == 1
    code, _, _ = run(capsys, "group", "--theory", "K", "--n", "1", "--field", "Q[x]")
    assert code == 1
    # more digits than int() converts
    for field in ("Q(sqrt " + "1" * 5000 + ")", "generic r=" + "1" * 5000 + " a=2"):
        code, out, err = run(capsys, "group", "--theory", "K", "--n", "1", "--field", field)
        assert (code, out) == (1, "") and err.startswith("usage error: cannot parse field")


def test_find_q(capsys):
    code, out, _ = run(capsys, "find-q", "--field", "Q(sqrt 2)")
    assert code == 0
    assert "q = 7" in out
    code, out, _ = run(capsys, "find-q", "--field", "Q", "--json")
    assert json.loads(out)["q"] == 3


def test_table_periodicity_in_output(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "16", "--field", "Q", "--theories", "V+,V-")
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith(("#", "n"))]
    cells = {int(line.split()[0]): line.split(maxsplit=1)[1] for line in lines}
    for n in range(1, 9):
        assert cells[n] == cells[n + 8]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "2", "--field", "Q", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [row["n"] for row in payload["results"]] == [0, 1, 2]
    assert payload["results"][1]["groups"]["K"]["formatted"] == "Z + Z/2"


def test_table_marks_out_of_range_degrees(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "1", "--field", "Q", "--theories", "Kbar,U+")
    assert code == 0
    row0 = out.splitlines()[1].split()
    assert row0 == ["0", "-", "-"]
    code, out, _ = run(capsys, "table", "--n-max", "1", "--field", "Q", "--theories", "Kbar", "--json")
    payload = json.loads(out)
    assert payload["results"][0]["groups"]["Kbar"] is None
    assert payload["results"][1]["groups"]["Kbar"]["formatted"] == "Z + Z/2"


def test_table_rejects_degreeless_theory(capsys):
    code, _, _ = run(capsys, "table", "--n-max", "4", "--field", "Q", "--theories", "W")
    assert code == 1


# a table has at most one column per theory, so its cost is bounded; the
# check runs after aliases resolve and before any field work
@pytest.mark.parametrize("theories, named", [
    ("K,K", "K"),
    ("KQ+,kq+", "KQ+"),
    ("V-,K, v- ", "V-"),
    ("W',WPRIME", "W'"),
    (",".join(["K"] * 65_000), "K"),
])
def test_table_rejects_a_theory_named_twice(capsys, monkeypatch, theories, named):
    _patch_everywhere(monkeypatch, fields, "parse_field", _refuse)
    code, out, err = run(capsys, "table", "--n-max", "8", "--field", "Q", "--theories", theories)
    assert (code, out) == (1, "")
    assert err == f"usage error: theory {named} is named twice in --theories\n"


def test_kbar_note_flags_resolved_order(capsys):
    code, out, _ = run(capsys, "group", "--theory", "Kbar", "--n", "7", "--field", "Q")
    assert code == 0
    assert out.splitlines()[0] == "Z/16"
    assert any("w(4k+4)" in line for line in out.splitlines())
    code, out, _ = run(capsys, "group", "--theory", "Kbar", "--n", "3", "--field", "Q")
    assert not any("w(4k+4)" in line for line in out.splitlines())


def test_group_low_degree(capsys):
    code, out, _ = run(capsys, "group", "--theory", "KQ-", "--n", "-1", "--field", "Q")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_degreeless_theories(capsys):
    for theory, expected in [("W", "Z + Z/2"), ("W'", "Z + Z/2"), ("W1", "Z/2")]:
        code, out, _ = run(capsys, "group", "--theory", theory, "--field", "Q")
        assert code == 0
        assert out.splitlines()[0] == expected


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--field", "Q", "--n-max", "16")
    assert code == 0
    assert "18/18 checks passed" in out


def test_verify_failure_exits_3(capsys):
    with tb.fault_injection("v_bar-", 0):
        code, out, _ = run(capsys, "verify", "--field", "Q", "--n-max", "16")
    assert code == 3
    assert "FAIL" in out


def test_verify_on_irregular_field_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--field", "Q(sqrt 34)")
    assert code == 2
    assert "NotTwoRegular" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--field", "Q", "--n-max", "16", "--json")
    payload = json.loads(out)
    assert code == 0
    assert all(item["passed"] for item in payload["results"])
    assert {"name", "passed", "details"} <= set(payload["results"][0])


def test_adams_cli(capsys):
    code, out, _ = run(capsys, "adams", "--q", "3", "--dump-coeffs")
    assert code == 0
    assert "odd" in out
    assert "240 -720 1448 -1696 1214 -486 81" in out
    code, out, _ = run(capsys, "adams", "--q", "5", "--json")
    payload = json.loads(out)
    assert payload["result"]["obstruction"] is True
    assert payload["result"]["constant_term"] == 3 * (5**4 - 1)
    code, _, err = run(capsys, "adams", "--q", "4")
    assert code == 2 and "EvenQ" in err
    code, _, err = run(capsys, "adams", "--q", "1")
    assert code == 2 and "BoundExceeded: q must be odd and >= 3, got 1" in err


def test_unverified_generic_is_flagged(capsys):
    code, out, _ = run(capsys, "group", "--theory", "K", "--n", "1", "--field", "generic r=3 a=2")
    assert code == 0
    assert any("unverified" in line for line in out.splitlines())


def test_determinism(capsys):
    argv = ["table", "--n-max", "12", "--field", "Q(sqrt 5)", "--json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


ADAMS_Q5 = "q = 5: coefficient of u^10 is 625 (odd); realification factorization impossible\n"


def _count_expansions(monkeypatch):
    """The calls of adams._expand, which builds the whole bracket."""
    calls = []
    original = adams._expand
    monkeypatch.setattr(adams, "_expand", lambda *a: calls.append(a) or original(*a))
    return calls


def test_plain_adams_builds_no_bracket(capsys, monkeypatch):
    calls = _count_expansions(monkeypatch)
    assert run(capsys, "adams", "--q", "5")[:2] == (0, ADAMS_Q5)
    code, out, _ = run(capsys, "adams", "--q", "5", "--json")
    assert code == 0 and '"top_coefficient": 625' in out and '"coeffs": null' in out
    assert calls == []


def test_adams_dump_coeffs_builds_the_bracket_once(capsys, monkeypatch):
    calls = _count_expansions(monkeypatch)
    code, out, _ = run(capsys, "adams", "--q", "5", "--dump-coeffs")
    assert code == 0 and out.startswith(ADAMS_Q5)
    assert out.endswith("coefficients: 1872 -9360 34344 -81216 134354 -158118 131249 -75000 28125 -6250 625\n")
    assert calls == [(5,)]


def _refuse(*args):
    raise AssertionError("work started above the bound")


def _patch_everywhere(monkeypatch, target, name, fn):
    """Replace target.name in every kq2 module that binds the same function,
    so calls through a from-import are replaced too."""
    original = getattr(target, name)
    for module in (abgroup, adams, cli, fields, nt, tb, verify):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fn)


@pytest.mark.parametrize("argv, target, name", [
    (("table", "--n-max", str(N_MAX_BOUND + 1), "--field", "Q"), tb, "column"),
    (("verify", "--n-max", str(N_MAX_BOUND + 1), "--field", "Q"), verify, "run_all"),
    (("adams", "--q", str(Q_BOUND + 2), "--dump-coeffs"), adams, "_expand"),
    (("regular", "--json", "--field", f"Q(zeta 2^{fields.B_BOUND + 1})+"), fields, "_resolved"),
    (("regular", "--json", "--field", "Q(zeta 2^20000)+"), fields, "_resolved"),
    (("group", "--theory", "KQ+", "--n", "1", "--field", f"generic r={fields.R_BOUND + 1} a=2 regular"),
     tb, "_eval_row"),
    (("table", "--n-max", "8", "--field", f"generic r={fields.R_BOUND + 1} a=2 regular"), tb, "_eval_row"),
    (("verify", "--n-max", "8", "--field", f"generic r={fields.R_BOUND + 1} a=2 regular"), tb, "_eval_row"),
    (("regular", "--field", f"generic r=1 a={fields.B_BOUND + 1} regular"), fields, "_resolved"),
    (("find-q", "--field", f"generic r=1 a={fields.B_BOUND + 1} regular"), fields, "find_q_for_a"),
    (("adams", "--q", str(Q_BOUND + 2)), adams, "_expand"),
    # is_prime decides q below psi_12 only; q = psi_12 = 1287836182261 * 2575672364521
    (("group", "--theory", "KFq", "--n", "1", "--field", "Q", "--q", str(nt.PRIME_BOUND)), tb, "column"),
    (("group", "--json", "--theory", "KFq", "--n", "1", "--field", "Q", "--q", str(nt.PRIME_BOUND)),
     tb, "column"),
    (("group", "--theory", "K", "--n", str(cli.N_BOUND + 1), "--field", "Q"), fields, "parse_field"),
    (("group", "--json", "--theory", "K", "--n", str(cli.N_BOUND + 1), "--field", "Q"), fields, "parse_field"),
    # 4,300 digits, which int() still reads and whose torsion order str() could not print
    (("group", "--theory", "K", "--n", str(8 * 2**14280 - 1), "--field", "generic r=1 a=64 regular"),
     fields, "parse_field"),
])
def test_input_bounds_exit_2_before_work(capsys, monkeypatch, argv, target, name):
    _patch_everywhere(monkeypatch, target, name, _refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "BoundExceeded" in err


def test_negative_n_max_is_a_usage_error(capsys):
    for command in ("table", "verify"):
        code, _, _ = run(capsys, command, "--n-max", "-1", "--field", "Q")
        assert code == 1


# verify needs a full period of degrees; a smaller --n-max is refused before
# the field is parsed, so it is a usage error whatever the field
@pytest.mark.parametrize("n_max", [-(10**6), -8, -1, 0, 1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("field", ["Q(sqrt 34)", "generic r=1 a=30 regular", "Q"])
def test_verify_small_n_max_is_a_usage_error_before_field_work(capsys, monkeypatch, n_max, field):
    monkeypatch.setattr(cli, "parse_field", _refuse)
    code, out, err = run(capsys, "verify", "--n-max", str(n_max), "--field", field)
    assert (code, out) == (1, "")
    assert f"--n-max must be >= {verify.N_MAX_LEAST}" in err


def test_group_help_lists_every_theory(capsys):
    with pytest.raises(SystemExit):
        main(["group", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(tb.THEORIES) in help_text


DEGREE_THEORIES = ",".join(name for name, tag in tb.THEORIES.items() if tag.needs_degree)


def _factorize_calls(capsys, monkeypatch, *argv):
    """How often one successful command factorizes each number."""
    calls = Counter()
    original = nt.factorize
    with monkeypatch.context() as patch:
        patch.setattr(nt, "factorize", lambda n: calls.update([n]) or original(n))
        code, _, _ = run(capsys, *argv)
    assert code == 0
    return calls


# the field is resolved once per command, so the number of factorizations
# does not grow with the number of table cells or verify cases
@pytest.mark.parametrize("field", ["Q(zeta 11)+", "Q(sqrt 6)", "Q(sqrt 999999999989)"])
def test_table_factorizes_independently_of_n_max(capsys, monkeypatch, field):
    counts = [
        _factorize_calls(capsys, monkeypatch, "table", "--n-max", n_max, "--theories", DEGREE_THEORIES,
                         "--field", field)
        for n_max in ("8", "64")
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("field", ["Q(zeta 11)+", "Q(sqrt 6)", "Q(sqrt 999999999989)"])
def test_verify_factorizes_independently_of_n_max(capsys, monkeypatch, field):
    counts = [_factorize_calls(capsys, monkeypatch, "verify", "--n-max", n_max, "--field", field)
              for n_max in ("64", "128")]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("argv, code, stream", [
    (("regular", "--field", f"generic r={fields.R_BOUND + 1} a=2 regular"), 0, "2-regular: caller claims"),
    (("find-q", "--field", f"generic r={fields.R_BOUND + 1} a=2 regular"), 0, "q = 3 "),
    (("regular", "--json", "--field", f"Q(zeta 2^{fields.B_BOUND})+"), 0, f'"r": {2 ** (fields.B_BOUND - 2)}'),
    # accepted, but no admissible q lies below the search limit for a = B_BOUND
    (("find-q", "--field", f"Q(zeta 2^{fields.B_BOUND})+"), 2, "InadmissibleQ"),
    (("regular", "--field", f"generic r=1 a={fields.B_BOUND} regular"), 0, "2-regular: caller claims"),
    (("find-q", "--field", f"generic r=1 a={fields.B_BOUND} regular"), 2, "InadmissibleQ"),
])
def test_regular_and_find_q_take_large_fields(capsys, argv, code, stream):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert stream in (out if code == 0 else err)


# the spec is checked once, when parse_field builds it
@pytest.mark.parametrize("argv", [
    ("group", "--theory", "KQ+", "--n", "3"),
    ("table", "--n-max", "8"),
    ("verify", "--n-max", "16"),
    ("regular",),
    ("find-q",),
])
def test_each_command_factorizes_a_large_d_once(capsys, monkeypatch, argv):
    assert _factorize_calls(capsys, monkeypatch, *argv, "--field", "Q(sqrt 999999999989)") == {999999999989: 1}


# Q(zeta m)+ factorizes m once, when the spec checks that m is a prime power;
# the spec keeps the prime, so phi(m) and the primitive-root test need no
# more factorization of m.  phi = 10 is factorized for the primitive-root test
@pytest.mark.parametrize("argv", [
    ("group", "--theory", "KQ+", "--n", "3"),
    ("table", "--n-max", "8"),
    ("verify", "--n-max", "16"),
    ("regular",),
    ("find-q",),
])
def test_each_command_factorizes_m_once(capsys, monkeypatch, argv):
    assert _factorize_calls(capsys, monkeypatch, *argv, "--field", "Q(zeta 11)+") == {11: 1, 10: 1}


# every usage check runs before the field is parsed, which resolves it
@pytest.mark.parametrize("argv, refused", [
    (("group", "--theory", "K", "--n", "-1", "--field", "Q(zeta 7)+"), ("parse_field",)),
    (("group", "--theory", "K", "--n", "-1", "--field", "Q", "--q", "7"), ("parse_field",)),
    (("group", "--theory", "K", "--field", "Q(zeta 7)+"), ("parse_field",)),
    (("group", "--theory", "BOGUS", "--n", "1", "--field", "Q(zeta 7)+"), ("parse_field",)),
    (("table", "--n-max", "8", "--theories", "W", "--field", "Q", "--q", "7"), ("parse_field",)),
    (("table", "--n-max", "-1", "--field", "Q(zeta 7)+"), ("parse_field",)),
    # --oracle needs the family, so the field is parsed but the oracle not run
    (("regular", "--oracle", "--field", "Q(zeta 9)+"), ("two_regular_oracle",)),
])
def test_usage_errors_come_before_field_work(capsys, monkeypatch, argv, refused):
    for name in refused:
        _patch_everywhere(monkeypatch, fields, name, _refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("usage error: ")


# a spec that fails its own checks is refused when it is parsed, before the
# --oracle family check: 2 is no primitive root modulo 7
def test_oracle_on_an_invalid_family_member_is_a_domain_error(capsys, monkeypatch):
    _patch_everywhere(monkeypatch, fields, "two_regular_oracle", _refuse)
    code, out, err = run(capsys, "regular", "--oracle", "--field", "Q(zeta 7)+")
    assert (code, out) == (2, "")
    assert err == "error: NotPrimitiveRoot: 2 is not a primitive root modulo 7\n"


# each command chooses q once; verify's run_all checks the q it is handed
# once more, at the library boundary, and the check functions below it take
# the checked field and columns
@pytest.mark.parametrize("q", [None, "5"])
@pytest.mark.parametrize("argv, choices", [
    (("group", "--theory", "KQ+", "--n", "3"), 1),
    (("table", "--n-max", "8", "--theories", DEGREE_THEORIES), 1),
    (("verify", "--n-max", "16"), 2),
])
def test_each_command_resolves_the_field_and_chooses_q_once(capsys, monkeypatch, argv, choices, q):
    parsed, chosen = [], []
    parse_field, choose_q = fields.parse_field, fields.choose_q

    def counting_parse_field(text):
        parsed.append(text)
        return parse_field(text)

    def counting_choose_q(field, given):
        chosen.append((field, given))
        return choose_q(field, given)

    _patch_everywhere(monkeypatch, fields, "parse_field", counting_parse_field)
    _patch_everywhere(monkeypatch, fields, "choose_q", counting_choose_q)
    code, out, _ = run(capsys, *argv, "--field", "Q(sqrt 5)", *(["--q", q] if q else []))
    assert code == 0
    assert parsed == ["Q(sqrt 5)"]
    field = fields.RealQuadratic(5)
    assert chosen == [(field, None if q is None else 5)] + [(field, int(q or 3))] * (choices - 1)


def _two_regular_checks(capsys, monkeypatch, *argv):
    calls = []
    require = fields.require_two_regular

    def counting(spec):
        calls.append(spec)
        return require(spec)

    _patch_everywhere(monkeypatch, fields, "require_two_regular", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return len(calls)


# the field is checked once per column, not once per cell
def test_table_checks_the_field_once_per_column(capsys, monkeypatch):
    columns = len(DEGREE_THEORIES.split(","))
    assert columns == 17
    checks = _two_regular_checks(capsys, monkeypatch, "table", "--n-max", "200",
                                 "--theories", DEGREE_THEORIES, "--field", "Q(zeta 11)+")
    assert 0 < checks <= columns


def test_verify_checks_the_field_a_fixed_number_of_times(capsys, monkeypatch):
    small = _two_regular_checks(capsys, monkeypatch, "verify", "--n-max", "16", "--field", "Q(zeta 11)+")
    large = _two_regular_checks(capsys, monkeypatch, "verify", "--n-max", "350", "--field", "Q(zeta 11)+")
    assert small == large > 0


# verify builds one column per theory with a degree axis, whatever --n-max is
def test_verify_builds_each_column_once(capsys, monkeypatch):
    built = []
    column = tb.column

    def counting(tag, field, q):
        built.append(tag.name)
        return column(tag, field, q)

    _patch_everywhere(monkeypatch, tb, "column", counting)
    for n_max in ("16", "350"):
        built.clear()
        code, _, _ = run(capsys, "verify", "--n-max", n_max, "--field", "Q(zeta 11)+")
        assert code == 0
        assert len(built) == 17
        assert Counter(built) == Counter(DEGREE_THEORIES.split(","))


# table and verify pay per distinct group, not per cell

def test_table_json_formats_each_distinct_group_once(capsys, monkeypatch):
    calls = []
    original = abgroup.format_group

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(abgroup, "format_group", counting)
    monkeypatch.setattr(cli, "format_group", counting)
    code, out, _ = run(capsys, "table", "--json", "--n-max", "64", "--theories", DEGREE_THEORIES,
                       "--field", "Q(zeta 11)+")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    cells = [g for row in payload["results"] for g in row["groups"].values() if g is not None]
    assert len(cells) > 1000
    assert len(calls) == len({g["formatted"] for g in cells})


def _record_column_reads(monkeypatch):
    """Every group that a column of tables.column returns from now on."""
    read = []
    original = tb.column

    def recording(tag, field, q):
        cell = original(tag, field, q)

        def recorded(n):
            g = cell(n)
            read.append(g)
            return g
        return recorded

    monkeypatch.setattr(tb, "column", recording)
    return read


def _assert_one_object_per_value(read):
    """Each value read is one object, the interned one, and values repeat;
    returns the number of distinct values."""
    values = {(g.rank, g.torsion) for g in read}
    assert len({id(g) for g in read}) == len(values)
    assert all(g is abgroup._INTERNED[g.rank, g.torsion] for g in read)
    assert len(read) > 5 * len(values)
    return len(values)


def test_verify_builds_few_groups(capsys, monkeypatch):
    read = _record_column_reads(monkeypatch)
    code, _, _ = run(capsys, "verify", "--n-max", "350", "--field", "Q(zeta 11)+")
    assert code == 0
    # 641 reads of 24 distinct values
    assert _assert_one_object_per_value(read) <= 64


def test_table_builds_few_groups(capsys, monkeypatch):
    read = _record_column_reads(monkeypatch)
    code, _, _ = run(capsys, "table", "--json", "--n-max", "2000", "--theories", DEGREE_THEORIES,
                     "--field", "Q(zeta 2^4)+", "--q", "17")
    assert code == 0
    # one read per period class and theory: 269 reads of 27 distinct values
    assert _assert_one_object_per_value(read) <= 64


json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200)
                | st.integers(-(2**200), -(2**64)) | st.text()
                | st.sampled_from(["", "W\u2032", "\u00e9\u00fc", "\U0001f600", "\x00\n\"\\", "Z/2"]))
json_trees = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=20,
)


@given(json_trees, json_trees)
def test_dumps_matches_json_dumps(tree, shared):
    # the same object, shared, sits at depths 1, 2 and 3, three times at
    # depth 2, and renders at each depth's indent
    obj = {"tree": tree, "a": shared, "b": [shared, {"c": shared}, shared, shared], "empty": [{}, [], ()]}
    # fresh dicts with one key tuple, as a table's per-degree wrappers, and
    # the same keys in other insertion orders, which sort the same way
    rows = [{"n": n, "groups": shared} for n in range(200)]
    rows += [{"groups": tree, "n": -n} for n in range(3)]
    if isinstance(tree, dict):
        rows += [tree, dict(reversed(tree.items())), dict(sorted(tree.items()))]
    for value in (tree, obj, rows):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)
    # a non-str key met after the str keys' layout is kept still raises
    for bad in ({"n": 0, 1: shared}, {True: shared}, {"groups": shared, "n": 0, None: 0}):
        with pytest.raises(TypeError):
            _dumps(rows + [bad])
    with pytest.raises(TypeError):  # a float is not encoded
        _dumps(1.5)


@pytest.mark.parametrize("key", [1, None, True, 1.5, (1, 2)])
def test_dumps_rejects_non_str_keys(key):
    with pytest.raises(TypeError):
        _dumps({"groups": [{key: "Z"}]})


def _table_payload(n_max, theories, field, q, notes=()):
    """The payload of ``table --json``, shaped as the command builds it:
    one body per period class, and one dict per distinct group, shared by
    its cells; a cell where the theory is undefined is None."""
    spec = fields.parse_field(field)
    columns = {name: tb.column(tb.THEORIES[name], spec, q) for name in theories}
    pd = tb.period_degrees(n_max + 1)

    def group(col, p):
        try:
            return col(p)
        except DegreeOutOfRange:
            return None

    cells = {p: {name: group(col, p) for name, col in columns.items()} for p in set(pd)}
    as_json = {g: None if g is None else {**abgroup.group_to_json(g), "formatted": abgroup.format_group(g)}
               for g in {g for body in cells.values() for g in body.values()}}
    bodies = {p: {name: as_json[g] for name, g in body.items()} for p, body in cells.items()}
    return {
        "query": {"command": "table", "theories": list(theories), "n_max": n_max, "field": field},
        "field": {"label": str(spec), "r": spec.r, "a_F": spec.a, "two_regular": spec.regular},
        "q": q,
        "results": [{"n": n, "groups": bodies[p]} for n, p in enumerate(pd)],
        "notes": list(notes),
    }


def _unreachable_after(fn):
    """fn's result, and the number of objects that a garbage collection
    after fn finds unreachable."""
    gc.collect()
    flags, before = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)  # what any collection finds unreachable stays in gc.garbage
    try:
        result = fn()
        gc.collect()
        unreachable = len(gc.garbage) - before
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
    return result, unreachable


def test_dumps_leaves_no_reference_cycle():
    payload = _table_payload(300, ("K", "KQ+", "KO"), "Q", 3)
    text, unreachable = _unreachable_after(lambda: _dumps(payload))
    assert unreachable == 0
    assert text == json.dumps(payload, indent=2, sort_keys=True)


# neither list is in sorted order; the second has undefined cells, which render as null
@pytest.mark.parametrize("theories, notes", [
    (("K", "KQ+", "KO"), ["q = 3 (congruence-admissible)"]),
    (("U+", "Kbar", "KO", "K"), ["q = 3 (congruence-admissible)", cli._KBAR_NOTE]),
], ids=["no-null", "null-cells"])
def test_table_json_leaves_no_reference_cycle(theories, notes):
    argv = ["table", "--json", "--n-max", "300", "--theories", ",".join(theories), "--field", "Q", "--q", "3"]
    out = io.StringIO()

    def table():
        with redirect_stdout(out):
            return main(argv)

    code, unreachable = _unreachable_after(table)
    assert (code, unreachable) == (0, 0)
    payload = _table_payload(300, theories, "Q", 3, notes)
    assert any(None in row["groups"].values() for row in payload["results"]) == ("Kbar" in theories)
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_a_failed_self_check_is_an_internal_error(capsys, monkeypatch):
    def broken(D):
        raise RuntimeError(f"cycle through (1, 1, -1) ran into another cycle (D={D})")

    monkeypatch.setattr(nt, "_form_cycles", broken)
    code, out, err = run(capsys, "regular", "--oracle", "--field", "Q(sqrt 5)")
    assert code == cli.EXIT_VERIFY == 3
    assert out == ""
    assert err == "internal error: cycle through (1, 1, -1) ran into another cycle (D=5)\n"


def test_an_internal_value_error_is_an_internal_error(capsys, monkeypatch):
    def broken(q, m):
        raise ValueError(f"no 2-part for q = {q}, m = {m}")

    monkeypatch.setattr(tb, "val2_q_power", broken)
    code, out, err = run(capsys, "group", "--theory", "KQFq+", "--n", "3")
    assert (code, out) == (cli.EXIT_VERIFY, "")
    assert err == "internal error: no 2-part for q = 3, m = 2\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_closed_output_pipe_ends_quietly(json_flag):
    # the console script on a pipe whose reader is gone, as after `| head -n 1`;
    # table writes as it goes, so a JSON table breaks off mid-document
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from kq2.cli import entrypoint; sys.exit(entrypoint())",
             "table", *json_flag, "--n-max", str(N_MAX_BOUND), "--theories", "K,KO", "--field", "Q"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_OK


# table writes each degree as it goes, but only once every cell exists

@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_table_writes_nothing_before_every_cell_exists(capsys, monkeypatch, json_flag):
    last = list(dict.fromkeys(tb.period_degrees(301)))[-1]  # the class whose cells are read last
    original = tb.column

    def failing_last(tag, field, q):
        cell = original(tag, field, q)
        if tag.name != "KO":
            return cell

        def read(n):
            if n == last:
                raise ValueError(f"no {tag.name} cell in degree {n}")
            return cell(n)
        return read

    monkeypatch.setattr(tb, "column", failing_last)
    code, out, err = run(capsys, "table", *json_flag, "--n-max", "300", "--theories", "K,KQ+,KO", "--field", "Q")
    assert (code, out) == (cli.EXIT_VERIFY, "")
    assert err == f"internal error: no KO cell in degree {last}\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_table_stdout_is_the_same_unbuffered(capsys, json_flag):
    argv = ["table", *json_flag, "--n-max", "300", "--theories", DEGREE_THEORIES,
            "--field", "Q(zeta 2^4)+", "--q", "17"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # the first run is buffered whatever the caller's environment says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for flags in ((), ("-u",)):
        proc = subprocess.run([sys.executable, *flags, "-m", "kq2.cli", *argv], capture_output=True, timeout=60,
                              env={**env, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.encode()


# The corner of each size bound, in a child process with stdout to
# /dev/null, stays below this peak resident set size (VmHWM).  The
# interpreter alone takes about 10 MB, each corner about 16 MB; a table
# built whole before it is written took 1,282 MB (text) or 793 MB (--json).
CORNER_LIMIT_KB = 64 * 1024
_CORNER_FIELD = f"Q(zeta 2^{fields.R_BOUND.bit_length() + 1})+"  # r = R_BOUND
_CORNER_CHILD = """import sys
from kq2.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("argv", [
    ("table", "--n-max", str(N_MAX_BOUND), "--theories", DEGREE_THEORIES, "--field", _CORNER_FIELD),
    ("table", "--json", "--n-max", str(N_MAX_BOUND), "--theories", DEGREE_THEORIES, "--field", _CORNER_FIELD),
    ("verify", "--n-max", str(N_MAX_BOUND), "--field", _CORNER_FIELD),
    ("group", "--theory", "K", "--n", str(cli.N_BOUND), "--field", _CORNER_FIELD),
], ids=["table", "table-json", "verify", "group"])
def test_the_corner_of_each_bound_runs_in_bounded_memory(argv):
    assert fields.parse_field(_CORNER_FIELD).r == fields.R_BOUND
    proc = subprocess.run([sys.executable, "-c", _CORNER_CHILD, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    label, kb, unit = proc.stderr.split()
    assert (label, unit) == ("VmHWM:", "kB")
    assert int(kb) < CORNER_LIMIT_KB
