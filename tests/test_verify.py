import contextlib
import hashlib
import json
import pickle

import pytest

from kq2 import tables as tb
from kq2 import verify as vf
from kq2.errors import InadmissibleQ, NotTwoRegular
from kq2.fields import (
    Generic,
    MaxRealCyclo2,
    MaxRealCycloOdd,
    Rationals,
    RealQuadratic,
    find_q_for_a,
    parse_field,
)

REGRESSION_SPECS = (
    [Rationals()]
    + [RealQuadratic(d) for d in (2, 3, 5, 6, 10, 11, 13)]
    + [MaxRealCyclo2(b) for b in (2, 3, 4)]
    + [MaxRealCycloOdd(m) for m in (5, 11)]
)
Q = Rationals()  # the building-block columns do not read the field


def cell(name, n, field, q=None):
    """One group of a theory on a field, read through its column."""
    return tb.column(tb.THEORIES[name], field, q)(n)


@pytest.mark.parametrize("spec", REGRESSION_SPECS, ids=str)
def test_run_all_passes(spec):
    reports = vf.run_all(spec, None, 64)
    failures = [r for r in reports if not r.passed]
    assert not failures, failures


def test_run_all_rejects_irregular_field():
    with pytest.raises(NotTwoRegular):
        vf.run_all(RealQuadratic(34), None, 16)
    # 14 = 2 * 7 with 7 = -1 (mod 8): not 2-regular either
    with pytest.raises(NotTwoRegular):
        vf.run_all(RealQuadratic(14), None, 16)


def test_run_all_rejects_inadmissible_q():
    with pytest.raises(InadmissibleQ):
        vf.run_all(Rationals(), 7, 16)


def test_check_t_w():
    # the least admissible prime of each a, and two larger admissible ones
    pairs = [(a, find_q_for_a(a)) for a in range(2, 6)] + [(2, 5), (3, 23)]
    for a, q in pairs:
        rep = vf.check_t_w(a, q, 200)
        assert rep.passed, (a, q)
        assert rep.details == "all n = 3 (mod 4), n <= 200 (50 cases)"


def test_t_w_report_checks_the_chosen_q(monkeypatch):
    seen = set()
    t = tb.t

    def recording(n, q):
        seen.add(q)
        return t(n, q)

    monkeypatch.setattr(tb, "t", recording)
    reports = {rep.name: rep for rep in vf.run_all(Q, 5, 16)}
    assert reports["valuation identity t(n, q) = w((n+1)/2, a)"].passed
    assert seen == {5}


def test_low_degree_report_reads_no_table():
    name = "low-degree computations agree with the table"
    assert {rep.name: rep for rep in vf.run_all(Q, None, 16)}[name].passed
    with tb.fault_injection("kq_rf+", 0):
        report = {rep.name: rep for rep in vf.run_all(Q, None, 16)}[name]
    assert not report.passed
    assert report.counterexample == {"n": 0, "eps": 1, "expected": "Z^2 + Z/2", "actual": "Z^2 + Z/2 + Z/2"}


def test_check_splittings_example_values():
    # spot values confirming what the identity checks compare
    from kq2.abgroup import C2, direct_sum, n_copies

    spec = Generic(r=3, a=2, regular_claim=True)
    lhs = cell("KQ-", 12, spec)
    rhs = direct_sum(cell("KQbar-", 12, Q, 3), n_copies(2, cell("KO", 18, Q)))
    assert lhs == rhs == C2(3)

    spec2 = Generic(r=2, a=2, regular_claim=True)
    assert cell("V+", 1, spec2) == C2(4)
    assert direct_sum(cell("Vbar+", 1, Q), n_copies(2, cell("KO", 1, Q))) == C2(4)


@pytest.mark.parametrize("spec", [Rationals(), RealQuadratic(6), MaxRealCyclo2(4)], ids=str)
def test_run_all_agrees_on_spec_and_record(spec):
    # unpickling builds no spec anew: the copy reads what the spec resolved
    assert vf.run_all(pickle.loads(pickle.dumps(spec)), None, 32) == vf.run_all(spec, None, 32)


def test_failing_report_needs_counterexample():
    with pytest.raises(ValueError):
        vf.CheckReport("x", False, "no counterexample")


def test_report_json_shape():
    reports = vf.run_all(Rationals(), 3, 16)
    payload = vf.reports_to_json(reports)
    for item in payload:
        assert set(item) <= {"name", "passed", "details", "counterexample"}
        assert isinstance(item["passed"], bool)


@pytest.mark.parametrize("site", [("kq_rf+", 3), ("v_bar-", 0), ("k_rf", 7)])
def test_fault_injection_spot_checks(site):
    spec, q = RealQuadratic(6), 3
    assert all(rep.passed for rep in vf.run_all(spec, q, 64))
    with tb.fault_injection(*site):
        assert not all(rep.passed for rep in vf.run_all(spec, q, 64))


# each table over the 2-integers and its stored barred building block;
# KQbar+ is kq_rf+ on r = 1, and V+ and Vbar+ are copies of KO
PAIRED_TABLES = {"k_rf": "k_bar", "kq_rf-": "kq_bar-", "v_rf-": "v_bar-"}
# the paired faults the suite does not catch yet, each the same Z/2 on both
# sides of a splitting
PAIRED_ESCAPES = {("kq_rf-", 2), ("kq_rf-", 6), ("kq_rf-", 7)} | {
    (table, row) for table in ("v_rf-", "k_rf") for row in range(8)}
# the single faults the suite does not catch yet: the ku rows on Q, where
# r = 1, so the splittings read no KU
SINGLE_ESCAPES = {"Q": {("ku", row) for row in range(8)},
                  "Q(sqrt 2)": set(), "Q(sqrt 6)": set(), "Q(zeta 2^4)+": set()}


def run_faulty(spec, n_max, *sites):
    """run_all on the default q with the given faults injected."""
    with contextlib.ExitStack() as stack:
        for site in sites:
            stack.enter_context(tb.fault_injection(*site))
        return vf.run_all(spec, None, n_max)


@pytest.mark.parametrize("text", ["Q", "Q(sqrt 2)", "Q(sqrt 6)", "Q(zeta 2^4)+"])
def test_paired_faults_escape_only_where_documented(text):
    # at n_max 64 many degrees share a period class (see the reference test)
    spec = parse_field(text)

    def caught(*sites):
        return not all(rep.passed for rep in run_faulty(spec, 64, *sites))

    assert not caught()
    assert {site for site in tb.fault_sites() if not caught(site)} == SINGLE_ESCAPES[text]
    escapes = {(table, row) for table, bar in PAIRED_TABLES.items() for row in range(8)
               if not caught((table, row), (bar, row))}
    assert escapes == PAIRED_ESCAPES


def per_degree_reference(monkeypatch, spec, n_max, *sites):
    """run_all with period_degree the identity: every column memoizes each
    degree, and every point a report walks is its own key."""
    with monkeypatch.context() as patch:
        patch.setattr(tb, "period_degree", lambda n: n)
        return run_faulty(spec, n_max, *sites)


@pytest.mark.parametrize("text", ["Q", "Q(sqrt 2)", "Q(sqrt 6)", "Q(zeta 2^4)+"])
def test_reports_match_a_per_degree_reference_under_every_fault(text, monkeypatch):
    # at n_max 64 the reports read degrees up to 72; from 8 on, degrees
    # 0 mod 8 have the period degree 8 and degrees 1..6 mod 8 have n mod 8,
    # and of the degrees 7 mod 8, 23, 39, 55 and 71 have 7 and 47 has 15
    spec = parse_field(text)
    faults = [()] + [(site,) for site in tb.fault_sites()] + [
        ((table, row), (bar, row)) for table, bar in PAIRED_TABLES.items() for row in range(8)]
    escapes = set()
    for sites in faults:
        got = run_faulty(spec, 64, *sites)
        assert got == per_degree_reference(monkeypatch, spec, 64, *sites), sites
        if len(sites) == 2 and all(rep.passed for rep in got):
            escapes.add(sites[0])
    assert escapes == PAIRED_ESCAPES


# the reports of 6 fields x 3 n_max x 97 fault sets, pinned as one digest
FAULT_DIGEST_TEXTS = ("Q", "Q(sqrt 2)", "Q(sqrt 6)", "Q(zeta 2^4)+", "Q(zeta 11)+", "generic r=3 a=4 regular")
FAULT_DIGEST = "236550e71bfd450cc7f0976e9a3fb7d80b88b7cff16572291ec2cfe0d7eb7a5a"


def test_reports_under_every_fault_match_a_pinned_digest():
    # no fault, each single fault in fault_sites() order, then each paired
    # fault by row; each run hashed with its field text, n_max and sites
    faults = [()] + [(site,) for site in tb.fault_sites()] + [
        ((table, row), (bar, row)) for table, bar in PAIRED_TABLES.items() for row in range(8)]
    digest = hashlib.sha256()
    for text in FAULT_DIGEST_TEXTS:
        spec = parse_field(text)
        for n_max in (8, 64, 350):
            for sites in faults:
                reports = vf.reports_to_json(run_faulty(spec, n_max, *sites))
                digest.update(json.dumps([text, n_max, sites, reports], sort_keys=True).encode())
    assert len(faults) == 97
    assert digest.hexdigest() == FAULT_DIGEST


@pytest.mark.parametrize("sites", [(), (("k_rf", 7),), (("v_rf-", 3),)], ids=str)
@pytest.mark.parametrize("text", ["Q", "Q(zeta 2^5)+"])
def test_reports_match_a_per_degree_reference_up_to_e_5(text, sites, monkeypatch):
    # at n_max 350, e = nu2(n // 8 + 1) reaches 5 at n = 248..255; k_rf row 7
    # holds w(4k + 4), whose order depends on e, and v_rf- row 3 does not
    spec = parse_field(text)
    got = run_faulty(spec, 350, *sites)
    assert got == per_degree_reference(monkeypatch, spec, 350, *sites)
    assert all(rep.passed for rep in got) == (not sites)


@pytest.mark.parametrize("name", ["KO", "V+", "V-"])
def test_reports_match_a_per_degree_reference_when_one_period_class_is_off(name, monkeypatch):
    # one theory gains a Z/2 on the period class of degree 255 (e = 5) only;
    # the splittings read KO at n - 1 and n + 6 and the V-theory reports
    # read V at n - 1 and n + 8, where a point's own period degree is often
    # not new (pd(256) = 8), so every key must name each cell its point reads
    from kq2.abgroup import C2, direct_sum
    column, period_degree = tb.column, tb.period_degree

    def off_by_one_class(tag, field, q):
        col = column(tag, field, q)
        if tag.name != name:
            return col
        return lambda n: direct_sum(col(n), C2(1)) if period_degree(n) == 255 else col(n)

    monkeypatch.setattr(tb, "column", off_by_one_class)
    spec = parse_field("Q(zeta 2^5)+")  # r = 8, so the splittings read KO
    got = run_faulty(spec, 350)
    assert got == per_degree_reference(monkeypatch, spec, 350)
    assert not all(rep.passed for rep in got)


@pytest.mark.parametrize("eps", [1, -1])
def test_v_periodicity_compares_each_degree_with_the_degree_eight_up(eps, monkeypatch):
    # V of one sign gains a Z/2 on the period class of degree 255 only; the
    # periodicity report first reads that class at n = 247, eight below, and
    # a report that compared V(n) with itself would pass
    from kq2.abgroup import C2, direct_sum
    column, period_degree, name = tb.column, tb.period_degree, "V" + vf._SIGN[eps]

    def off_by_one_class(tag, field, q):
        col = column(tag, field, q)
        if tag.name != name:
            return col
        return lambda n: direct_sum(col(n), C2(1)) if period_degree(n) == 255 else col(n)

    monkeypatch.setattr(tb, "column", off_by_one_class)
    reports = {rep.name: rep for rep in vf.run_all(parse_field("Q"), None, 350)}
    found = reports["V-theory 8-periodicity"].counterexample
    assert (found["n"], found["eps"]) == (247, eps)
    assert found["expected"] != found["actual"]


def run_reading(monkeypatch, text, n_max, off=None):
    """run_all on the field of text at n_max, with each column read logged
    as (theory, degree); with off = (theory, p), that theory gains a Z/2 on
    the period class of degree p."""
    from kq2.abgroup import C2, direct_sum
    reads, column, period_degree = [], tb.column, tb.period_degree

    def reading(tag, field, q):
        col = column(tag, field, q)

        def read(n):
            reads.append((tag.name, n))
            return direct_sum(col(n), C2(1)) if (tag.name, period_degree(n)) == off else col(n)
        return read

    monkeypatch.setattr(tb, "column", reading)
    return {rep.name: rep for rep in vf.run_all(parse_field(text), None, n_max)}, reads


def identity_walks(n_max, broken=None):
    """Per row of _IDENTITIES, by brute force: its name, its points (n, eps)
    for first <= n <= n_max, eps None for a row with no sign axis, the cells
    (theory, period degree) of the first point of each distinct key
    (pd(n), pd(n + s), eps), sorted, in point order, and the first point
    that reads the cell broken (None if none does); no key past it is read."""
    pd, rows = tb.period_degrees(n_max + 9), []
    for name, first, theories, _, shift, _ in vf._IDENTITIES:
        points = [(n, eps) for n in range(first, n_max + 1) for eps in theories]
        keys, failing = {}, None
        for n, eps in points:
            lhs, block, top = theories[eps]
            cells = [(lhs, pd[n]), (top, pd[n + shift])] + ([] if block is None else [(block, pd[n])])
            keys.setdefault((pd[n], pd[n + shift], eps), sorted(cells))
            if broken in cells:
                failing = n, eps
                break
        rows.append((name, points, list(keys.values()), failing))
    return rows


def assert_reads_follow_the_keys(reads, rows):
    """The first column reads of run_all are, row by row, the cells of each
    key of identity_walks, each key's cells read together."""
    at = 0
    for name, _, keys, _ in rows:
        for cells in keys:
            assert sorted(reads[at:at + len(cells)]) == cells, name
            at += len(cells)


def test_each_equality_report_evaluates_each_distinct_key_once(monkeypatch):
    n_max = 350
    reports, reads = run_reading(monkeypatch, "Q(zeta 2^5)+", n_max)
    rows = identity_walks(n_max)
    assert_reads_follow_the_keys(reads, rows)
    for name, points, keys, _ in rows:
        assert reports[name].passed
        assert reports[name].details.endswith(f" ({len(points)} cases)")
        # the degrees n <= 350 share cells
        assert 3 * sum(map(len, keys)) < len(points), name


def test_an_equality_report_counts_its_points_and_names_its_first_failing_point(monkeypatch):
    # KO gains a Z/2 on the period class of degree 255 only: each report
    # that reads KO (r = 8, so the splittings do) fails at its first point
    # that reads the class and reads no key after it
    n_max = 350
    reports, reads = run_reading(monkeypatch, "Q(zeta 2^5)+", n_max, ("KO", 255))
    rows = identity_walks(n_max, ("KO", 255))
    assert_reads_follow_the_keys(reads, rows)
    for name, points, _, failing in rows:
        rep = reports[name]
        if failing is None:
            assert rep.passed and rep.details.endswith(f" ({len(points)} cases)"), name
            continue
        *at, expected, actual = rep.counterexample.items()
        assert (rep.counterexample["n"], rep.counterexample.get("eps")) == failing
        assert rep.details == f"first failure at {dict(at)}"
        assert expected[0] == "expected" and actual[0] == "actual" and expected[1] != actual[1]
    assert {name for name, *_, failing in rows if failing} == set(KO_4095_FIRST_FAILURES)


def test_identity_rows_are_data():
    # a script can read each row's theories, shift and copies (a, b), for
    # a*r + b copies, without calling code
    def leaves(x):
        if isinstance(x, dict):
            x = (*x, *x.values())
        return [leaf for y in x for leaf in leaves(y)] if isinstance(x, tuple) else [x]

    for row in vf._IDENTITIES:
        assert not any(callable(leaf) for leaf in leaves(row)), row[0]
        name, first, theories, (a, b), shift, fields = row
        assert all(type(v) is int for v in (first, a, b, shift)), name
        assert {t for cells in theories.values() for t in cells} - {None} <= set(tb.THEORIES), name


def _first_occurrences(first, shift, stop):
    """[(key, n)] of the first occurrence of each key (period_degree(n),
    period_degree(n + shift)), first <= n < stop, by brute force."""
    pd = tb.period_degrees(stop + 8)
    found = {}
    for n, key in enumerate(zip(pd[first:stop], pd[first + shift:]), first):
        found.setdefault(key, n)
    return list(found.items())


def test_the_key_walk_finds_every_first_occurrence():
    # each (first, shift) of the rows, every n_max in 8..4100 (e reaches 9
    # at 4095), and the --n-max bound
    for first, shift in {(first, shift) for _, first, _, _, shift, _ in vf._IDENTITIES}:
        found = _first_occurrences(first, shift, 4101)
        for n_max in range(8, 4101):
            expected = [(key, n) for key, n in found if n <= n_max]
            assert list(vf._first_degrees(first, shift, n_max).items()) == expected, (first, shift, n_max)
        assert list(vf._first_degrees(first, shift, 10000).items()) == _first_occurrences(first, shift, 10001)


# the first degree at which each report over the degrees that reads KO
# reads the period class of degree 4095 (e = 9): at n, n + 6 or n - 1
KO_4095_FIRST_FAILURES = {
    "splitting KQ+ = KQbar+ + (r-1) KO": 4095,
    "splitting KQ- = KQbar- + (r-1) KO[6]": 4089,
    "splitting V+ = Vbar+ + 2(r-1) KO": 4095,
    "splitting K = Kbar + (r-1) KO[-1] (fixes the degree 7 mod 8 order as w(4k+4))": 4096,
    "V+ is 2r copies of KO": 4095,
    "orthogonal finite-field groups complement KO in the building block": 4095,
}


def test_a_period_class_first_read_late_fails_at_its_least_degree(monkeypatch):
    # KO gains a Z/2 on the period class of degree 4095 only, far past the
    # first periods; each report that reads KO names its least degree that
    # reads the class, and every other report passes
    from kq2.abgroup import C2, direct_sum
    column, period_degree = tb.column, tb.period_degree

    def off_by_one_class(tag, field, q):
        col = column(tag, field, q)
        if tag.name != "KO":
            return col
        return lambda n: direct_sum(col(n), C2(1)) if period_degree(n) == 4095 else col(n)

    monkeypatch.setattr(tb, "column", off_by_one_class)
    reports = vf.run_all(parse_field("Q(zeta 2^5)+"), None, 10000)  # r = 8
    failed = {rep.name: rep.counterexample["n"] for rep in reports if not rep.passed}
    assert failed == KO_4095_FIRST_FAILURES


def test_failing_ses_reports_name_their_own_groups(monkeypatch):
    monkeypatch.setattr(vf, "ses_consistent", lambda a, b, c: False)
    failed = [rep for rep in vf.run_all(RealQuadratic(6), 3, 16) if not rep.passed]
    assert len(failed) == 3
    for rep in failed:
        groups = rep.counterexample
        assert rep.details == f"0 -> {groups['a']} -> {groups['b']} -> {groups['c']} -> 0"


def test_failing_vertical_windows_name_their_degree(monkeypatch):
    monkeypatch.setattr(vf, "exact_window_check", lambda groups: False)
    failed = {rep.name: rep for rep in vf.run_all(Q, None, 16) if not rep.passed}
    assert sorted(failed) == ["vertical sequence telescoping through degree 11",
                              "vertical sequence telescoping through degree 3"]
    for n3 in (3, 11):
        rep = failed[f"vertical sequence telescoping through degree {n3}"]
        assert rep.details == "alternating product of orders equals 1"
        # on Q the windows through degrees 3 and 11 hold the same groups
        assert rep.counterexample == {"n": n3, "groups": [
            "0", "Z/2", "Z/2 + Z/2", "Z/2", "Z/2", "Z/2", "Z/2", "Z/16", "Z/8", "0"]}


def test_failing_mayer_vietoris_reports_name_their_window(monkeypatch):
    # each sign checks the windows 1..8 and 9..16 in turn; the fake sum
    # passes the first window and fails the second
    calls = []

    def second_window_fails(groups):
        calls.append(groups)
        return len(calls) % 2 == 0

    monkeypatch.setattr(vf, "alternating_rank_sum", second_window_fails)
    failed = {rep.name: rep for rep in vf.run_all(Q, None, 16) if not rep.passed}
    assert sorted(failed) == ["Mayer-Vietoris rank Euler characteristic (eps = +1)",
                              "Mayer-Vietoris rank Euler characteristic (eps = -1)"]
    plus = failed["Mayer-Vietoris rank Euler characteristic (eps = +1)"]
    assert plus.details == "full periods, degrees 1..8 and 9..16"
    assert plus.counterexample == {"eps": 1, "degrees": "9..16", "groups": [
        "Z/2", "Z + Z/2", "Z^2 + Z/2", "Z", "Z/32", "Z/32", "0", "0", "0", "0", "0", "0",
        "0", "Z", "Z^2", "Z", "Z/8", "Z/8", "0", "Z/2 + Z/2", "Z/2 + Z/2 + Z/2", "Z/2",
        "Z/2 + Z/2 + Z/2", "Z/2 + Z/2 + Z/2 + Z/2"]}
    minus = failed["Mayer-Vietoris rank Euler characteristic (eps = -1)"]
    assert minus.counterexample == {"eps": -1, "degrees": "9..16", "groups": [
        "0", "0", "Z", "Z", "Z/32", "Z/32", "0", "Z", "Z + Z/2", "Z/2", "Z/2", "Z/2 + Z/2",
        "Z/2", "Z/2", "Z + Z/2", "Z", "Z/16", "Z/8", "0", "Z", "Z", "0", "0", "0"]}
    assert len(calls) == 4


def test_failing_t_w_report_names_the_first_failing_degree(monkeypatch):
    t = tb.t
    monkeypatch.setattr(tb, "t", lambda n, q: 2 * t(n, q) if n in (11, 15) else t(n, q))
    rep = vf.check_t_w(2, 3, 200)
    assert not rep.passed
    assert rep.details == "fails at a=2, q=3, n=11"
    assert rep.counterexample == {"a": 2, "q": 3, "n": 11, "t": 16, "w": 8}


def test_run_all_rejects_n_max_below_one_period():
    with pytest.raises(ValueError, match=r"^n_max must be >= 8, got 7$"):
        vf.run_all(Q, None, 7)
    assert all(rep.passed for rep in vf.run_all(Q, None, 8))
