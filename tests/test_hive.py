"""Triangular tableaux, rhombus inequalities, cone membership by the exact
facet table (behind its float filter) and witness hives by back-substitution,
against the oracle LP and Horn's list."""

import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hornlab import (
    BOTTOM,
    GZ,
    HIVE,
    TROPICAL_GZ,
    HornTriple,
    Tableau,
    boundary,
    format_number,
    gz_check,
    gz_margin,
    hive_check,
    kt_member,
    kt_witness,
    parse_number,
    tableau_from_json,
    tableau_to_json,
    triple_csv_header,
    triple_from_csv,
    triple_to_csv,
)
from hornlab import hive
from hornlab.hive import (MAX_N, _facets, _family_slacks, _fourier_motzkin,
                          _hive_inequalities, _pinned_slots, _triple_facets)
from hornlab.linalg import haar_unitaries
import oracles
from oracles import (FractionTriple, facet_verdict, free_slots,
                     horn_list_verdict, integer_pins, lp_verdict,
                     minimal_support_rows, pin_values, rank, scale_triple)

F = Fraction


def _t(rows, role=HIVE):
    return Tableau(n=len(rows) - 1, rows=tuple(tuple(F(v) for v in r) for r in rows),
                   role=role)


# -- tableau shape -----------------------------------------------------------

def test_tableau_shape_validation():
    with pytest.raises(ValueError, match="rows"):
        Tableau(n=2, rows=((F(0),), (F(0), F(1))), role=HIVE)
    with pytest.raises(ValueError, match="entries"):
        Tableau(n=1, rows=((F(0),), (F(0),)), role=HIVE)
    with pytest.raises(ValueError, match="role"):
        Tableau(n=1, rows=((F(0),), (F(0), F(1))), role="triangle")


def test_gz_roles_pin_left_edge():
    with pytest.raises(ValueError, match="left edge"):
        _t([[1], [1, 2]], role=GZ)
    # hives may carry any left edge
    assert _t([[1], [1, 2]], role=HIVE).value(1, 0) == 1


def test_top_row_accessor():
    t = _t([[0], [0, 1], [0, 3, 2]], role=TROPICAL_GZ)
    assert t.top() == (F(3), F(2))
    assert t.value(2, 1) == F(3)


# -- inequality families -----------------------------------------------------

def test_hive_check_hand_examples():
    # slacks by hand for rows ((0),(1,1),(0,2,2)), k=1, i=1:
    #   A: 2 + 1 - 0 - 1 = 2,  B: 2 + 1 - 2 - 1 = 0,  C: 1 + 1 - 2 - 0 = 0
    assert hive_check(_t([[0], [1, 1], [0, 2, 2]]))
    # bumping the middle of the bottom row to 3 drives C to -1
    assert not hive_check(_t([[0], [1, 1], [0, 3, 2]]))


def test_hive_check_rejects_bottom():
    t = Tableau(n=1, rows=((F(0),), (F(0), BOTTOM)), role=TROPICAL_GZ)
    with pytest.raises(ValueError, match="finite"):
        hive_check(t)


def test_gz_check_weak_and_strict():
    t = _t([[0], [0, 1], [0, 3, 2]], role=TROPICAL_GZ)
    # A and B slacks are both 2 (left edge contributes zeros)
    assert gz_margin(t) == F(2)
    assert gz_check(t)
    assert gz_check(t, delta=F(19, 10))
    assert not gz_check(t, delta=F(2))  # strict: slack must exceed delta
    bad = _t([[0], [0, 4], [0, 3, 2]], role=TROPICAL_GZ)
    assert not gz_check(bad)


def test_gz_check_refuses_hive_role():
    with pytest.raises(ValueError, match="gz"):
        gz_check(_t([[1], [1, 2]], role=HIVE))


def test_gz_margin_none_for_size_one():
    assert gz_margin(_t([[0], [0, 5]], role=GZ)) is None


# -- horn triples ------------------------------------------------------------

def test_horn_triple_rationalizes_and_validates():
    t = HornTriple((1.5, 0), (1, 0), (2.5, 0))
    assert t.a == (F(3, 2), F(0))
    assert t.n == 2
    with pytest.raises(ValueError):
        HornTriple((1, 0), (1, 0), (2, 0, 0))  # mismatched lengths


# Entries of every kind HornTriple takes: floats at ordinary, 2^-60 and
# 10^300 scales, ints, bools and Fractions.
ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 62, 2 ** 62).map(lambda k: k * 2.0 ** -60),
    st.floats(-1.8, 1.8).map(lambda x: x * 1e300),
    st.integers(-10 ** 30, 10 ** 30),
    st.booleans(),
    st.fractions(-10 ** 20, 10 ** 20, max_denominator=10 ** 12),
)


def _twin(v):
    """The same value as another kind of entry, where one holds it."""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float):
        return int(v) if v.is_integer() else F(v)
    if isinstance(v, int):
        return float(v) if abs(v) <= 2 ** 53 else F(v)
    return float(v) if F(float(v)) == v else v


@st.composite
def raw_triples(draw):
    """Three equal-length vectors of mixed entries, as plain lists."""
    n = draw(st.integers(1, 5))
    return [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(raw_triples(), st.data())
def test_horn_triple_matches_the_fraction_representation(raw, data):
    t, old = HornTriple(*raw), FractionTriple(*raw)
    assert (t.a, t.b, t.c) == (old.a, old.b, old.c)
    assert all(type(x) is F for v in (t.a, t.b, t.c) for x in v)
    assert repr(t) == repr(old).replace("FractionTriple", "HornTriple")
    assert triple_to_csv(t) == triple_to_csv(old)
    assert HornTriple(**dict(zip("abc", raw))) == t
    # the integers are the canonical form of those Fractions
    assert gcd(t.den, *t.ints) == 1
    assert [F(p, t.den) for p in t.ints] == list(old.a + old.b + old.c)
    # equality and hashing agree with the Fraction tuples, also between
    # kinds of entry: another triple of the same values, or a moved one
    other = [[data.draw(st.sampled_from((v, _twin(v)))) for v in vec]
             for vec in raw]
    if data.draw(st.booleans()):
        vec = other[data.draw(st.integers(0, 2))]
        vec[data.draw(st.integers(0, len(vec) - 1))] = data.draw(ENTRIES)
    u, old_u = HornTriple(*other), FractionTriple(*other)
    assert (u == t) is (old_u == old)
    if u == t:
        assert hash(u) == hash(t)
    assert HornTriple(old.a, old.b, old.c) == t
    assert hash(HornTriple(old.a, old.b, old.c)) == hash(t)


@settings(max_examples=200, deadline=None)
@given(raw_triples(), st.integers(0, 14), st.sampled_from([
    (float("nan"), ValueError), (float("inf"), OverflowError),
    (float("-inf"), OverflowError), ("1", TypeError), (None, TypeError),
    (Decimal("0.5"), TypeError), (np.float32(0.5), TypeError),
    (BOTTOM, ValueError)]))
def test_horn_triple_refuses_what_the_fraction_representation_refused(
        raw, where, bad_error):
    bad, error = bad_error
    vec = raw[where % 3]
    vec[where // 3 % len(vec)] = bad
    with pytest.raises(error):
        HornTriple(*raw)
    if bad is BOTTOM:
        # the Fraction form let BOTTOM through, and only kt_member refused it
        FractionTriple(*raw)
    else:
        with pytest.raises(error):
            FractionTriple(*raw)


@pytest.mark.parametrize("raw", [
    ((), (), ()), ((1, 0), (1, 0), (2, 0, 0)), ((1,), (1, 0), (2, 0)),
])
def test_horn_triple_refuses_empty_or_unequal_vectors(raw):
    for route in (HornTriple, FractionTriple):
        with pytest.raises(ValueError, match="nonempty and of equal length"):
            route(*raw)


def test_horn_triple_is_immutable():
    t = HornTriple((1, 0), (1, 0), (2, 0))
    for name in ("a", "n", "ints", "den", "d"):
        with pytest.raises(AttributeError):
            setattr(t, name, (F(3), F(0)))
    assert t == HornTriple((1, 0), (1, 0), (2, 0))


def test_boundary_reads_the_three_edges():
    # right edge top down, left-to-right-edge differences, left edge bottom up
    t = _t([[0], [1, 1], [0, 2, 2]])
    b = boundary(t)
    assert b.a == (F(2), F(2))
    assert b.b == (F(1) - F(2), F(0) - F(2))
    assert b.c == (F(1), F(0))


def test_scale_triple():
    t = HornTriple((1, 0), (1, 0), (2, 0))
    s = scale_triple(t, F(3))
    assert s.a == (F(3), F(0)) and s.c == (F(6), F(0))


# -- cone membership ---------------------------------------------------------

def test_kt_member_diagonal_sum():
    # diag(1,-1) + diag(1,-1) realizes spectrum (2,-2): partial sums (2,0)
    assert kt_member(HornTriple((1, 0), (1, 0), (2, 0)))


def test_kt_member_violates_top_inequality():
    # largest eigenvalue of a sum cannot exceed 1 + 1 = 2
    assert not kt_member(HornTriple((1, 0), (1, 0), (F(5, 2), 0)))


def test_kt_member_trace_hyperplane():
    # total mass is additive, so c_n != a_n + b_n is an immediate no
    assert not kt_member(HornTriple((1, 0), (1, 0), (2, F(1, 2))))
    assert kt_member(HornTriple((1, 0), (1, 0), (2, F(1, 2))), slack=F(1, 2))


def test_kt_member_size_one_is_pure_addition():
    assert kt_member(HornTriple((5,), (7,), (12,)))
    assert not kt_member(HornTriple((5,), (7,), (11,)))
    assert kt_member(HornTriple((5,), (7,), (11,)), slack=2)


def test_kt_member_positive_slack_loosens():
    t = HornTriple((1, 0), (1, 0), (F(201, 100), 0))
    assert not kt_member(t)
    assert kt_member(t, slack=F(1, 100))


def test_kt_member_negative_slack_tightens():
    # a boundary point dies, a strictly interior one survives
    assert not kt_member(HornTriple((1, 0), (1, 0), (2, 0)), slack=F(-1, 10))
    assert kt_member(HornTriple((2, 0), (1, 0), (F(5, 2), 0)), slack=F(-1, 10))


def test_kt_witness_is_a_hive_with_the_right_boundary():
    t = HornTriple((1, 0), (1, 0), (2, 0))
    w = kt_witness(t)
    assert w is not None and w.role == HIVE
    assert hive_check(w)
    assert boundary(w) == t
    assert kt_witness(HornTriple((1, 0), (1, 0), (F(5, 2), 0))) is None


def test_kt_witness_frozen_small_case():
    # for the diagonal-sum triple the witness is the unique hive
    # ((0),(2,1),(0,1,0)): every rhombus slack is 0 or 1
    w = kt_witness(HornTriple((1, 0), (1, 0), (2, 0)))
    assert w.rows == ((F(0),), (F(2), F(1)), (F(0), F(1), F(0)))


def _interior_hive_triple(n):
    """The boundary of f(k, i) = -k^2 - i^2 - (k - i)^2, a hive whose every
    rhombus has slack 2 (see hive_triples)."""
    def f(k, i):
        return -k * k - i * i - (k - i) ** 2

    t = Tableau(n, tuple(tuple(F(f(k, i) - f(n, 0)) for i in range(k + 1))
                         for k in range(n + 1)), HIVE)
    assert min(_family_slacks(t, "ABC")) == 2
    return boundary(t)


# each case also asks an independent route: the pure-integer facet table at
# n = 2, the oracle LP at n = 5
ORACLES = pytest.mark.parametrize("n, oracle", [(2, facet_verdict), (5, lp_verdict)],
                                  ids=["facet-table", "lp"])


@ORACLES
@pytest.mark.parametrize("slack", [F(0), F(1, 100), F(-1, 100)])
def test_closing_identity_holds_to_exactly_the_slack(n, oracle, slack):
    # c_n off a_n + b_n by |slack| passes the closing check, and one step
    # further fails it, in kt_member and kt_witness alike
    t = _interior_hive_triple(n)
    step = F(1, 10 ** 12)
    for miss, member in ((abs(slack), True), (-abs(slack), True),
                         (abs(slack) + step, False),
                         (-abs(slack) - step, False)):
        moved = HornTriple(t.a, t.b, t.c[:-1] + (t.c[-1] + miss,))
        w = kt_witness(moved, slack)
        assert kt_member(moved, slack) is member
        assert (w is not None) is member
        assert oracle(moved, slack) is member
        # the slot (0, 0) carries c_n; b_n is read off it, so it moves too
        assert w is None or (boundary(w).a, boundary(w).c) == (moved.a, moved.c)


@ORACLES
@pytest.mark.parametrize("slack", [F(1, 100), F(-1, 100)])
def test_witness_at_a_slack_closes_exactly(n, oracle, slack):
    # a hive closes exactly: the witness keeps a, c and b_1..b_{n-1} and
    # takes b_n = c_n - a_n, not the given b_n
    t = _interior_hive_triple(n)
    for miss in (abs(slack), -abs(slack)):
        moved = HornTriple(t.a, t.b, t.c[:-1] + (t.c[-1] + miss,))
        assert oracle(moved, slack)
        w = boundary(kt_witness(moved, slack))
        assert (w.a, w.c, w.b[:-1]) == (moved.a, moved.c, moved.b[:-1])
        assert w.b[-1] == moved.c[-1] - moved.a[-1] == moved.b[-1] + miss


def _membership_cases():
    """Exact and float members and non-members at n = 1..5."""
    cases = [HornTriple((5,), (7,), (12,)), HornTriple((5,), (7,), (11,))]
    for n in range(2, 6):
        t = _interior_hive_triple(n)
        a, b, c = _float_triple(n, n, closed=True)
        cases += [t, HornTriple(t.a, t.b, (t.c[0] + 100,) + t.c[1:]),
                  HornTriple(a, b, c), HornTriple(a, b, [c[0] + 0.25] + c[1:])]
    return cases


MEMBERSHIP_SLACKS = (F(0), F(1, 10 ** 8), F(-1, 10))


def test_membership_converts_nothing_after_construction(monkeypatch):
    # the triple holds its integers: deciding it converts no value again
    cases = _membership_cases()
    want = [kt_member(t, slack) for t in cases for slack in MEMBERSHIP_SLACKS]
    pair = [t for t in cases if t.n == 2][:2]
    hives = [kt_witness(t) for t in pair]

    def refuse(values):
        raise AssertionError("a triple was converted after construction")

    monkeypatch.setattr(hive, "over_common_denominator", refuse)
    assert [kt_member(t, slack) for t in cases for slack in MEMBERSHIP_SLACKS] == want
    assert True in want and False in want
    assert [kt_witness(t) for t in pair] == hives
    assert hives[0] is not None and hives[1] is None


def test_membership_builds_no_pins(monkeypatch):
    # kt_member reads the facet table on the triple's own integers; only
    # kt_witness lays the pins out, for its back-substitution
    cases = _membership_cases()
    want = [facet_verdict(t, slack) for t in cases for slack in MEMBERSHIP_SLACKS]

    def refuse(triple):
        raise AssertionError("kt_member built a pin list")

    monkeypatch.setattr(hive, "_integer_pins", refuse)
    assert [kt_member(t, slack) for t in cases for slack in MEMBERSHIP_SLACKS] == want
    assert True in want and False in want
    with pytest.raises(AssertionError, match="pin list"):
        kt_witness(cases[0])


def test_kt_member_scale_invariance():
    t = HornTriple((2, 0), (1, 0), (F(5, 2), 0))
    assert kt_member(t)
    assert kt_member(scale_triple(t, F(7, 3)))
    bad = HornTriple((1, 0), (1, 0), (F(5, 2), 0))
    assert not kt_member(bad)
    assert not kt_member(scale_triple(bad, F(7, 3)))


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=1, max_value=3, max_denominator=8),
       st.fractions(min_value=0, max_value=1, max_denominator=8))
def test_kt_member_interval_for_rank_one_spectra(c1, u):
    # with a = (2,0) and b = (1,0) membership is exactly c1 in [1,3]
    # and c2 = 0: eigenvalues (2,-2) and (1,-1) mix to top sums in that range
    t = HornTriple((2, 0), (1, 0), (c1, u - u))
    assert kt_member(t) == (F(1) <= c1 <= F(3))


# -- the facet table ----------------------------------------------------------

FACET_COUNTS = {1: 0, 2: 3, 3: 18, 4: 83, 5: 846}
SLACKS = (F(0), F(1, 10 ** 8), F(1, 2), F(-1, 10), F(-1, 10 ** 8), F(-1, 2))


@pytest.mark.parametrize("n", sorted(FACET_COUNTS))
def test_facet_rows_carry_exact_certificates(n):
    # each row is a nonnegative combination of hive inequalities that
    # cancels every interior slot, so it holds on every hive; no LP involved
    ineqs = _hive_inequalities(n)
    pinned = _pinned_slots(n)
    table = _facets(n)
    assert len(table) == FACET_COUNTS[n]
    for row, lam, total in table:
        assert len(row) == len(pinned) and len(lam) == len(ineqs)
        assert all(x >= 0 for x in lam)
        assert total == sum(lam) > 0
        combo = {}
        for x, ineq in zip(lam, ineqs):
            for slot, cf in ineq.items():
                combo[slot] = combo.get(slot, 0) + x * cf
        assert ({slot: v for slot, v in combo.items() if v}
                == {slot: v for slot, v in zip(pinned, row) if v})


@pytest.mark.parametrize("n", sorted(FACET_COUNTS))
def test_facet_multipliers_have_minimal_support(n):
    # the free-slot coefficients of the inequalities a row combines leave a
    # one-dimensional space of combinations that cancel every free slot, so
    # the row's multipliers are an extreme ray of the multiplier cone
    ineqs = _hive_inequalities(n)
    free = free_slots(n)
    for _, lam, _ in _facets(n):
        support = [ineqs[j] for j, x in enumerate(lam) if x]
        coeffs = [[ineq.get(slot, 0) for slot in free] for ineq in support]
        assert rank(coeffs, len(free)) == len(support) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brute_force_finds_the_facet_table(n):
    # every minimal-support multiplier vector, found without Fourier-Motzkin,
    # gives a row of the table with its total, and nothing else does
    assert minimal_support_rows(n) == {(row, total) for row, _, total in _facets(n)}


@pytest.mark.parametrize("n", sorted(FACET_COUNTS))
def test_no_facet_row_has_two_totals(n):
    # so the one total the table keeps per row serves both signs of slack
    totals = {}
    for row, lam in _fourier_motzkin(n)[0]:
        totals.setdefault(row, set()).add(sum(lam))
    assert all(len(t) == 1 for t in totals.values())
    assert len(totals) == FACET_COUNTS[n]


def _weyl_n2(t):
    """Membership at n = 2 from Weyl's list alone, in spectra: both summands
    ordered, the closing identity, c1 <= a1 + b1, c1 >= max(a1 + b2, a2 + b1)."""
    (a1, a2), (b1, b2), (c1, _) = ((v[0], v[1] - v[0]) for v in (t.a, t.b, t.c))
    return (a1 >= a2 and b1 >= b2 and t.a[1] + t.b[1] == t.c[1]
            and max(a1 + b2, a2 + b1) <= c1 <= a1 + b1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.integers(-4, 4), min_size=3 * n - 1, max_size=3 * n - 1)))
@example([4, 3, 4, -4, 5])
def test_kt_member_n2_matches_weyl(spectra):
    # Spectra of a, b and all of c but its last entry, for n = 1..3; c closes.
    # Horn's list is the independent route; at n = 2 it is Weyl's.
    # [4, 3, 4, -4, 5] is a = (4, 3), b = (4, -4), c = (5, 2): c1 < a2 + b1.
    # With the corner slot (2, 0) left free, rhombus A(1, 1) dropped out and
    # this triple passed as a member.
    n = (len(spectra) + 1) // 3
    a, b = _cumulative(spectra[:n]), _cumulative(spectra[n:2 * n])
    c = _cumulative(spectra[2 * n:]) + (a[-1] + b[-1],)
    t = HornTriple(a, b, c)
    verdict = kt_member(t)
    assert verdict == horn_list_verdict(t) == (kt_witness(t) is not None)
    if n == 2:
        assert verdict == _weyl_n2(t)


def _cumulative(spectrum):
    return tuple(accumulate(spectrum))


@st.composite
def small_triples(draw):
    """Random small-integer spectra, half of them made to close."""
    n = draw(st.integers(1, 5))
    ints = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    la, lb, lc = (sorted(draw(ints), reverse=True) for _ in range(3))
    if draw(st.booleans()):
        lc[-1] += sum(la) + sum(lb) - sum(lc)
    return HornTriple(_cumulative(la), _cumulative(lb),
                      _cumulative(sorted(lc, reverse=True)))


@st.composite
def hive_triples(draw):
    """The boundary of an integer hive with a tight rhombus.

    f(k, i) = phi(k) + psi(i) + chi(k - i) + linear is a hive whenever phi,
    psi and chi are concave: family C sees only the second differences of
    phi, B only those of psi, A only those of chi.  Rhombi away from their
    creases are tight.
    """
    n = draw(st.integers(1, 5))

    def concave():
        steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return (0,) + _cumulative(sorted(steps, reverse=True))

    phi, psi, chi = concave(), concave(), concave()
    u, v = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))

    def f(k, i):
        return phi[k] + psi[i] + chi[k - i] + u * k + v * i

    # shifted so that the corner (n, 0) is 0, as the boundary pins it
    t = Tableau(n, tuple(tuple(F(f(k, i) - f(n, 0)) for i in range(k + 1))
                         for k in range(n + 1)), HIVE)
    assert hive_check(t)
    assume(n == 1 or 0 in _family_slacks(t, "ABC"))
    return boundary(t)


@st.composite
def pushed_triples(draw):
    """A hive triple with one entry other than the totals moved a little."""
    t = draw(hive_triples())
    assume(t.n >= 2)
    which = draw(st.sampled_from("abc"))
    j = draw(st.integers(0, t.n - 2))
    delta = draw(st.sampled_from((F(1), F(1, 2), F(1, 10 ** 9),
                                  F(-1), F(-1, 10 ** 9))))
    parts = {"a": list(t.a), "b": list(t.b), "c": list(t.c)}
    parts[which][j] += delta
    return HornTriple(**parts)


def _no_lp(a, b):
    raise AssertionError("kt_member reached the LP")


def _table_verdict(t, slack):
    """kt_member's answer with the oracle LP made to fail: the table alone
    decides."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "feasible_point", _no_lp)
        return kt_member(t, slack)


BAND = HornTriple((1, 1, 0), (1, 1, 0), (2 + F(1, 10 ** 9), 2, 0))


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_triples(), hive_triples(), pushed_triples()),
       st.sampled_from(SLACKS))
# a facet broken by less than slack times its multiplier total
@example(BAND, F(1, 10 ** 8))
def test_facet_table_agrees_with_the_lp(t, slack):
    assert _table_verdict(t, slack) == lp_verdict(t, slack)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_triples(), hive_triples(), pushed_triples()),
       st.sampled_from(SLACKS))
@example(BAND, F(1, 10 ** 8))
# members whose witness hinges on single stage rows: at n = 5 and slack -1/2
# a stage row must hold with -slack times its multiplier total, not -slack;
# at slack 0 a row of the last stage (n = 5) and one of the first (n = 4)
# bind alone
@example(HornTriple((5, 7, 8, 6, 2), (5, 7, 3, -2, -9), (4, 5, 2, -2, -7)), F(-1, 2))
@example(HornTriple((6, 10, 11, 8, 5), (2, 2, -1, -5, -10), (4, 5, 3, -1, -5)), F(0))
@example(HornTriple((2, 0, -9, -18), (10, 20, 22, 20), (6, 11, 7, 2)), F(0))
def test_back_substitution_builds_a_witness_where_the_lp_does(t, slack):
    w = kt_witness(t, slack)
    assert (w is not None) == lp_verdict(t, slack)
    if w is not None:
        assert all(x >= -slack for x in _family_slacks(w, "ABC"))
        got = boundary(w)
        assert (got.a, got.c, got.b[:-1]) == (t.a, t.c, t.b[:-1])
        assert got.b[-1] == t.c[-1] - t.a[-1]


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_every_stage_bounds_its_slot_on_both_sides(n):
    # the back-substitution takes the midpoint of each slot's interval, so
    # each stage needs a row on either side; a row reads the pins and the
    # slots of later stages only
    stages = _fourier_motzkin(n)[1]
    assert [slot for slot, _ in stages] == free_slots(n)
    first = len(_pinned_slots(n))
    for s, (_, rows) in enumerate(stages):
        signs = {coef > 0 for coef, _, _ in rows}
        assert signs == {True, False}
        for coef, terms, total in rows:
            assert coef != 0 and total > 0
            assert all(c and (j < first or j > first + s) for j, c in terms)


@settings(max_examples=40, deadline=None)
@given(hive_triples(), st.sampled_from(SLACKS[:3]))
def test_hive_boundaries_are_members(t, slack):
    assert kt_member(t, slack)


def _count_lp_calls(monkeypatch):
    calls = []
    solve = oracles.feasible_point

    def counted(a, b):
        calls.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(oracles, "feasible_point", counted)
    return calls


@pytest.mark.parametrize("t, slack, member", [
    (HornTriple((2, 4, 5, 5), (1, 2, 2, 2), (3, 6, 7, 7)), 0, True),
    (HornTriple((2, 4, 5, 5), (1, 2, 2, 2), (4, 6, 7, 7)), 0, False),
    (HornTriple((2, 4, 5, 5), (1, 2, 2, 2), (3, 6, 7, 7)), F(1, 10 ** 8), True),
    # a facet broken by less than slack times its multiplier total
    (BAND, F(1, 10 ** 8), True),
    # negative slack tightens the hive inequalities themselves
    (HornTriple((2, 3, 3), (1, 2, 2), (3, 5, 5)), F(-1, 10), False),
    (HornTriple((3, 4, 3), (2, 3, 2), (4, 6, 5)), F(-1, 10), True),
])
def test_facet_table_decides_without_the_lp(t, slack, member, monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    assert kt_member(t, slack) == member
    assert (kt_witness(t, slack) is not None) == member
    assert calls == []
    assert lp_verdict(t, slack) == member and calls


@pytest.mark.parametrize("t", [
    # n = 6 is past the desk scale: no table, and no other route
    HornTriple((2, 3, 3, 3, 3, 3), (1, 2, 2, 2, 2, 2), (3, 5, 5, 5, 5, 5)),
    HornTriple((2, 3, 3, 3, 3, 3), (1, 2, 2, 2, 2, 2), (4, 5, 5, 5, 5, 5)),
])
def test_membership_refuses_n_above_the_desk_scale(t):
    for route in (kt_member, kt_witness):
        with pytest.raises(ValueError, match=r"^n must be between 1 and 5$"):
            route(t)


# -- the float filter in front of the facet table ------------------------------

def _float_triple(n, seed, closed):
    """Spectra of A, B and A + U B U* for Gaussian diagonal A, B and a Haar
    U, as cumulative float vectors: dyadic rationals with large
    denominators.  closed makes c_n equal a_n + b_n exactly."""
    rng = np.random.default_rng(seed)
    la, lb = (np.sort(rng.standard_normal(n))[::-1] for _ in range(2))
    u = haar_unitaries(n, 1, rng)[0]
    lc = np.linalg.eigvalsh(np.diag(la) + u @ np.diag(lb) @ u.conj().T)[::-1]
    a, b, c = (list(accumulate(float(x) for x in lam)) for lam in (la, lb, lc))
    if closed:
        c[-1] = F(a[-1]) + F(b[-1])
    return a, b, c


@st.composite
def float_triples(draw):
    """Float-derived triples: Hermitian sums, with c_1 left alone or moved
    by a little or a lot, and sorted float spectra that need not be sums."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        a, b, c = _float_triple(n, draw(st.integers(0, 2 ** 32 - 1)),
                                draw(st.booleans()))
        c[0] += draw(st.sampled_from((0.0, 2.0 ** -40, -2.0 ** -40, 0.25, -0.25)))
        return HornTriple(a, b, c)
    floats = st.lists(st.floats(-4, 4), min_size=n, max_size=n)
    a, b, c = (_cumulative(sorted(draw(floats), reverse=True)) for _ in range(3))
    if draw(st.booleans()):
        c = c[:-1] + (F(a[-1]) + F(b[-1]),)
    return HornTriple(a, b, c)


@st.composite
def last_bit_triples(draw):
    """A hive triple plus the boundary of an affine function, with one
    entry then moved by 2^-60 either way.

    Adding x k + y i to a hive keeps every rhombus slack, so the triple
    stays tight in the same rows; it moves a_i by y i, b_i by -(x + y) i
    and c_i by -x i.  With x and y of about 2^62 / 2^60 the pins round to
    floats with errors in the thousands, against the 1 by which the moved
    entry shifts a tight row.
    """
    t = draw(hive_triples())
    x, y = (F(draw(st.integers(-2 ** 62, 2 ** 62)), 2 ** 60) for _ in range(2))
    parts = {"a": [v + y * i for i, v in enumerate(t.a, 1)],
             "b": [v - (x + y) * i for i, v in enumerate(t.b, 1)],
             "c": [v - x * i for i, v in enumerate(t.c, 1)]}
    which = draw(st.sampled_from("abc"))
    j = draw(st.integers(0, t.n - 1))
    parts[which][j] += draw(st.sampled_from((F(1, 2 ** 60), F(-1, 2 ** 60))))
    return HornTriple(**parts)


@st.composite
def huge_triples(draw):
    """Triples scaled so that the pins sit inside the filter's range
    (2^990), near the top of the float range (10^300 to 10^307; F @ p
    overflows from about 10^306) or beyond it (10^400)."""
    t = draw(st.one_of(small_triples(), hive_triples(), pushed_triples()))
    return scale_triple(t, draw(st.sampled_from(
        (F(2) ** 990, F(10) ** 300, F(10) ** 306, F(10) ** 307, F(10) ** 400))))


E60 = F(1, 2 ** 60)


@settings(max_examples=400, deadline=None)
@given(st.one_of(float_triples(), hive_triples(), pushed_triples(),
                 last_bit_triples(), huge_triples()),
       st.sampled_from(SLACKS))
# a non-member with a row at -1 among pins near 2^60, which floats cannot see
@example(HornTriple((1 + E60, 2), (-1 - E60, -2 - 2 * E60), (-E60, -2 * E60)), F(0))
def test_float_filter_matches_the_integer_route(t, slack):
    # an overflow in the filter would show as a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _table_verdict(t, slack) == facet_verdict(t, slack)
        open_rows = set(hive._open_rows(t.n, t.ints))
    # every row the filter settles is positive in exact arithmetic
    table, _, _ = _triple_facets(t.n)
    assert all(sum(map(mul, row, t.ints)) > 0
               for j, (row, _) in enumerate(table) if j not in open_rows)


def _count_exact_rows(monkeypatch):
    sent = []
    pick = hive._open_rows

    def counted(n, ints):
        rows = pick(n, ints)
        sent.append(list(rows))
        return rows

    monkeypatch.setattr(hive, "_open_rows", counted)
    return sent


def test_generic_float_member_needs_no_exact_row(monkeypatch):
    sent = _count_exact_rows(monkeypatch)
    for seed in range(5):
        a, b, c = _float_triple(4, seed, closed=False)
        assert kt_member(HornTriple(a, b, c), F(1, 10 ** 8))
    assert sent == [[]] * 5


def test_a_triple_on_a_facet_sends_that_row(monkeypatch):
    # c_1 = a_1 + b_1: Weyl's row a_1 + (b_1 + a_4) - a_4 - c_1 >= 0 is tight;
    # on the triple's own integers it reads a_1 + b_1 - c_1 >= 0
    t = HornTriple((2, 4, 5, 5), (1, 2, 2, 2), (3, 6, 7, 7))
    weyl = (0, 1, 0, 0, -1, 1, 0, 0, -1, 0, 0, 0)
    rows = [row for row, _, _ in _facets(4)]
    pins = pin_values(t)
    tight = [j for j, row in enumerate(rows)
             if sum(x * p for x, p in zip(row, pins)) == 0]
    sent = _count_exact_rows(monkeypatch)
    assert kt_member(t)
    assert [sorted(r) for r in sent] == [tight] and rows.index(weyl) in tight
    assert _triple_facets(4)[0][rows.index(weyl)][0] \
        == (1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0)


def test_open_rows_come_lowest_first(monkeypatch):
    # a_1 moved up by one from the triple above breaks one facet row, which
    # comes after seven tight rows in table order; read lowest value first,
    # it is the only row kt_member evaluates
    t = HornTriple((3, 4, 5, 5), (1, 2, 2, 2), (3, 6, 7, 7))
    table, _, _ = _triple_facets(4)
    values = [sum(map(mul, row, t.ints)) for row, _ in table]
    violated = [j for j, v in enumerate(values) if v < 0]
    tight = [j for j, v in enumerate(values) if v == 0]
    assert len(violated) == 1 and len([j for j in tight if j < violated[0]]) == 7
    rows = list(hive._open_rows(4, t.ints))
    assert sorted(rows) == sorted(violated + tight)
    assert [values[j] for j in rows] == sorted(values[j] for j in rows)
    products = []

    def counted(x, y):
        products.append(x * y)
        return x * y

    monkeypatch.setattr(hive, "mul", counted)
    assert not kt_member(t)
    assert len(products) == len(table[0][0])


@st.composite
def unclosed_triples(draw):
    """A hive triple with c_n moved off a_n + b_n by one of SLACKS."""
    t = draw(hive_triples())
    miss = draw(st.sampled_from(SLACKS))
    return HornTriple(t.a, t.b, t.c[:-1] + (t.c[-1] + miss,))


@settings(max_examples=300, deadline=None)
@given(st.one_of(float_triples(), hive_triples(), pushed_triples(),
                 unclosed_triples()))
def test_composed_rows_match_the_pin_route(t):
    # each facet row read on the triple's integers gives the value the pin
    # row gives on the pins laid out independently, and never reads b_n
    den, pins = integer_pins(t)
    table, _, _ = _triple_facets(t.n)
    assert len(table) == len(_facets(t.n)) == FACET_COUNTS[t.n]
    for (row, total), (facet, _, facet_total) in zip(table, _facets(t.n)):
        assert len(row) == len(t.ints) and row[2 * t.n - 1] == 0
        assert total == facet_total
        assert F(sum(map(mul, row, t.ints)), t.den) \
            == F(sum(map(mul, facet, pins)), den)


# -- serialization -----------------------------------------------------------

def test_parse_format_round_trip():
    for s, v in (("1/3", F(1, 3)), ("-7/2", F(-7, 2)), ("4", F(4)),
                 ("0.25", F(1, 4)), ("0", F(0))):
        assert parse_number(s) == v
    for v in (F(1, 3), F(-22, 7), F(5), F(0)):
        assert parse_number(format_number(v)) == v


def test_parse_number_decimal_goes_through_float():
    # decimal text is read as a double and then rationalized exactly, so
    # repr-printed floats round trip bit for bit through CSV files
    assert parse_number("0.1") == F(3602879701896397, 36028797018963968)
    x = 0.1 + 0.2
    assert float(parse_number(format_number(x))) == x
    assert parse_number("0.25") == F(1, 4)


def test_triple_csv_round_trip():
    assert triple_csv_header(2) == "a1,a2,b1,b2,c1,c2"
    t = HornTriple((F(3, 2), 0), (1, F(-1, 3)), (F(5, 2), F(-1, 3)))
    line = triple_to_csv(t)
    assert triple_from_csv(line, 2) == t
    # an empty field counts, so no value shifts into another's column
    for bad in ("1,,0,1,0,2,0", "1,0,1,0,2,0,"):
        with pytest.raises(ValueError, match="expected 6 fields, got 7"):
            triple_from_csv(bad, 2)


def test_tableau_json_round_trip():
    for t in (_t([[0], [1, 1], [0, 2, 2]], role=HIVE),
              _t([[0], [0, F(1, 3)], [0, 3, F(-2, 7)]], role=TROPICAL_GZ)):
        back = tableau_from_json(tableau_to_json(t))
        assert back == t and back.role == t.role


@pytest.mark.parametrize("doc, problem", [
    ([["0"]], "must be a JSON object"),
    ({"rows": [["0"], ["0", "1"]]}, "key 'n' of type int"),
    ({"n": 1}, "key 'rows' of type list"),
    ({"n": "1", "rows": [["0"], ["0", "1"]]}, "key 'n' of type int"),
    ({"n": True, "rows": [["0"], ["0", "1"]]}, "key 'n' of type int"),
    ({"n": 1, "rows": "0,1"}, "key 'rows' of type list"),
    ({"n": 1, "rows": [["0"], "01"]}, "rows must be lists"),
    ({"n": 1, "rows": [["0"], ["0", "1/0"]]}, "not a finite number"),
    ({"n": 1, "rows": [["0"], ["0", "1e99999999"]]}, "exponent out of range"),
    ({"n": 1, "rows": [["0"], ["0", float("inf")]]}, "not a finite number"),
    ({"n": 1, "rows": [["0"], ["0", [1]]]}, "not a number"),
])
def test_tableau_from_json_names_the_problem(doc, problem):
    with pytest.raises(ValueError, match=problem):
        tableau_from_json(doc)


def test_parse_number_rejects_non_finite_text():
    for text in ("1/0", "inf", "-inf", "1e400", "nan"):
        with pytest.raises(ValueError):
            parse_number(text)
