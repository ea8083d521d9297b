"""Endpoint interval arithmetic: construction, enclosure, conventions."""

import math

import pytest

from liamath import ops
from liamath.environment import (
    Continue,
    DivisionByZeroNotification,
    HandlerClause,
    Indicator,
    InvalidOperationNotification,
    NotificationStyle,
    current_environment,
    set_notification_style,
    trap_math,
)
from liamath.fpcore import MAX_FINITE, MIN_SUBNORMAL, QNAN, SNAN, sign_bit
from liamath.interval import (
    EMPTY,
    Interval,
    i_add,
    i_div,
    i_member,
    i_mul,
    i_sub,
    i_subseteq,
    is_point,
    make_interval,
    parse_interval,
    radius,
)

INF = math.inf
REC = NotificationStyle.RECORDING


def flags():
    return set(current_environment().flags)


class TestConstruction:
    def test_direct_constructor_enforces_order(self):
        Interval(1.0, 2.0)
        Interval(-INF, INF)
        Interval(3.0, 3.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(QNAN, 1.0)
        with pytest.raises(ValueError):
            Interval(1.0, SNAN)

    def test_canonical_empty(self):
        assert EMPTY.is_empty
        assert EMPTY == Interval(INF, -INF)
        assert not Interval(1.0, 1.0).is_empty

    def test_make_interval_coerces(self):
        assert make_interval(1, 2) == Interval(1.0, 2.0)

    def test_make_interval_accepts_canonical_empty(self):
        set_notification_style(REC)
        assert make_interval(INF, -INF) is EMPTY
        assert flags() == set()

    def test_make_interval_notifies_on_reversal(self):
        set_notification_style(REC)
        out = make_interval(2.0, 1.0)
        assert out is EMPTY
        assert flags() == {Indicator.INVALID}

    def test_make_interval_notifies_on_nan(self):
        with pytest.raises(InvalidOperationNotification) as info:
            make_interval(QNAN, 1.0)
        assert info.value.continuation is EMPTY

    def test_str_forms(self):
        assert str(Interval(1.5, 2.5)) == "[1.5, 2.5]"
        assert str(Interval(-INF, INF)) == "[-inf, +inf]"
        assert str(Interval(2.0, 2.0)) == "[2, 2]"
        assert str(EMPTY) == "empty"

    @pytest.mark.parametrize(
        "i",
        [
            Interval(1.5, 2.5),
            Interval(-INF, INF),
            Interval(0.1, 0.2),
            Interval(-0.0, 0.0),
            Interval(2.0, 2.0),
            EMPTY,
        ],
    )
    def test_parse_round_trip(self, i):
        assert parse_interval(str(i)) == i

    def test_parse_spacing_and_symbols(self):
        assert parse_interval("  [ 1 , 2 ]  ") == Interval(1.0, 2.0)
        assert parse_interval("[-inf, 3e0]") == Interval(-INF, 3.0)

    @pytest.mark.parametrize(
        "text", ["1,2", "[1]", "[1, 2, 3]", "[1, nan]", "[2, 1]", "interval"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_interval(text)


class TestQueries:
    def test_radius_exact(self):
        assert radius(Interval(1.0, 2.0)) == 1.0

    def test_radius_of_one_ulp_interval(self):
        assert radius(Interval(0.3, 0.30000000000000004)) == 5.551115123125783e-17

    def test_radius_rounds_upward(self):
        # high - low is inexact here; the reported extent must not undercover
        i = Interval(-1e16, 0.1)
        r = radius(i)
        assert r == 1.0000000000000002e16
        assert r >= i.high - i.low

    def test_radius_of_points_is_positive_zero(self):
        for i in (Interval(5.0, 5.0), Interval(-INF, -INF), Interval(INF, INF)):
            r = radius(i)
            assert r == 0.0 and sign_bit(r) == 0

    def test_radius_of_unbounded_is_infinite(self):
        assert radius(Interval(0.0, INF)) == INF
        assert radius(Interval(-INF, 1.0)) == INF
        assert radius(Interval(-INF, INF)) == INF

    def test_radius_of_empty_is_invalid(self):
        set_notification_style(REC)
        assert math.isnan(radius(EMPTY))
        assert flags() == {Indicator.INVALID}

    def test_is_point(self):
        assert is_point(Interval(2.0, 2.0))
        assert is_point(Interval(INF, INF))
        assert is_point(Interval(-0.0, 0.0))  # zeros compare equal
        assert not is_point(Interval(2.0, 3.0))

    def test_is_point_of_empty_is_invalid(self):
        set_notification_style(REC)
        assert is_point(EMPTY) is False
        assert flags() == {Indicator.INVALID}

    def test_member(self):
        i = Interval(1.0, 2.0)
        assert i_member(1.0, i)
        assert i_member(2.0, i)
        assert i_member(1.5, i)
        assert not i_member(0.9999999999999999, i)
        assert not i_member(2.0000000000000004, i)

    def test_member_closed_at_infinity(self):
        assert i_member(INF, Interval(0.0, INF))
        assert not i_member(-INF, Interval(0.0, INF))
        assert i_member(-INF, Interval(-INF, INF))

    def test_member_sees_through_zero_signs(self):
        assert i_member(-0.0, Interval(0.0, 1.0))
        assert i_member(0.0, Interval(-1.0, -0.0))

    def test_member_of_empty(self):
        set_notification_style(REC)
        assert not i_member(0.0, EMPTY)
        assert flags() == set()

    def test_member_nan_probe_is_invalid(self):
        set_notification_style(REC)
        assert i_member(QNAN, Interval(0.0, 1.0)) is False
        assert flags() == {Indicator.INVALID}

    def test_subseteq(self):
        assert i_subseteq(Interval(1.0, 2.0), Interval(0.0, 3.0))
        assert i_subseteq(Interval(1.0, 2.0), Interval(1.0, 2.0))
        assert not i_subseteq(Interval(0.0, 3.0), Interval(1.0, 2.0))
        assert not i_subseteq(Interval(0.0, 3.0), Interval(1.0, 4.0))
        assert i_subseteq(Interval(0.0, INF), Interval(-INF, INF))

    def test_subseteq_with_empty(self):
        assert i_subseteq(EMPTY, Interval(1.0, 2.0))
        assert i_subseteq(EMPTY, EMPTY)
        assert not i_subseteq(Interval(1.0, 2.0), EMPTY)


class TestArithmetic:
    def test_exact_sum_and_difference(self):
        assert i_add(Interval(1.0, 2.0), Interval(10.0, 20.0)) == Interval(11.0, 22.0)
        assert i_sub(Interval(1.0, 2.0), Interval(0.5, 0.75)) == Interval(0.25, 1.5)

    def test_inexact_sum_widens_by_one_ulp_per_endpoint(self):
        s = i_add(Interval(0.1, 0.1), Interval(0.2, 0.2))
        assert s == Interval(0.3, 0.30000000000000004)
        assert i_member(0.1 + 0.2, s)

    def test_product_corners(self):
        assert i_mul(Interval(-2.0, 3.0), Interval(4.0, 5.0)) == Interval(-10.0, 15.0)
        assert i_mul(Interval(-3.0, -2.0), Interval(-5.0, -4.0)) == Interval(8.0, 15.0)
        assert i_mul(Interval(-1.0, 0.0), Interval(0.0, 1.0)) == Interval(-1.0, 0.0)

    def test_inexact_product_endpoints(self):
        p = i_mul(Interval(0.1, 0.1), Interval(3.0, 3.0))
        assert p == Interval(0.3, 0.30000000000000004)

    def test_quotient(self):
        q = i_div(Interval(1.0, 1.0), Interval(3.0, 3.0))
        assert q == Interval(0.3333333333333333, 0.33333333333333337)
        assert i_div(Interval(-1.0, 1.0), Interval(2.0, 4.0)) == Interval(-0.5, 0.5)

    def test_empty_absorbs(self):
        i = Interval(1.0, 2.0)
        for op in (i_add, i_sub, i_mul, i_div):
            assert op(EMPTY, i).is_empty
            assert op(i, EMPTY).is_empty
            assert op(EMPTY, EMPTY).is_empty

    def test_endpoint_rounding_flags_are_recorded_not_raised(self):
        # inexact endpoint arithmetic must not raise even under error style
        # with an empty mask; the flag alone is the record
        env = current_environment()
        env.mask = frozenset()
        s = i_add(Interval(0.1, 0.1), Interval(0.2, 0.2))
        assert not s.is_empty
        assert Indicator.INEXACT in flags()
        # overflowing and underflowing endpoints inside a trap whose clause
        # would continue: the clause never runs, and the body still sees
        # the error style it was given
        for kind, factors, want in (
            (Indicator.OVERFLOW, (MAX_FINITE, 2.0), Interval(MAX_FINITE, INF)),
            (Indicator.UNDERFLOW, (MIN_SUBNORMAL, 0.5), Interval(0.0, MIN_SUBNORMAL)),
        ):
            ran = []
            clause = HandlerClause(kind, Continue(lambda: ran.append(kind) or 0.0))
            a, b = (Interval(x, x) for x in factors)
            env.clear()
            got, style = trap_math(
                None, lambda: (i_mul(a, b), current_environment().style), clause
            )
            assert got == want
            assert ran == []
            assert flags() == {kind, Indicator.INEXACT}
            assert style is NotificationStyle.ERROR
            # the same product on scalars does reach the clause
            assert trap_math(None, lambda: ops.mul(*factors), clause) == 0.0
            assert ran == [kind]

    def test_endpoint_overflow_widens_to_infinity(self):
        set_notification_style(REC)
        from liamath.fpcore import MAX_FINITE

        s = i_add(Interval(MAX_FINITE, MAX_FINITE), Interval(MAX_FINITE, MAX_FINITE))
        # lower endpoint clamps to the largest finite value, upper overflows
        assert s == Interval(MAX_FINITE, INF)
        assert Indicator.OVERFLOW in flags()


class TestInfinityConventions:
    def test_opposed_infinite_sum_endpoint_is_positional(self):
        set_notification_style(REC)
        s = i_add(Interval(-INF, -INF), Interval(INF, INF))
        assert s == Interval(-INF, INF)
        assert flags() == set()

    def test_mixed_infinite_sum(self):
        set_notification_style(REC)
        s = i_add(Interval(-INF, 0.0), Interval(INF, INF))
        assert s == Interval(-INF, INF)
        assert flags() == set()

    def test_same_signed_infinite_difference_endpoint(self):
        set_notification_style(REC)
        d = i_sub(Interval(INF, INF), Interval(INF, INF))
        assert d == Interval(-INF, INF)
        assert flags() == set()

    def test_zero_times_infinity_corner_is_zero(self):
        set_notification_style(REC)
        p = i_mul(Interval(0.0, 0.0), Interval(INF, INF))
        assert p == Interval(0.0, 0.0)
        assert flags() == set()

    def test_zero_spanning_times_unbounded(self):
        set_notification_style(REC)
        p = i_mul(Interval(0.0, 1.0), Interval(INF, INF))
        assert p == Interval(0.0, INF)
        assert flags() == set()

    def test_infinity_over_infinity_corner_is_signed_zero(self):
        set_notification_style(REC)
        q = i_div(Interval(1.0, INF), Interval(2.0, INF))
        assert q == Interval(0.0, INF)
        assert flags() == set()


class TestDivisorContainingZero:
    def test_point_zero_divisor_is_invalid(self):
        set_notification_style(REC)
        out = i_div(Interval(1.0, 2.0), Interval(0.0, 0.0))
        assert out.is_empty
        assert flags() == {Indicator.INVALID}

    def test_point_zero_divisor_raises_under_error_style(self):
        with pytest.raises(InvalidOperationNotification) as info:
            i_div(Interval(1.0, 2.0), Interval(0.0, 0.0))
        assert info.value.continuation.is_empty

    def test_straddling_divisor_is_divide_by_zero(self):
        set_notification_style(REC)
        out = i_div(Interval(1.0, 2.0), Interval(-1.0, 1.0))
        assert out == Interval(-INF, INF)
        assert flags() == {Indicator.DIVIDE_BY_ZERO}

    def test_zero_endpoint_divisor_counts_as_straddling(self):
        set_notification_style(REC)
        assert i_div(Interval(1.0, 2.0), Interval(0.0, 3.0)) == Interval(-INF, INF)
        assert i_div(Interval(1.0, 2.0), Interval(-3.0, -0.0)) == Interval(-INF, INF)
        assert flags() == {Indicator.DIVIDE_BY_ZERO}

    def test_straddling_divisor_raises_under_error_style(self):
        with pytest.raises(DivisionByZeroNotification) as info:
            i_div(Interval(1.0, 2.0), Interval(-1.0, 1.0))
        assert info.value.continuation == Interval(-INF, INF)
