"""Notifying arithmetic: special values, indicators, and comparisons."""

import math
from fractions import Fraction

import pytest

from liamath import ops
from liamath.environment import (
    DivisionByZeroNotification,
    Indicator,
    InvalidOperationNotification,
    NotificationStyle,
    OverflowNotification,
    UnderflowNotification,
    current_environment,
    notification_style,
    rounding_mode,
    set_notification_style,
)
from liamath.fpcore import (
    MAX_FINITE,
    MIN_NORMAL,
    MIN_SUBNORMAL,
    QNAN,
    SNAN,
    float_to_bits,
    is_signaling,
    sign_bit,
)
from liamath.rounding import RoundingMode, add_dir, div_dir, mul_dir, sqrt_dir, sub_dir

NE = RoundingMode.TO_NEAREST_EVEN
UP = RoundingMode.TO_POSITIVE_INFINITY
DOWN = RoundingMode.TO_NEGATIVE_INFINITY
ZERO = RoundingMode.TO_ZERO

REC = NotificationStyle.RECORDING


def flags():
    return set(current_environment().flags)


class TestInvalidOperations:
    cases = [
        (lambda: ops.add(math.inf, -math.inf), "add"),
        (lambda: ops.sub(math.inf, math.inf), "sub"),
        (lambda: ops.mul(0.0, math.inf), "mul"),
        (lambda: ops.mul(math.inf, -0.0), "mul"),
        (lambda: ops.div(0.0, 0.0), "div"),
        (lambda: ops.div(math.inf, math.inf), "div"),
        (lambda: ops.div(-math.inf, math.inf), "div"),
        (lambda: ops.sqrt(-1.0), "sqrt"),
        (lambda: ops.sqrt(-math.inf), "sqrt"),
    ]

    @pytest.mark.parametrize("fn,name", cases)
    def test_recording_yields_quiet_nan_and_flag(self, fn, name):
        set_notification_style(REC)
        out = fn()
        assert float_to_bits(out) == float_to_bits(float("nan"))  # canonical QNAN
        assert flags() == {Indicator.INVALID}

    @pytest.mark.parametrize("fn,name", cases)
    def test_error_style_raises(self, fn, name):
        with pytest.raises(InvalidOperationNotification) as info:
            fn()
        assert info.value.operation == name
        assert float_to_bits(info.value.continuation) == float_to_bits(float("nan"))

    def test_signaling_nan_is_invalid_everywhere(self):
        set_notification_style(REC)
        for fn in (
            lambda: ops.add(SNAN, 1.0),
            lambda: ops.sub(1.0, SNAN),
            lambda: ops.mul(SNAN, SNAN),
            lambda: ops.div(SNAN, 2.0),
            lambda: ops.sqrt(SNAN),
        ):
            current_environment().clear()
            out = fn()
            assert float_to_bits(out) == float_to_bits(float("nan"))  # canonical QNAN
            assert flags() == {Indicator.INVALID}
            with pytest.raises(InvalidOperationNotification) as info:
                with notification_style(NotificationStyle.ERROR):
                    fn()
            assert float_to_bits(info.value.continuation) == float_to_bits(float("nan"))

    def test_quiet_nan_propagates_silently(self):
        set_notification_style(REC)
        for out in (
            ops.add(QNAN, 1.0),
            ops.sub(QNAN, math.inf),
            ops.mul(QNAN, 0.0),
            ops.div(QNAN, 0.0),
            ops.div(1.0, QNAN),
            ops.sqrt(QNAN),
        ):
            assert math.isnan(out) and not is_signaling(out)
        assert flags() == set()


class TestDivideByZero:
    sign_table = [
        (1.0, 0.0, math.inf),
        (1.0, -0.0, -math.inf),
        (-1.0, 0.0, -math.inf),
        (-1.0, -0.0, math.inf),
    ]

    @pytest.mark.parametrize("a,b,expect", sign_table)
    def test_signed_infinite_continuation(self, a, b, expect):
        set_notification_style(REC)
        assert ops.div(a, b) == expect
        assert flags() == {Indicator.DIVIDE_BY_ZERO}

    def test_error_style_raises_with_continuation(self):
        with pytest.raises(DivisionByZeroNotification) as info:
            ops.div(-3.0, 0.0)
        assert info.value.continuation == -math.inf
        assert info.value.operands == (-3.0, 0.0)

    def test_infinity_over_zero_is_silent(self):
        set_notification_style(REC)
        assert ops.div(math.inf, 0.0) == math.inf
        assert ops.div(-math.inf, 0.0) == -math.inf
        assert ops.div(math.inf, -0.0) == -math.inf
        assert flags() == set()

    def test_finite_over_infinity_is_signed_zero(self):
        set_notification_style(REC)
        assert str(ops.div(1.0, math.inf)) == "0.0"
        assert str(ops.div(-1.0, math.inf)) == "-0.0"
        assert str(ops.div(1.0, -math.inf)) == "-0.0"
        assert flags() == set()


class TestOverflow:
    def test_product_beyond_range(self):
        set_notification_style(REC)
        assert ops.mul(MAX_FINITE, 2.0) == math.inf
        assert flags() == {Indicator.OVERFLOW, Indicator.INEXACT}

    def test_edge_continuation_per_mode(self):
        set_notification_style(REC)
        assert ops.mul(MAX_FINITE, 2.0, NE) == math.inf
        assert ops.mul(MAX_FINITE, 2.0, UP) == math.inf
        assert ops.mul(MAX_FINITE, 2.0, DOWN) == MAX_FINITE
        assert ops.mul(MAX_FINITE, 2.0, ZERO) == MAX_FINITE
        assert ops.mul(-MAX_FINITE, 2.0, NE) == -math.inf
        assert ops.mul(-MAX_FINITE, 2.0, DOWN) == -math.inf
        assert ops.mul(-MAX_FINITE, 2.0, UP) == -MAX_FINITE
        assert ops.mul(-MAX_FINITE, 2.0, ZERO) == -MAX_FINITE

    def test_boundary_sum_rounds_in_yet_overflows(self):
        # exact result exceeds the largest finite value even though nearest
        # rounding lands back on it
        set_notification_style(REC)
        assert ops.add(MAX_FINITE, 2.0**969, NE) == MAX_FINITE
        assert flags() == {Indicator.OVERFLOW, Indicator.INEXACT}

    def test_boundary_sum_upward_reaches_infinity(self):
        set_notification_style(REC)
        assert ops.add(MAX_FINITE, 2.0**969, UP) == math.inf

    def test_exact_top_of_range_is_no_overflow(self):
        set_notification_style(REC)
        assert ops.add(MAX_FINITE, 0.0) == MAX_FINITE
        assert ops.mul(MAX_FINITE, 1.0) == MAX_FINITE
        assert flags() == set()

    def test_error_style_raises(self):
        with pytest.raises(OverflowNotification) as info:
            ops.mul(MAX_FINITE, 2.0)
        assert info.value.continuation == math.inf
        assert current_environment().test_indicator(Indicator.INEXACT)


class TestUnderflow:
    def test_halved_least_subnormal(self):
        set_notification_style(REC)
        assert ops.mul(MIN_SUBNORMAL, 0.5, NE) == 0.0
        assert flags() == {Indicator.UNDERFLOW, Indicator.INEXACT}

    def test_upward_mode_keeps_least_subnormal(self):
        set_notification_style(REC)
        assert ops.mul(MIN_SUBNORMAL, 0.5, UP) == MIN_SUBNORMAL

    def test_inexact_subnormal_quotient(self):
        set_notification_style(REC)
        out = ops.div(1.0, 1e308)
        assert 0.0 < out < MIN_NORMAL
        assert flags() == {Indicator.UNDERFLOW, Indicator.INEXACT}

    def test_exact_subnormal_is_silent(self):
        set_notification_style(REC)
        assert ops.div(MIN_NORMAL, 2.0) == MIN_NORMAL / 2
        assert ops.mul(MIN_SUBNORMAL, 8.0) == 8 * MIN_SUBNORMAL
        assert flags() == set()

    def test_error_style_raises(self):
        with pytest.raises(UnderflowNotification) as info:
            ops.mul(MIN_SUBNORMAL, 0.5)
        assert info.value.continuation == 0.0

    def test_addition_never_underflows(self):
        # sums and differences that land in the subnormal range are exact
        set_notification_style(REC)
        samples = [
            (MIN_NORMAL, -MIN_SUBNORMAL),
            (3 * MIN_SUBNORMAL, 5 * MIN_SUBNORMAL),
            (MIN_NORMAL / 2, MIN_NORMAL / 4),
            (1.0000000000000002 * MIN_NORMAL, -MIN_NORMAL),
        ]
        for a, b in samples:
            current_environment().clear()
            out = ops.add(a, b)
            assert abs(out) < MIN_NORMAL
            assert Indicator.UNDERFLOW not in flags()
            assert Indicator.INEXACT not in flags()


class TestInexactAndModes:
    def test_inexact_is_masked_by_default(self):
        out = ops.add(0.1, 0.2)
        assert out == 0.30000000000000004
        assert current_environment().test_indicator(Indicator.INEXACT)

    def test_exact_operations_set_nothing(self):
        set_notification_style(REC)
        assert ops.add(1.5, 2.25) == 3.75
        assert ops.sub(0.3, 0.1) == 0.19999999999999998
        assert ops.mul(1.5, 2.0) == 3.0
        assert ops.div(1.0, 4.0) == 0.25
        assert ops.sqrt(2.25) == 1.5
        assert flags() == set()

    def test_explicit_mode_argument(self):
        set_notification_style(REC)
        assert ops.add(0.1, 0.2, DOWN) == 0.3
        assert ops.add(0.1, 0.2, ZERO) == 0.3
        assert ops.add(0.1, 0.2, UP) == 0.30000000000000004

    def test_ambient_mode_context(self):
        set_notification_style(REC)
        with rounding_mode(ZERO):
            assert ops.add(0.1, 0.2) == 0.3
        assert ops.add(0.1, 0.2) == 0.30000000000000004

    def test_zero_sum_sign_follows_mode(self):
        set_notification_style(REC)
        assert float_to_bits(ops.sub(1.0, 1.0, DOWN)) == float_to_bits(-0.0)
        assert float_to_bits(ops.sub(1.0, 1.0, NE)) == float_to_bits(0.0)
        assert flags() == set()

    def test_sqrt_of_signed_zero(self):
        set_notification_style(REC)
        assert sign_bit(ops.sqrt(-0.0)) == 1
        assert sign_bit(ops.sqrt(0.0)) == 0
        assert flags() == set()


class TestEquality:
    def test_basic_pairs(self):
        assert ops.eq(1.0, 1.0)
        assert not ops.eq(1.0, 2.0)
        assert ops.eq(0.0, -0.0)
        assert ops.eq(math.inf, math.inf)
        assert not ops.eq(math.inf, -math.inf)

    def test_nan_is_unordered(self):
        set_notification_style(REC)
        assert not ops.eq(QNAN, QNAN)
        assert not ops.eq(QNAN, 1.0)
        assert flags() == set()

    def test_chain_tests_adjacent_pairs(self):
        assert ops.eq(2.0, 2.0, 2.0, 2.0)
        assert not ops.eq(2.0, 2.0, 3.0)

    def test_chain_short_circuits(self):
        # the failing first pair stops evaluation before the signaling NaN
        set_notification_style(REC)
        assert not ops.eq(1.0, 2.0, SNAN)
        assert flags() == set()

    def test_signaling_nan_raises_invalid(self):
        set_notification_style(REC)
        assert not ops.eq(SNAN, 1.0)
        assert flags() == {Indicator.INVALID}
        with notification_style(NotificationStyle.ERROR):
            with pytest.raises(InvalidOperationNotification) as info:
                ops.eq(SNAN, 1.0)
        assert info.value.continuation is False

    def test_single_argument_is_vacuously_true(self):
        assert ops.eq(7.0)


class TestInequality:
    def test_basic_pairs(self):
        assert ops.neq(1.0, 2.0)
        assert not ops.neq(1.0, 1.0)
        assert not ops.neq(0.0, -0.0)
        assert ops.neq(math.inf, -math.inf)

    def test_nan_differs_from_everything(self):
        set_notification_style(REC)
        assert ops.neq(QNAN, QNAN)
        assert ops.neq(QNAN, 1.0)
        assert flags() == set()

    def test_all_pairs_must_differ(self):
        assert ops.neq(1.0, 2.0, 3.0)
        assert not ops.neq(1.0, 2.0, 1.0)  # non-adjacent duplicate

    def test_short_circuits_on_equal_pair(self):
        set_notification_style(REC)
        assert not ops.neq(1.0, 1.0, SNAN)
        assert flags() == set()

    def test_signaling_nan_raises_invalid(self):
        set_notification_style(REC)
        assert not ops.neq(SNAN, 2.0)
        assert flags() == {Indicator.INVALID}

    def test_negation_relation_for_two_arguments(self):
        pool = [1.0, -2.5, 0.0, -0.0, math.inf, -math.inf, QNAN]
        for a in pool:
            for b in pool:
                assert ops.neq(a, b) == (not ops.eq(a, b))


class TestOperands:
    """One operand rule for ops and the *_dir functions: floats as they are,
    exact ints as floats, any other int a ValueError before any flag."""

    def test_int_beyond_the_significand_is_rejected(self):
        set_notification_style(REC)
        with pytest.raises(ValueError) as info:
            ops.add(2**53 + 1, 0.0, UP)
        assert str(info.value) == "add: int operand 9007199254740993 is not exact in binary64"
        assert flags() == set()

    def test_int_beyond_the_range_is_rejected(self):
        set_notification_style(REC)
        for call, name in ((lambda: ops.add(10**400, 1.0), "add"),
                           (lambda: add_dir(10**400, 1.0), "add_dir"),
                           (lambda: ops.mul(1.0, -(10**400)), "mul"),
                           (lambda: ops.eq(1.0, 10**400), "eq")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{name}: int operand of 1329 bits is not exact in binary64"
        # just past the largest finite double: shown in full below 1025 bits
        with pytest.raises(ValueError) as info:
            ops.sqrt(2**1024 - 2**970)
        assert str(info.value) == f"sqrt: int operand {2**1024 - 2**970} is not exact in binary64"
        assert flags() == set()

    def test_every_operation_checks_every_operand(self):
        bad = 2**53 + 1
        calls = [(ops.add, "add"), (ops.sub, "sub"), (ops.mul, "mul"), (ops.div, "div"),
                 (add_dir, "add_dir"), (sub_dir, "sub_dir"), (mul_dir, "mul_dir"),
                 (div_dir, "div_dir")]
        for fn, name in calls:
            for args in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError, match=f"^{name}: int operand {bad} "):
                    fn(*args)
        for fn, name in ((ops.sqrt, "sqrt"), (sqrt_dir, "sqrt_dir")):
            with pytest.raises(ValueError, match=f"^{name}: int operand {bad} "):
                fn(bad)
        for fn, name in ((ops.eq, "eq"), (ops.neq, "neq")):
            with pytest.raises(ValueError, match=f"^{name}: int operand {bad} "):
                fn(1.0, 2.0, bad)

    def test_exact_ints_and_bools_become_floats(self):
        set_notification_style(REC)
        result = add_dir(1, 2)
        assert type(result) is float and result == 3.0
        assert type(ops.add(1, 2)) is float
        assert ops.add(2**53, 0.0, UP) == 2.0**53
        assert ops.mul(-(2**1023), 1) == -(2.0**1023)
        assert ops.add(True, False) == 1.0 and type(ops.add(True, False)) is float
        assert sqrt_dir(4) == 2.0
        assert ops.eq(2**53, 2.0**53) and ops.neq(1, 2)
        assert flags() == set()

    def test_other_types_go_through_float(self):
        set_notification_style(REC)
        assert ops.add("0.1", Fraction(1, 5)) == 0.30000000000000004
        assert add_dir(Fraction(1, 10), "0.2", DOWN) == 0.3

        class Sub(float):
            pass

        result = ops.mul(Sub(1.5), 2.0)
        assert type(result) is float and result == 3.0
        with pytest.raises(TypeError):
            ops.add(None, 1.0)
