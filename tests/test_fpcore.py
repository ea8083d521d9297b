"""Bit model: classification, neighbors, error-free transformations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liamath import fpcore
from liamath.fpcore import (
    MAX_FINITE,
    MIN_NORMAL,
    MIN_SUBNORMAL,
    QNAN,
    SNAN,
    FloatClass,
    bits_to_float,
    classify,
    decimal_form,
    float_to_bits,
    is_signaling,
    next_down,
    next_up,
    prod_residual_sign,
    quiet,
    quot_residual_sign,
    sign_bit,
    sqrt_residual_sign,
    two_sum,
)

bit_patterns = st.integers(min_value=0, max_value=(1 << 64) - 1)


def finite_floats():
    return st.floats(allow_nan=False, allow_infinity=False)


class TestConstants:
    def test_extremes_bit_patterns(self):
        assert float_to_bits(MAX_FINITE) == 0x7FEFFFFFFFFFFFFF
        assert float_to_bits(MIN_NORMAL) == 0x0010000000000000
        assert float_to_bits(MIN_SUBNORMAL) == 0x0000000000000001

    def test_nan_constants(self):
        assert math.isnan(QNAN) and not is_signaling(QNAN)
        assert math.isnan(SNAN) and is_signaling(SNAN)
        assert float_to_bits(SNAN) == 0x7FF0000000000001

    def test_quiet_sets_the_quiet_bit(self):
        q = quiet(SNAN)
        assert math.isnan(q) and not is_signaling(q)
        assert quiet(1.5) == 1.5
        assert float_to_bits(quiet(QNAN)) == float_to_bits(QNAN)

    def test_bits_round_trip_preserves_snan(self):
        assert float_to_bits(bits_to_float(0x7FF0000000000001)) == 0x7FF0000000000001
        assert float_to_bits(bits_to_float(0xFFF8000000000123)) == 0xFFF8000000000123


class TestClassify:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.5, FloatClass.POSITIVE_NORMAL),
            (-2.0, FloatClass.NEGATIVE_NORMAL),
            (MIN_SUBNORMAL, FloatClass.POSITIVE_SUBNORMAL),
            (-MIN_SUBNORMAL, FloatClass.NEGATIVE_SUBNORMAL),
            (0.0, FloatClass.POSITIVE_ZERO),
            (-0.0, FloatClass.NEGATIVE_ZERO),
            (math.inf, FloatClass.POSITIVE_INFINITY),
            (-math.inf, FloatClass.NEGATIVE_INFINITY),
            (QNAN, FloatClass.QUIET_NAN),
            (SNAN, FloatClass.SIGNALING_NAN),
        ],
    )
    def test_examples(self, value, expected):
        assert classify(value) is expected

    def test_boundaries(self):
        assert classify(MIN_NORMAL) is FloatClass.POSITIVE_NORMAL
        assert classify(next_down(MIN_NORMAL)) is FloatClass.POSITIVE_SUBNORMAL
        assert classify(MAX_FINITE) is FloatClass.POSITIVE_NORMAL

    @given(bit_patterns)
    def test_total_over_all_bit_patterns(self, b):
        x = bits_to_float(b)
        tag = classify(x)
        assert isinstance(tag, FloatClass)
        if tag not in (FloatClass.QUIET_NAN, FloatClass.SIGNALING_NAN):
            assert tag.value.startswith("negative" if sign_bit(x) else "positive")


class TestNeighbors:
    def test_around_zero(self):
        assert next_up(0.0) == MIN_SUBNORMAL
        assert next_up(-0.0) == MIN_SUBNORMAL
        assert next_down(0.0) == -MIN_SUBNORMAL
        assert next_down(-0.0) == -MIN_SUBNORMAL

    def test_at_the_edges(self):
        assert next_up(MAX_FINITE) == math.inf
        assert next_up(math.inf) == math.inf
        assert next_down(-MAX_FINITE) == -math.inf
        assert next_down(-math.inf) == -math.inf
        assert next_down(MIN_NORMAL) == MIN_NORMAL - MIN_SUBNORMAL

    def test_nan_has_no_neighbor(self):
        with pytest.raises(ValueError):
            next_up(QNAN)
        with pytest.raises(ValueError):
            next_down(QNAN)

    @given(st.floats(allow_nan=False))
    def test_round_trip(self, x):
        up = next_up(x)
        if math.isfinite(up) and up != 0.0:
            assert next_down(up) == x or (x == 0.0 and next_down(up) == 0.0)


class TestTwoSum:
    def test_frozen_example(self):
        # residual of 0.1 + 0.2, computed once with the rational oracle
        hi, lo = two_sum(0.1, 0.2)
        assert (hi, lo) == (0.30000000000000004, -2.7755575615628914e-17)
        assert lo == -(2.0**-55)

    def test_exact_sum_has_zero_residual(self):
        assert two_sum(1.0, 2.0) == (3.0, 0.0)

    @given(finite_floats(), finite_floats())
    def test_identity_against_rationals(self, a, b):
        if math.isinf(a + b):
            return
        hi, lo = two_sum(a, b)
        assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)


class TestProdResidual:
    @given(finite_floats(), finite_floats())
    def test_sign_against_rationals(self, a, b):
        p = a * b
        if math.isinf(p):
            return
        diff = Fraction(a) * Fraction(b) - Fraction(p)
        assert prod_residual_sign(a, b, p) == (diff > 0) - (diff < 0)


class TestQuotientResidualSign:
    def test_frozen_examples(self):
        q = 1.0 / 3.0
        assert quot_residual_sign(1.0, 3.0, q) == 1
        assert quot_residual_sign(-1.0, 3.0, -q) == -1
        assert quot_residual_sign(1.0, 2.0, 0.5) == 0

    @given(finite_floats(), finite_floats())
    def test_against_rationals(self, a, b):
        if b == 0.0:
            return
        q = a / b
        if math.isinf(q):
            return
        diff = Fraction(a) / Fraction(b) - Fraction(q)
        assert quot_residual_sign(a, b, q) == (diff > 0) - (diff < 0)


class TestSqrtResidualSign:
    def test_frozen_examples(self):
        assert sqrt_residual_sign(2.0, math.sqrt(2.0)) == -1
        assert sqrt_residual_sign(4.0, 2.0) == 0

    @given(st.floats(min_value=MIN_SUBNORMAL, max_value=MAX_FINITE))
    def test_against_rationals(self, x):
        r = math.sqrt(x)
        diff = Fraction(x) - Fraction(r) * Fraction(r)
        assert sqrt_residual_sign(x, r) == (diff > 0) - (diff < 0)


def _sign(r: Fraction) -> int:
    return (r > 0) - (r < 0)


def _near_guard() -> list[float]:
    """The guard bounds 2**-900 and 2**900 (and their square roots) with
    values just inside and just outside them."""
    out = []
    for e in (-900, 900, -450, 450):
        g = 2.0**e
        out += [g, next_down(g), next_up(g), g * 1.5, g * (1.0 / 3.0), g * 3.0]
    return out


def _residual_corpus() -> list[float]:
    """Positive magnitudes on both sides of each path's limits: values near
    the guard bounds, subnormals, MIN_NORMAL, the top of the range,
    split-sized and ordinary values."""
    return [MIN_SUBNORMAL, 3 * MIN_SUBNORMAL, MIN_NORMAL / 3, next_down(MIN_NORMAL),
            MIN_NORMAL, next_up(MIN_NORMAL), MAX_FINITE, next_down(MAX_FINITE),
            MAX_FINITE / 3, 1.0, 3.0, 0.1, 1.0 / 3.0, 2.0**27 + 1.0, 2.0**-27,
            2.0**53 - 1.0] + _near_guard()


class TestResidualSignPaths:
    """The float (TwoProduct) and integer paths of the three residual signs
    agree with exact rational signs, seeded so every run checks the same
    operands."""

    RANDOM_COUNT = 6000

    @staticmethod
    def _operands(seed: int):
        rng = random.Random(seed)
        corpus = _residual_corpus()
        near_guard = _near_guard()
        pairs = [(a, b) for a in corpus for b in corpus]
        for _ in range(TestResidualSignPaths.RANDOM_COUNT):
            # exponents over the whole range, so both paths run
            a = math.ldexp(rng.random() + 0.5, rng.randint(-1074, 1023))
            b = math.ldexp(rng.random() + 0.5, rng.randint(-1074, 1023))
            pairs.append((a, b))
            # a product or quotient that lands next to a guard bound
            t = rng.choice(near_guard)
            pairs.append((a, t / a))
            pairs.append((a * t, a))
        for k in (-600, -520, -486, -485, -460, -451, -450, -449, 0, 449, 450, 451, 500):
            # a residual of one unit in the 106th bit: 2**(2k-104), which
            # underflows for k < -485 when computed in floats
            one_up = math.ldexp(1.0 + 2.0**-52, k)
            pairs.append((one_up, one_up))
            pairs.append((one_up, math.ldexp(1.0 - 2.0**-53, k)))
            pairs.append((one_up * one_up, one_up))
        for _ in range(500):
            # exact products and quotients: small integers times powers of 2
            m, n = rng.randint(1, 2**20), rng.randint(1, 2**20)
            ea, eb = rng.randint(-600, 500), rng.randint(-600, 500)
            pairs.append((math.ldexp(m, ea), math.ldexp(n, eb)))
            pairs.append((math.ldexp(m * n, ea), math.ldexp(n, eb)))
        signed = []
        for a, b in pairs:
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            signed.append((a, b))
            signed.append((-a, b))
            signed.append((a, -b))
        return signed

    def test_product_sign(self):
        checked = guarded = 0
        for a, b in self._operands(101):
            p = a * b
            if math.isinf(p):
                continue
            residual = Fraction(a) * Fraction(b) - Fraction(p)
            assert prod_residual_sign(a, b, p) == _sign(residual), (a, b)
            if all(2.0**-900 < abs(v) < 2.0**900 for v in (a, b, p)):
                # inside the guard the float error term is the exact residual
                assert Fraction(fpcore._two_product_error(a, b, p)) == residual, (a, b)
                guarded += 1
            checked += 1
        assert checked > 20000 and 0 < guarded < checked

    def test_quotient_sign(self):
        checked = 0
        for a, b in self._operands(202):
            if b == 0.0:
                continue
            q = a / b
            if math.isinf(q):
                continue
            residual = Fraction(a) / Fraction(b) - Fraction(q)
            assert quot_residual_sign(a, b, q) == _sign(residual), (a, b)
            checked += 1
        assert checked > 20000

    def test_square_root_sign(self):
        xs = {abs(a) for a, _ in self._operands(303)}
        xs |= {x * x for x in _residual_corpus() if math.isfinite(x * x) and x * x > 0.0}
        for x in xs:
            r = math.sqrt(x)
            assert sqrt_residual_sign(x, r) == _sign(Fraction(x) - Fraction(r) ** 2), x


class TestDecimalForm:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.0, "0"),
            (-0.0, "-0.0"),
            (3.0, "3"),
            (-17.0, "-17"),
            (0.1, "0.1"),
            (1e16, "1e+16"),
            (math.inf, "+inf"),
            (-math.inf, "-inf"),
            (QNAN, "qnan"),
            (SNAN, "snan"),
        ],
    )
    def test_examples(self, value, text):
        assert decimal_form(value) == text

    @given(finite_floats())
    def test_round_trips(self, x):
        assert float(decimal_form(x)) == x
