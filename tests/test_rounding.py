"""Directed rounding layer: values only, no flags."""

import contextvars
import math
import threading
import zlib

import pytest

import oracles
from liamath.fpcore import MAX_FINITE, MIN_SUBNORMAL, QNAN, SNAN, float_to_bits, sign_bit
from liamath.environment import FpEnvironment, evaluation_context, rounding_mode
from liamath.rounding import (
    RoundingMode,
    add_dir,
    div_dir,
    mul_dir,
    resolve_mode,
    sqrt_dir,
    sub_dir,
)

ZERO = RoundingMode.TO_ZERO
NEAREST = RoundingMode.TO_NEAREST
UP = RoundingMode.TO_POSITIVE_INFINITY
DOWN = RoundingMode.TO_NEGATIVE_INFINITY
NE = RoundingMode.TO_NEAREST_EVEN
ALL_MODES = (ZERO, NE, UP, DOWN)


class TestModeCodes:
    def test_interchange_codes(self):
        assert RoundingMode.INDETERMINATE == -1
        assert RoundingMode.TO_ZERO == 0
        assert RoundingMode.TO_NEAREST == 1
        assert RoundingMode.TO_POSITIVE_INFINITY == 2
        assert RoundingMode.TO_NEGATIVE_INFINITY == 3
        assert RoundingMode.TO_NEAREST_EVEN == 4

    def test_resolve(self):
        assert resolve_mode(3) is DOWN
        assert resolve_mode(None) is NE  # ambient default
        with pytest.raises(ValueError):
            resolve_mode(RoundingMode.INDETERMINATE)
        with pytest.raises(ValueError):
            resolve_mode(99)

    def test_labels(self):
        assert NE.label == "nearest-even"
        assert UP.label == "positive-infinity"
        assert RoundingMode.INDETERMINATE.label == "indeterminate"

    def test_nearest_is_an_alias_of_nearest_even(self):
        for a, b in [(0.1, 0.2), (1.0, 2.0**-53), (1.5, MIN_SUBNORMAL)]:
            assert add_dir(a, b, NEAREST) == add_dir(a, b, NE)


class TestAddDir:
    def test_tenth_plus_two_tenths(self):
        assert add_dir(0.1, 0.2, DOWN) == 0.3
        assert add_dir(0.1, 0.2, UP) == 0.30000000000000004
        assert add_dir(0.1, 0.2, NE) == 0.30000000000000004
        assert add_dir(0.1, 0.2, ZERO) == 0.3

    def test_exact_doubling_is_mode_independent(self):
        two_pi = float_to_bits(2 * math.pi)
        for mode in ALL_MODES:
            assert float_to_bits(add_dir(math.pi, math.pi, mode)) == two_pi

    def test_exact_zero_sum_signs(self):
        assert not sign_bit(add_dir(1.0, -1.0, UP))
        assert not sign_bit(add_dir(1.0, -1.0, NE))
        assert not sign_bit(add_dir(1.0, -1.0, ZERO))
        assert sign_bit(add_dir(1.0, -1.0, DOWN))

    def test_same_signed_zero_operands_keep_their_sign(self):
        assert not sign_bit(add_dir(0.0, 0.0, DOWN))
        assert sign_bit(add_dir(-0.0, -0.0, UP))
        assert sign_bit(add_dir(0.0, -0.0, DOWN))
        assert not sign_bit(add_dir(0.0, -0.0, UP))

    def test_overflow_edges(self):
        assert add_dir(MAX_FINITE, MAX_FINITE, UP) == math.inf
        assert add_dir(MAX_FINITE, MAX_FINITE, NE) == math.inf
        assert add_dir(MAX_FINITE, MAX_FINITE, DOWN) == MAX_FINITE
        assert add_dir(MAX_FINITE, MAX_FINITE, ZERO) == MAX_FINITE
        assert add_dir(-MAX_FINITE, -MAX_FINITE, DOWN) == -math.inf
        assert add_dir(-MAX_FINITE, -MAX_FINITE, UP) == -MAX_FINITE

    def test_specials_pass_through(self):
        assert add_dir(math.inf, 1.0, DOWN) == math.inf
        assert math.isnan(add_dir(math.inf, -math.inf, UP))
        assert math.isnan(add_dir(QNAN, 1.0, UP))


class TestSubDir:
    def test_cancellation_sign(self):
        assert sign_bit(sub_dir(1.0, 1.0, DOWN))
        assert not sign_bit(sub_dir(1.0, 1.0, UP))

    def test_sterbenz_difference_is_exact(self):
        assert sub_dir(0.3, 0.1, DOWN) == sub_dir(0.3, 0.1, UP) == 0.19999999999999998

    def test_directed_difference(self):
        assert sub_dir(1.0, 0.1, DOWN) == 0.8999999999999999
        assert sub_dir(1.0, 0.1, UP) == 0.9
        assert math.isnan(sub_dir(math.inf, math.inf, NE))


class TestMulDir:
    def test_directed_square(self):
        lo = mul_dir(0.1, 0.1, DOWN)
        hi = mul_dir(0.1, 0.1, UP)
        assert lo == 0.01 and hi == 0.010000000000000002
        assert mul_dir(0.1, 0.1, NE) == hi
        assert mul_dir(0.1, 0.1, ZERO) == lo

    def test_subnormal_halving(self):
        # exact result sits exactly between 0 and the least subnormal
        assert mul_dir(MIN_SUBNORMAL, 0.5, UP) == MIN_SUBNORMAL
        assert mul_dir(MIN_SUBNORMAL, 0.5, DOWN) == 0.0
        assert mul_dir(MIN_SUBNORMAL, 0.5, ZERO) == 0.0
        assert mul_dir(MIN_SUBNORMAL, 0.5, NE) == 0.0  # tie to even
        assert mul_dir(-MIN_SUBNORMAL, 0.5, DOWN) == -MIN_SUBNORMAL
        assert mul_dir(-MIN_SUBNORMAL, 0.5, UP) == -0.0

    def test_zero_product_signs(self):
        assert sign_bit(mul_dir(-0.0, 5.0, DOWN))
        assert sign_bit(mul_dir(0.0, -5.0, UP))
        assert not sign_bit(mul_dir(-0.0, -5.0, DOWN))

    def test_overflow_edges(self):
        assert mul_dir(MAX_FINITE, 2.0, UP) == math.inf
        assert mul_dir(MAX_FINITE, 2.0, ZERO) == MAX_FINITE
        assert mul_dir(-MAX_FINITE, 2.0, UP) == -MAX_FINITE
        assert mul_dir(-MAX_FINITE, 2.0, DOWN) == -math.inf

    def test_specials(self):
        assert math.isnan(mul_dir(0.0, math.inf, NE))
        assert mul_dir(math.inf, -2.0, NE) == -math.inf


class TestDivDir:
    def test_division_by_zero_values(self):
        assert div_dir(1.0, 0.0, NE) == math.inf
        assert div_dir(-1.0, 0.0, NE) == -math.inf
        assert div_dir(1.0, -0.0, NE) == -math.inf
        assert div_dir(math.inf, 0.0, NE) == math.inf
        assert math.isnan(div_dir(0.0, 0.0, NE))

    def test_infinite_operands(self):
        assert math.isnan(div_dir(math.inf, math.inf, NE))
        assert div_dir(math.inf, -2.0, NE) == -math.inf
        assert div_dir(1.0, math.inf, NE) == 0.0
        assert sign_bit(div_dir(-1.0, math.inf, NE))

    def test_directed_thirds(self):
        lo = div_dir(1.0, 3.0, DOWN)
        hi = div_dir(1.0, 3.0, UP)
        assert lo == 1.0 / 3.0          # RN(1/3) is below the exact value
        assert hi == math.nextafter(lo, math.inf)
        assert div_dir(1.0, 3.0, ZERO) == lo
        assert div_dir(-1.0, 3.0, ZERO) == -lo

    def test_nan_propagation_quiets(self):
        out = div_dir(SNAN, 1.0, NE)
        assert math.isnan(out)
        from liamath.fpcore import is_signaling

        assert not is_signaling(out)


class TestSqrtDir:
    def test_sqrt_two(self):
        assert sqrt_dir(2.0, DOWN) == 1.414213562373095
        assert sqrt_dir(2.0, UP) == 1.4142135623730951
        assert sqrt_dir(2.0, NE) == 1.4142135623730951
        assert sqrt_dir(2.0, ZERO) == 1.414213562373095

    def test_exact_square(self):
        for mode in ALL_MODES:
            assert sqrt_dir(4.0, mode) == 2.0

    def test_specials(self):
        assert sqrt_dir(0.0, NE) == 0.0 and not sign_bit(sqrt_dir(0.0, NE))
        assert sign_bit(sqrt_dir(-0.0, NE))
        assert math.isnan(sqrt_dir(-1.0, NE))
        assert sqrt_dir(math.inf, NE) == math.inf
        assert math.isnan(sqrt_dir(QNAN, NE))


class TestNanBits:
    def test_nan_results_keep_the_host_bits(self):
        # The *_dir functions return the NaN the host arithmetic makes, which
        # the notifying layer replaces with the canonical QNAN.  For sub,
        # 1.0 - x and 1.0 + (-x) differ in the NaN sign bit, so sub must not
        # reuse add on this path.
        inf = math.inf
        cases = [
            (sub_dir, (1.0, QNAN), 1.0 - QNAN),
            (sub_dir, (1.0, -QNAN), 1.0 - (-QNAN)),
            (add_dir, (inf, -inf), inf + -inf),
            (mul_dir, (inf, 0.0), inf * 0.0),
            (add_dir, (SNAN, 1.0), SNAN + 1.0),
        ]
        for fn, args, host in cases:
            for mode in ALL_MODES:
                assert float_to_bits(fn(*args, mode)) == float_to_bits(host), (fn, args, mode)


class TestAmbientMode:
    def test_mode_argument_none_reads_the_environment(self):
        with evaluation_context():
            assert add_dir(0.1, 0.2) == 0.30000000000000004
            with rounding_mode(DOWN):
                assert add_dir(0.1, 0.2) == 0.3
            assert add_dir(0.1, 0.2) == 0.30000000000000004


class TestResolveMode:
    """resolve_mode's contract: what it accepts, what it rejects and with
    which message, and where None reads the ambient mode."""

    @pytest.mark.parametrize(
        "spelling",
        [ZERO, NEAREST, UP, DOWN, NE, 0, 1, 2, 3, 4, True, False, 2.0],
        ids=repr,
    )
    def test_accepted_spellings(self, spelling):
        assert resolve_mode(spelling) is RoundingMode(spelling)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (-1, "indeterminate is not an operational rounding mode"),
            (5, "5 is not a valid RoundingMode"),
            (1.5, "1.5 is not a valid RoundingMode"),
            ("x", "'x' is not a valid RoundingMode"),
            ([1], "[1] is not a valid RoundingMode"),
        ],
        ids=repr,
    )
    def test_rejected_inputs(self, bad, message):
        with pytest.raises(ValueError) as info:
            resolve_mode(bad)
        assert str(info.value) == message

    def test_none_reads_the_innermost_scope(self):
        assert resolve_mode(None) is NE
        with rounding_mode(UP):
            assert resolve_mode(None) is UP
            with rounding_mode(ZERO):
                assert resolve_mode(None) is ZERO
            assert resolve_mode(None) is UP
        assert resolve_mode(None) is NE

    def test_none_coerces_an_int_environment_mode(self):
        with evaluation_context(FpEnvironment(mode=3)):
            assert resolve_mode(None) is DOWN

    def test_none_in_a_fresh_thread(self):
        seen = []

        def probe():
            seen.append(resolve_mode(None))
            with rounding_mode(DOWN):
                seen.append(resolve_mode(None))

        with rounding_mode(UP):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert resolve_mode(None) is UP
        assert seen == [NE, DOWN]

    def test_none_under_a_copied_context(self):
        def probe():
            outer = resolve_mode(None)
            with evaluation_context():
                return outer, resolve_mode(None)

        with rounding_mode(ZERO):
            assert contextvars.copy_context().run(probe) == (ZERO, NE)
            assert resolve_mode(None) is ZERO


class TestAgainstOracle:
    """Small-scale spot check; the acceptance suite runs the big one."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_directed_matches_rational_oracle(self, op):
        impl = {"add": add_dir, "sub": sub_dir, "mul": mul_dir, "div": div_dir}[op]
        orc = oracles.ORACLES[op]
        for a, b in oracles.sample_pairs(op, 1500, seed=zlib.crc32(op.encode())):
            for mode in ALL_MODES:
                got = impl(a, b, mode)
                want = orc(a, b, mode)
                assert oracles.bits(got) == oracles.bits(want), (
                    f"{op} {mode.name} a={a.hex()} b={b.hex()} "
                    f"got={got.hex()} want={want.hex()}"
                )

    def test_sqrt_matches_integer_oracle(self):
        import random

        rng = random.Random(7)
        for _ in range(800):
            x = abs(oracles.random_double(rng))
            if x == 0.0 or math.isinf(x):
                continue
            for mode in ALL_MODES:
                got = sqrt_dir(x, mode)
                want = oracles.oracle_sqrt(x, mode)
                assert oracles.bits(got) == oracles.bits(want), (
                    f"sqrt {mode.name} x={x.hex()} got={got.hex()} want={want.hex()}"
                )
