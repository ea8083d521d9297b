"""liamath: a language-independent-arithmetic kernel for binary64.

Directed rounding without touching hardware modes, a floating-point
environment with recording/error/terminating notification styles, trap
scopes with resumable handlers, partial-order comparisons, and an
endpoint interval layer, all bit-exact and pure Python.
"""

from .fpcore import (
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
    quot_residual_sign,
    sign_bit,
    sqrt_residual_sign,
    two_sum,
)
from .rounding import (
    RoundingMode,
    add_dir,
    div_dir,
    mul_dir,
    sqrt_dir,
    sub_dir,
)
from .environment import (
    CLEAR,
    Continue,
    DEFAULT,
    DivisionByZeroNotification,
    EnvSnapshot,
    EvalContext,
    FloatingPointNotification,
    FpEnvironment,
    HandlerClause,
    Indicator,
    InexactNotification,
    InvalidOperationNotification,
    NotificationStyle,
    OverflowNotification,
    RERAISE,
    RaiseNew,
    TrapOptions,
    UnderflowNotification,
    current_environment,
    current_notification_style,
    current_rounding_mode,
    evaluation_context,
    notification_style,
    notify,
    rounding_mode,
    set_notification_style,
    set_rounding_mode,
    trap_math,
)
from .ops import add, div, eq, mul, neq, sqrt, sub
from .interval import (
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
from .conformance import ConformanceDescriptor, describe_conformance

__version__ = "0.1.0"
