"""Two's-complement fixed-point arithmetic substrate.

See :mod:`repro.fixedpoint.qformat` for the format model and
:mod:`repro.fixedpoint.ops` for the bit-exact wrap arithmetic and the
word-level carry and cell-pattern primitives used throughout the fault
model.
"""

from .qformat import Fixed, bit, sign_bit, wrap
from .ops import (
    arith_shift_right,
    carry_in_word,
    cell_pattern_codes,
    wrap_add,
    wrap_sub,
)
from .quantize import dynamic_range_db, quantization_noise_power, quantize_signal

__all__ = [
    "Fixed",
    "bit",
    "sign_bit",
    "wrap",
    "arith_shift_right",
    "carry_in_word",
    "cell_pattern_codes",
    "wrap_add",
    "wrap_sub",
    "quantize_signal",
    "quantization_noise_power",
    "dynamic_range_db",
]
