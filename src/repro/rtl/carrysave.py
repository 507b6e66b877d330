"""Carry-save accumulation architecture.

Section 3 of the paper: "Carry-save adder arrays are a higher-performance
alternative that come at the cost of doubling the number of registers in
the design ... the analysis is more complex in the case of carry-save
arrays".  This module provides that alternative so the testability
comparison can actually be run (see ``benchmarks/bench_ablation_arch.py``).

The accumulation chain keeps the running sum as a redundant pair
``(S, C)`` with value ``S + C (mod 2**W)``.  Each CSD digit folds in via
one rank of 3:2 compressors (full adders, one per bit, *no carry ripple*)::

    S' = S xor C xor T~
    C' = (majority(S, C, T~) << 1) | inject

where ``T~`` is the (possibly complemented) shifted input copy and
``inject`` carries the +1 of a two's-complement subtraction into the
freed LSB carry slot.  Both vectors are registered between taps — twice
the register bits of the ripple-carry chain — and a final ripple-carry
*vector-merge* adder resolves ``y = S + C``.

Every compressor bit cell is a full adder, so the cell-level fault
dictionary of :mod:`repro.gates.cells` applies unchanged; the top cell's
carry-out is architecturally dropped (the ``msb`` variant), and unlike the
ripple chain the bit-0 cell has *three* live inputs (``full`` variant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..csd import MultiplierPlan, plan_multiplier, quantize_filter
from ..errors import DesignError, SimulationError
from ..fixedpoint import Fixed, carry_in_word, wrap
from .build import design_from_coefficients  # noqa: F401  (doc cross-ref)

__all__ = ["CsaStage", "CarrySaveFir", "carry_save_from_coefficients"]

#: Observer signature: (stage_id, width, a, b, c) with each cell-input
#: word shaped (T,); bit ``k`` of each word feeds the bit-``k`` cell.
StageObserver = Callable[[int, int, np.ndarray, np.ndarray, np.ndarray],
                         None]


@dataclass(frozen=True)
class CsaStage:
    """One 3:2 compressor rank: folds one CSD digit into the chain.

    ``delays_before`` is the number of (S, C) register pairs the chain
    passes through before this digit folds in: 1 at each tap boundary,
    more when zero-coefficient taps contribute registers but no
    compressor rank.
    """

    stage_id: int
    tap: int
    shift: int
    subtract: bool
    delays_before: int


@dataclass
class CarrySaveFir:
    """A carry-save transposed-form FIR accumulation chain."""

    name: str
    input_fmt: Fixed
    fmt: Fixed  # uniform (S, C) vector format
    coefficients: np.ndarray
    stages: List[CsaStage]
    #: Register pairs between the last compressor rank and the merger.
    trailing_delays: int = 0

    #: Stage id reserved for the final vector-merge ripple adder.
    MERGE_ID = -1

    @property
    def register_pairs(self) -> int:
        """(S, C) register pairs along the chain."""
        return (sum(s.delays_before for s in self.stages)
                + self.trailing_delays)

    @property
    def register_bits(self) -> int:
        """Total register bits — twice the ripple-carry chain's."""
        return 2 * self.fmt.width * self.register_pairs

    @property
    def compressor_count(self) -> int:
        return len(self.stages)

    @property
    def operator_count(self) -> int:
        """Compressor ranks plus the vector-merge adder."""
        return len(self.stages) + 1

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        input_raw: Sequence[int],
        observer: Optional[StageObserver] = None,
        keep_stages: bool = False,
    ) -> Dict[str, object]:
        """Bit-true simulation over a whole input sequence.

        Returns ``{"output": raw output, "stages": {...}}``; the observer
        receives each compressor rank's cell input words (``a = S``,
        ``b = C``, ``c = T~``) and finally the merge adder's ``(S, C)``
        with the carry word of ``S + C`` under ``MERGE_ID``.
        """
        raw = np.asarray(input_raw, dtype=np.int64)
        if raw.ndim != 1:
            raise SimulationError("input must be a 1-D sequence")
        if not self.input_fmt.contains(raw):
            raise SimulationError("input exceeds the input format range")
        width = self.fmt.width
        e_base = self.fmt.frac - self.input_fmt.frac
        length = len(raw)
        s = np.zeros(length, dtype=np.int64)
        c = np.zeros(length, dtype=np.int64)
        kept: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for stage in self.stages:
            for _ in range(stage.delays_before):
                s = _delay(s)
                c = _delay(c)
            e = e_base - stage.shift
            term = (raw << e) if e >= 0 else (raw >> -e)
            term = self.fmt.wrap(term)
            if stage.subtract:
                term = ~term
            if observer is not None:
                observer(stage.stage_id, width, s, c, term)
            s, c = _compress(s, c, term, width,
                             inject=1 if stage.subtract else 0)
            if keep_stages:
                kept[stage.stage_id] = (s, c)
        for _ in range(self.trailing_delays):
            s = _delay(s)
            c = _delay(c)
        if observer is not None:
            observer(self.MERGE_ID, width, s, c, carry_in_word(s, c, 0))
        output = self.fmt.wrap(s + c)
        result: Dict[str, object] = {"output": output}
        if keep_stages:
            result["stages"] = kept
        return result

    def value_after_stage(self, stage_id: int, input_raw) -> np.ndarray:
        """Normalized represented value S+C after one stage (analysis aid)."""
        sim = self.simulate(input_raw, keep_stages=True)
        s, c = sim["stages"][stage_id]
        return self.fmt.normalize(self.fmt.wrap(s + c))


def _delay(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    out[0] = 0
    out[1:] = x[:-1]
    return out


def _compress(s, c, t, width: int, inject: int) -> Tuple[np.ndarray, np.ndarray]:
    """One 3:2 compressor rank on W-bit two's-complement words."""
    new_s = wrap(s ^ c ^ t, width)
    carries = (s & c) | (t & (s ^ c))
    new_c = wrap((carries << 1) | inject, width)
    return new_s, new_c


def carry_save_from_coefficients(
    coefficients: Sequence[float],
    name: str = "csa-fir",
    input_fmt: Fixed = Fixed(12, 11),
    acc_frac: int = 15,
    width: int = 16,
    coef_frac: int = 15,
    max_nonzeros: int = 4,
    scale: bool = True,
    scale_margin: float = 0.99,
) -> CarrySaveFir:
    """Quantize coefficients and build the carry-save chain.

    Mirrors :func:`repro.rtl.build.design_from_coefficients` so ripple
    and carry-save realizations of the *same* filter can be compared.
    """
    coefs = np.asarray(coefficients, dtype=np.float64)
    if scale:
        l1 = float(np.sum(np.abs(coefs)))
        if l1 <= 0:
            raise DesignError("cannot scale an all-zero coefficient vector")
        coefs = coefs * (scale_margin / l1)
    quantized = quantize_filter(coefs, frac=coef_frac,
                                max_nonzeros=max_nonzeros)
    plans: List[MultiplierPlan] = [plan_multiplier(q) for q in quantized]
    if all(p.is_zero for p in plans):
        raise DesignError("all coefficients are zero")

    stages: List[CsaStage] = []
    stage_id = 0
    m = len(plans)
    pending = 0  # register pairs owed since the last compressor rank
    started = False  # chain is identically zero until the first rank
    for k in range(m - 1, -1, -1):  # far end of the chain first
        plan = plans[k]
        sign = -1 if plan.negate else 1
        for term in plan.terms:
            stages.append(CsaStage(
                stage_id=stage_id, tap=k, shift=term.shift,
                subtract=(sign * term.sign) < 0,
                delays_before=pending if started else 0,
            ))
            pending = 0
            started = True
            stage_id += 1
        if k != 0:
            pending += 1  # the tap-boundary register pair
    return CarrySaveFir(
        name=name,
        input_fmt=input_fmt,
        fmt=Fixed(width, acc_frac),
        coefficients=np.array([q.value for q in quantized]),
        stages=stages,
        trailing_delays=pending,
    )
