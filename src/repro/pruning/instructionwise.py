"""Stage 2 — instruction-wise pruning (paper Section III-C, Observation 3).

Representative threads picked by stage 1 often execute large identical
instruction subsequences (the SIMT common blocks of Fig. 5).  Faults in a
common block behave alike across the threads sharing it (Table V), so the
block is injected once — in a *donor* thread — and the other threads'
matching dynamic instructions are pruned, transferring their extrapolation
weight onto the donor's sites.

Matching is performed on the structural identity of the dynamic
instruction stream (:func:`repro.gpu.tracing.static_key_sequence`) with
``difflib.SequenceMatcher``, donor = the previously processed
representative with the highest match ratio.  Kernels whose
representatives share too little code (ratio below ``min_common_fraction``)
are left untouched, mirroring the paper's "not suitable /not applicable"
rows in Table VI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import SequenceMatcher

from ..gpu.program import Program
from ..gpu.tracing import TraceTable, static_key_sequence


@dataclass(frozen=True)
class BorrowedBlock:
    """A common block of ``size`` dynamic instructions.

    Thread ``thread``'s instructions [lo, lo+size) are pruned; outcomes are
    borrowed from donor's [donor_lo, donor_lo+size).
    """

    thread: int
    lo: int
    donor: int
    donor_lo: int
    size: int


@dataclass
class InstructionwisePruning:
    """Per-representative kept/borrowed partition of dynamic instructions."""

    kept: dict[int, list[tuple[int, int]]]  # thread -> [lo, hi) ranges kept
    borrowed: list[BorrowedBlock] = field(default_factory=list)
    applicable: bool = True

    def kept_indices(self, thread: int) -> list[int]:
        return [i for lo, hi in self.kept[thread] for i in range(lo, hi)]

    def pruned_dyn_count(self) -> int:
        return sum(b.size for b in self.borrowed)

    def common_fraction(self, traces: TraceTable) -> float:
        """Fraction of representative dynamic instructions pruned."""
        total = sum(len(traces[t]) for t in self.kept)
        if total == 0:
            return 0.0
        return self.pruned_dyn_count() / total


#: Threads shorter than this may only be pruned against an *identical*
#: donor.  The paper excludes Gaussian K1/K2-style kernels from this stage
#: because a representative "with very few instructions (i.e., less than
#: 10)" shares only a prologue with the long thread — and a fault in a
#: shared prologue instruction behaves very differently when the
#: downstream control flow differs (an idle thread's corrupted index is
#: harmless; an active thread's corrupts its output address).
MIN_PARTIAL_ICNT = 10


def prune_instructions(
    program: Program,
    traces: TraceTable,
    representatives: list[int],
    min_common_fraction: float = 0.3,
    min_block: int = 4,
    min_partial_icnt: int = MIN_PARTIAL_ICNT,
) -> InstructionwisePruning:
    """Find common blocks among representatives and prune the copies.

    Args:
        representatives: global thread ids from stage 1.
        min_common_fraction: a thread is only pruned against a donor when
            at least this fraction of its instructions match — below it the
            kernel "does not exhibit instruction commonality" (Table VI).
        min_block: ignore matching runs shorter than this many dynamic
            instructions (tiny coincidental matches are not SIMT blocks).
        min_partial_icnt: threads shorter than this are only pruned when
            their *entire* sequence equals the donor's (paper Section
            III-C's "not applicable" rule for short representatives).
    """
    order = sorted(representatives, key=lambda t: len(traces[t]), reverse=True)
    keys = {t: static_key_sequence(program, traces[t]) for t in order}

    kept: dict[int, list[tuple[int, int]]] = {}
    borrowed: list[BorrowedBlock] = []
    donors: list[int] = []

    for thread in order:
        if not donors:
            kept[thread] = [(0, len(traces[thread]))]
            donors.append(thread)
            continue
        best_donor, best_blocks, best_matched = None, None, 0
        for donor in donors:
            matcher = SequenceMatcher(a=keys[donor], b=keys[thread], autojunk=False)
            blocks = [b for b in matcher.get_matching_blocks() if b.size >= min_block]
            matched = sum(b.size for b in blocks)
            if matched > best_matched:
                best_donor, best_blocks, best_matched = donor, blocks, matched
        own_len = len(traces[thread])
        identical = (
            best_donor is not None
            and best_matched == own_len == len(traces[best_donor])
        )
        partial_ok = (
            own_len >= min_partial_icnt
            and own_len > 0
            and best_matched / own_len >= min_common_fraction
        )
        if not identical and not partial_ok:
            kept[thread] = [(0, own_len)]
            donors.append(thread)
            continue
        # Prune matched ranges; keep the gaps.
        kept_ranges: list[tuple[int, int]] = []
        cursor = 0
        for block in best_blocks:
            if block.b > cursor:
                kept_ranges.append((cursor, block.b))
            borrowed.append(
                BorrowedBlock(
                    thread=thread,
                    lo=block.b,
                    donor=best_donor,
                    donor_lo=block.a,
                    size=block.size,
                )
            )
            cursor = block.b + block.size
        if cursor < own_len:
            kept_ranges.append((cursor, own_len))
        kept[thread] = kept_ranges
        donors.append(thread)

    applicable = bool(borrowed)
    return InstructionwisePruning(kept=kept, borrowed=borrowed, applicable=applicable)
