"""Stage 3 — loop-wise pruning (paper Section III-D, Observation 4).

Most dynamic instructions of the loop-heavy kernels come from loop
iterations (Table VII).  The stage:

1. finds static loops by back-edge analysis of the program (a ``bra``
   whose target label is at or before the branch itself; the target is the
   loop header);
2. segments each thread's dynamic trace into iterations (spans between
   consecutive executions of the header pc), recursively for nested loops;
3. randomly samples ``num_iter`` iterations per loop and prunes the rest,
   scaling the kept iterations' site weights by ``total/kept`` so the loop
   keeps its full contribution to the estimated profile.

The sampled-iteration stability sweep of Fig. 6 is
:func:`iteration_stability_sweep` in :mod:`repro.analysis.loops` territory;
here live the mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.program import Program
from ..gpu.tracing import ThreadTrace, TraceTable


@dataclass(frozen=True)
class StaticLoop:
    """A static loop: body spans instruction indices [header, backedge]."""

    header: int
    backedge: int

    def contains(self, other: "StaticLoop") -> bool:
        return (
            self.header <= other.header
            and other.backedge <= self.backedge
            and self != other
        )

    def covers_pc(self, pc: int) -> bool:
        return self.header <= pc <= self.backedge


@dataclass
class LoopTree:
    """Loops nested under a parent (root uses ``loop=None``)."""

    loop: StaticLoop | None
    children: list["LoopTree"] = field(default_factory=list)


def find_static_loops(program: Program) -> list[StaticLoop]:
    """Back-edge analysis: every ``bra`` targeting itself or earlier."""
    loops = []
    for index, insn in enumerate(program.instructions):
        if insn.op == "bra":
            target = program.target_index(insn.target)
            if target <= index:
                loops.append(StaticLoop(header=target, backedge=index))
    return loops


def build_loop_tree(program: Program) -> LoopTree:
    loops = sorted(find_static_loops(program), key=lambda l: (l.header, -l.backedge))
    root = LoopTree(loop=None)
    stack = [root]
    for loop in loops:
        while (
            stack[-1].loop is not None
            and not stack[-1].loop.contains(loop)
        ):
            stack.pop()
        node = LoopTree(loop=loop)
        stack[-1].children.append(node)
        stack.append(node)
    return root


@dataclass
class IterationSpan:
    """One dynamic iteration of a loop in one thread's trace: [lo, hi)."""

    lo: int
    hi: int


def iteration_spans(
    trace: ThreadTrace, loop: StaticLoop, lo: int, hi: int
) -> list[IterationSpan]:
    """Iterations of ``loop`` inside the dynamic range [lo, hi).

    An iteration runs from one execution of the header pc to the next.
    The final header execution (the failing exit check) is not an
    iteration; its few instructions stay un-pruned.
    """
    header_hits = (np.flatnonzero(trace.pcs[lo:hi] == loop.header) + lo).tolist()
    return [
        IterationSpan(a, b) for a, b in zip(header_hits, header_hits[1:])
    ]


@dataclass
class LoopwisePruning:
    """Per-thread kept dynamic indices with extrapolation multipliers."""

    multipliers: dict[int, dict[int, float]]  # thread -> dyn index -> factor
    loop_iteration_counts: dict[int, dict[StaticLoop, int]]  # thread -> totals

    def kept(self, thread: int) -> dict[int, float]:
        return self.multipliers[thread]


def prune_loops(
    program: Program,
    traces: TraceTable,
    threads: list[int],
    num_iter: int,
    rng: np.random.Generator,
) -> LoopwisePruning:
    """Sample ``num_iter`` iterations of every loop in every given thread."""
    tree = build_loop_tree(program)
    multipliers: dict[int, dict[int, float]] = {}
    totals: dict[int, dict[StaticLoop, int]] = {}

    for thread in threads:
        trace = traces[thread]
        kept: dict[int, float] = {}
        counts: dict[StaticLoop, int] = {}
        _sample_range(trace, tree, 0, len(trace), 1.0, num_iter, rng, kept, counts)
        multipliers[thread] = kept
        totals[thread] = counts
    return LoopwisePruning(multipliers=multipliers, loop_iteration_counts=totals)


def _sample_range(
    trace: ThreadTrace,
    node: LoopTree,
    lo: int,
    hi: int,
    factor: float,
    num_iter: int,
    rng: np.random.Generator,
    kept: dict[int, float],
    counts: dict[StaticLoop, int],
) -> None:
    """Keep sites in [lo, hi); recurse into child loops, sampling spans."""
    covered: list[tuple[int, int]] = []
    for child in node.children:
        loop = child.loop
        spans = iteration_spans(trace, loop, lo, hi)
        if not spans:
            continue
        counts[loop] = counts.get(loop, 0) + len(spans)
        covered.extend((s.lo, s.hi) for s in spans)
        n_keep = min(num_iter, len(spans))
        chosen = rng.choice(len(spans), size=n_keep, replace=False)
        multiplier = factor * len(spans) / n_keep
        for index in sorted(int(i) for i in chosen):
            span = spans[index]
            _sample_range(
                trace, child, span.lo, span.hi, multiplier, num_iter, rng, kept, counts
            )
    # Everything in [lo, hi) not inside a child-loop iteration is kept as-is.
    covered.sort()
    cursor = lo
    for c_lo, c_hi in covered:
        for i in range(cursor, c_lo):
            kept[i] = factor
        cursor = max(cursor, c_hi)
    for i in range(cursor, hi):
        kept[i] = factor


def loop_statistics(
    program: Program, traces: TraceTable
) -> tuple[int, float]:
    """Table VII per-kernel numbers: (#loop iterations, % insns in loops).

    Iteration count follows the paper's convention of the maximum per-thread
    flattened iteration total; the instruction share is over all threads.
    """
    tree = build_loop_tree(program)
    if not tree.children:
        return 0, 0.0
    max_iters = 0
    in_loop = 0
    total = 0
    top_loops = [child.loop for child in tree.children]
    all_loops = find_static_loops(program)
    for trace in traces:
        total += len(trace)
        thread_iters = 0
        for loop in all_loops:
            spans = iteration_spans(trace, loop, 0, len(trace))
            thread_iters += len(spans)
        max_iters = max(max_iters, thread_iters)
        for loop in top_loops:
            for span in iteration_spans(trace, loop, 0, len(trace)):
                in_loop += span.hi - span.lo
    share = 100.0 * in_loop / total if total else 0.0
    return max_iters, share
