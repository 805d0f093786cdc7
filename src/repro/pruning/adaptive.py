"""Adaptive loop-iteration sampling (paper Section III-D, closing remark).

The paper does not fix ``num_iter`` a priori: *"we randomly add iterations
one by one, until the result is stable"* (3-15 across kernels, mean 7.22).
:func:`stable_loop_iterations` automates that: it sweeps ``num_iter``
upward, estimating the kernel profile at each step over the pipeline's
pruned space, and stops when ``patience`` consecutive steps move the
distribution by less than ``epsilon`` percentage points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..faults.injector import FaultInjector
from ..faults.outcome import ResilienceProfile
from .progressive import ProgressivePruner, PrunedSpace


@dataclass
class StabilitySweep:
    """Outcome of the adaptive search."""

    chosen_num_iter: int
    profiles: dict[int, ResilienceProfile] = field(default_factory=dict)
    spaces: dict[int, PrunedSpace] = field(default_factory=dict)

    @property
    def chosen_profile(self) -> ResilienceProfile:
        return self.profiles[self.chosen_num_iter]

    @property
    def chosen_space(self) -> PrunedSpace:
        return self.spaces[self.chosen_num_iter]

    def history(self) -> list[tuple[int, ResilienceProfile]]:
        return sorted(self.profiles.items())


def stable_loop_iterations(
    injector: FaultInjector,
    epsilon: float = 2.0,
    patience: int = 2,
    start: int = 1,
    max_iter: int = 15,
    pruner: ProgressivePruner | None = None,
) -> StabilitySweep:
    """Grow the loop sample until the estimated profile stabilises.

    Args:
        epsilon: maximum percentage-point movement (over masked/sdc/other)
            still considered "stable".
        patience: consecutive stable steps required before stopping.
        start / max_iter: sweep bounds (the paper observed 3-15).
        pruner: pipeline configuration to reuse; its ``num_loop_iters`` is
            overridden per step. Defaults to ``ProgressivePruner()``.
    """
    base = pruner if pruner is not None else ProgressivePruner()
    sweep = StabilitySweep(chosen_num_iter=max_iter)
    previous: ResilienceProfile | None = None
    stable_streak = 0

    for num_iter in range(start, max_iter + 1):
        step_pruner = replace(base, num_loop_iters=num_iter, enable_loopwise=True)
        space = step_pruner.prune(injector)
        profile = space.estimate_profile(injector)
        sweep.spaces[num_iter] = space
        sweep.profiles[num_iter] = profile

        if previous is not None and profile.max_abs_error(previous) < epsilon:
            stable_streak += 1
            if stable_streak >= patience:
                sweep.chosen_num_iter = num_iter
                return sweep
        else:
            stable_streak = 0
        previous = profile

    sweep.chosen_num_iter = max(sweep.profiles)
    return sweep
