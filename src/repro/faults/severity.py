"""SDC severity: how *wrong* is a corrupted output?

The paper's three-way classification treats every SDC alike; protection
studies usually also care about output quality (a 1-ulp wobble in one
element vs a NaN-poisoned matrix).  :class:`SeverityInjector` wraps a
:class:`~repro.faults.injector.FaultInjector` and, for runs that complete,
quantifies the output deviation:

* ``corrupted_elements`` — elements differing from golden;
* ``max_rel_error`` — worst relative deviation over float outputs
  (``inf`` when NaN/Inf appears where the golden value was finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .injector import FaultInjector
from .model import InjectionSpec
from .outcome import Outcome
from .site import FaultSite


@dataclass(frozen=True)
class InjectionRecord:
    """One injection's outcome plus its output-quality impact."""

    site: FaultSite
    outcome: Outcome
    corrupted_elements: int = 0
    total_elements: int = 0
    max_rel_error: float = 0.0

    @property
    def corruption_fraction(self) -> float:
        if self.total_elements == 0:
            return 0.0
        return self.corrupted_elements / self.total_elements


class SeverityInjector:
    """Outcome classification augmented with output-deviation metrics."""

    def __init__(self, injector: FaultInjector) -> None:
        self._injector = injector
        instance = injector.instance
        golden = injector._golden_memory
        self._golden_outputs = instance.read_outputs(golden)

    def inject(self, site: FaultSite) -> InjectionRecord:
        injector = self._injector
        outcome = injector.inject(site)
        if outcome is not Outcome.SDC:
            total = sum(buf.count for buf in injector.instance.outputs)
            return InjectionRecord(
                site=site, outcome=outcome, total_elements=total
            )

        faulty = self._faulty_outputs(site)
        corrupted = 0
        total = 0
        worst = 0.0
        for name, golden in self._golden_outputs.items():
            got = faulty[name]
            total += golden.size
            differs = got != golden.ravel()
            corrupted += int(np.count_nonzero(differs))
            if np.issubdtype(golden.dtype, np.floating):
                worst = max(worst, _max_rel_error(golden.ravel(), got))
            elif np.any(differs):
                worst = max(worst, 1.0)
        return InjectionRecord(
            site=site,
            outcome=outcome,
            corrupted_elements=corrupted,
            total_elements=total,
            max_rel_error=worst,
        )

    def _faulty_outputs(self, site: FaultSite) -> dict[str, np.ndarray]:
        """Outputs of the reference full-grid run (the site is an SDC, so
        the run completes)."""
        injector = self._injector
        memory = injector.instance.initial_memory.snapshot()
        injector._execute(
            memory,
            site.thread,
            InjectionSpec(site.dyn_index, site.bit),
            max_steps=max(injector._cta_budget),
        )
        return injector.instance.read_outputs(memory)


def _max_rel_error(golden: np.ndarray, faulty: np.ndarray) -> float:
    worst = 0.0
    for g, f in zip(golden.astype(np.float64), faulty.astype(np.float64)):
        if g == f or (math.isnan(g) and math.isnan(f)):
            continue
        if not math.isfinite(f):
            return math.inf
        scale = max(abs(g), 1e-12)
        worst = max(worst, abs(f - g) / scale)
    return worst
