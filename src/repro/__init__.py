"""repro — Fault-Site Pruning for Practical Reliability Analysis of GPGPU
Applications (MICRO 2018), reproduced in Python.

Quickstart::

    from repro import FaultInjector, ProgressivePruner, load_instance

    instance = load_instance("gemm.k1")          # staged workload
    injector = FaultInjector(instance)            # golden run + traces
    pruned = ProgressivePruner().prune(injector)  # 4-stage pruning
    profile = pruned.estimate_profile(injector)   # weighted exhaustive run
    print(profile)                                # masked/sdc/other %

The execution backend defaults to ``backend="auto"``: the vectorized
backend for CTAs of 128 or more threads, the compiled backend for
narrower ones (``injector.backend`` holds the resolved name).  Outcomes
are identical on every backend; pass ``backend="interpreter"`` for the
reference interpreter the equivalence tests compare against.

Layers (bottom-up):

* :mod:`repro.gpu`      — functional SIMT simulator (PTXPlus-flavoured ISA)
* :mod:`repro.kernels`  — the 11 Rodinia/Polybench applications (17 kernels)
* :mod:`repro.faults`   — single-bit-flip injection + outcome classification
* :mod:`repro.stats`    — statistical-injection sample sizing (Eqs. 2-4)
* :mod:`repro.pruning`  — the paper's progressive 4-stage pruning
* :mod:`repro.analysis` — grouping analytics and table/figure data
* :mod:`repro.telemetry` — events, metrics (timings included), manifests
"""

from .errors import (
    FaultInjectionError,
    HangDetected,
    InvalidProgram,
    KernelAuthoringError,
    MemoryFault,
    PruningError,
    ReproError,
    SimulatorError,
)
from .faults import (
    CoherenceAudit,
    FaultInjector,
    GoldenState,
    FaultSite,
    FaultSpace,
    Outcome,
    PropagationRecord,
    PropagationTracer,
    ResilienceProfile,
    exhaustive_campaign,
    random_campaign,
    run_campaign,
    run_coherence_audit,
)
from .gpu import BACKENDS
from .kernels import KernelInstance, KernelSpec, all_kernels, get_kernel, load_instance
from .parallel import ParallelCampaignRunner, SerialExecutor, resolve_executor
from .pruning import ProgressivePruner, PrunedSpace
from .telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    RunManifest,
    Telemetry,
)

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "CoherenceAudit",
    "FaultInjectionError",
    "FaultInjector",
    "FaultSite",
    "FaultSpace",
    "GoldenState",
    "HangDetected",
    "InvalidProgram",
    "KernelAuthoringError",
    "KernelInstance",
    "KernelSpec",
    "MemoryFault",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "Outcome",
    "ParallelCampaignRunner",
    "PropagationRecord",
    "PropagationTracer",
    "RunManifest",
    "Telemetry",
    "ProgressivePruner",
    "PrunedSpace",
    "PruningError",
    "ReproError",
    "ResilienceProfile",
    "SerialExecutor",
    "SimulatorError",
    "all_kernels",
    "exhaustive_campaign",
    "get_kernel",
    "load_instance",
    "random_campaign",
    "resolve_executor",
    "run_campaign",
    "run_coherence_audit",
    "__version__",
]
