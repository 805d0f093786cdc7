"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables or figures.  Results are
printed and also written under ``benchmarks/results/`` so they survive
pytest's output capture.

Two cost profiles:

* default ("fast") — reduced bit-sampling / baseline sizes so the whole
  suite completes in minutes;
* ``REPRO_BENCH_FULL=1`` — paper-grade settings (16 sampled bits,
  95%/±3% baselines everywhere).

``REPRO_BENCH_WORKERS=N`` fans every campaign the harness drives over N
worker processes (see :mod:`repro.parallel`); results are identical to
serial runs, only the wall clock changes.

``REPRO_BENCH_CHECKPOINT_INTERVAL=K`` sets the checkpointed fast-forward
interval (snapshot every K dynamic instructions; 0 = disabled; ``auto`` —
the default — derives K per kernel from trace depth) — again bit-for-bit
identical results, only faster deep injections.

``REPRO_BENCH_BACKEND={interpreter,compiled,vectorized,auto}`` selects
the execution backend every harness-built injector uses (identical
outcomes; the compiled basic-block backend is faster per thread, the
vectorized lane-parallel backend is faster still on wide CTAs — see
``bench_compiled_backend.py`` and ``bench_vectorized_backend.py``).  It
defaults to ``interpreter``, not the library's ``auto``: the rung
benches pin their speed-ups and history against the reference path.

``REPRO_BENCH_PAPER_GRID=1`` additionally runs kernels with a staged
paper-scale build (16384-thread GEMM, 512-row MVT) at the paper's actual
Table I grids on the vectorized backend (``bench_table1_fault_sites.py``).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import (
    FaultInjector,
    ProgressivePruner,
    load_instance,
    random_campaign,
    resolve_executor,
)
from repro.faults import CampaignResult
from repro.observe.history import append_history as _append_history
from repro.pruning import PrunedSpace
from repro.stats import sample_size_worst_case
from repro.telemetry import RunManifest

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
CHECKPOINT_INTERVAL: int | str = os.environ.get(
    "REPRO_BENCH_CHECKPOINT_INTERVAL", "auto"
)
if CHECKPOINT_INTERVAL != "auto":
    CHECKPOINT_INTERVAL = int(CHECKPOINT_INTERVAL)
BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "interpreter")


def bench_executor():
    """The campaign executor benches share (None when serial)."""
    return resolve_executor(WORKERS)


@dataclass(frozen=True)
class BenchSettings:
    n_bits: int
    num_loop_iters: int
    baseline_confidence: float
    baseline_error_margin: float
    seed: int = 2018

    @property
    def baseline_runs(self) -> int:
        return sample_size_worst_case(
            self.baseline_error_margin, self.baseline_confidence
        )


SETTINGS = (
    BenchSettings(n_bits=16, num_loop_iters=5,
                  baseline_confidence=0.95, baseline_error_margin=0.03)
    if FULL
    else BenchSettings(n_bits=4, num_loop_iters=4,
                       baseline_confidence=0.95, baseline_error_margin=0.05)
)

_injectors: dict[str, FaultInjector] = {}
_spaces: dict[tuple, PrunedSpace] = {}
_baselines: dict[tuple, CampaignResult] = {}


def injector_for(key: str) -> FaultInjector:
    if key not in _injectors:
        _injectors[key] = FaultInjector(
            load_instance(key),
            checkpoint_interval=CHECKPOINT_INTERVAL,
            backend=BACKEND,
        )
    return _injectors[key]


def pruned_space_for(key: str, **overrides) -> PrunedSpace:
    params = dict(
        n_bits=SETTINGS.n_bits,
        num_loop_iters=SETTINGS.num_loop_iters,
        seed=SETTINGS.seed,
    )
    params.update(overrides)
    cache_key = (key, tuple(sorted(params.items())))
    if cache_key not in _spaces:
        pruner = ProgressivePruner(**params)
        _spaces[cache_key] = pruner.prune(injector_for(key))
    return _spaces[cache_key]


def baseline_for(key: str, n: int | None = None) -> CampaignResult:
    runs = n if n is not None else SETTINGS.baseline_runs
    cache_key = (key, runs)
    if cache_key not in _baselines:
        _baselines[cache_key] = random_campaign(
            injector_for(key), runs, rng=SETTINGS.seed, executor=bench_executor()
        )
    return _baselines[cache_key]


def emit(name: str, text: str) -> None:
    """Print a bench's table and persist it under benchmarks/results/.

    Alongside each ``<name>.txt`` a ``<name>.manifest.json`` records the
    exact settings, git revision and library versions the numbers came
    from, so archived results stay auditable.
    """
    banner = f"\n===== {name} ====="
    print(banner)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    manifest = RunManifest.create(
        kernel="",
        command=f"bench:{name}",
        config={
            **asdict(SETTINGS),
            "full": FULL,
            "workers": WORKERS,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "backend": BACKEND,
        },
        seed=SETTINGS.seed,
    )
    manifest.write(RESULTS_DIR / f"{name}.manifest.json")


def bench_config() -> dict:
    """The knob values that shaped this run, for history records."""
    return {
        **asdict(SETTINGS),
        "full": FULL,
        "workers": WORKERS,
        "checkpoint_interval": CHECKPOINT_INTERVAL,
        "backend": BACKEND,
    }


def append_history(
    suite: str,
    metric: str,
    value: float,
    *,
    kernel: str,
    unit: str = "",
    direction: str = "lower",
) -> dict:
    """Record one benchmark observation in the machine-readable history.

    Appends a normalized record (suite, kernel, metric, value, git SHA,
    bench config) to ``benchmarks/results/history.jsonl`` and refreshes
    the suite's ``BENCH_<suite>.json`` snapshot.  ``repro bench-check``
    compares the newest observation of each series against the median of
    its history — ``direction`` says which way is better.
    """
    return _append_history(
        RESULTS_DIR,
        suite,
        kernel,
        metric,
        value,
        unit=unit,
        direction=direction,
        config=bench_config(),
    )


#: Table I kernel order (NN is Table VII-only).
TABLE1_KEYS = [
    "hotspot.k1",
    "k-means.k1", "k-means.k2",
    "gaussian.k1", "gaussian.k2", "gaussian.k125", "gaussian.k126",
    "pathfinder.k1",
    "lud.k44", "lud.k45", "lud.k46",
    "2dconv.k1", "mvt.k1", "2mm.k1", "gemm.k1", "syrk.k1",
]

ALL_KEYS = TABLE1_KEYS + ["nn.k1"]
