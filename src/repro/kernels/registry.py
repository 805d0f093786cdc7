"""Kernel registry: one :class:`KernelSpec` per evaluated application kernel.

A *spec* is the static description (suite, ids, the paper's Table I numbers
for side-by-side reporting, and a factory).  Calling :meth:`KernelSpec.build`
materialises a :class:`KernelInstance`: the program, launch geometry,
deterministic inputs staged into an initial heap, the packed parameter
block, the output buffers to diff, and a NumPy reference of the expected
outputs.

The fault injector runs entirely off a ``KernelInstance``; the registry is
how benchmarks, tests and examples name workloads (e.g. ``"gemm.k1"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ReproError
from ..gpu import GlobalMemory, LaunchGeometry, Program


@dataclass(frozen=True)
class OutputBuffer:
    """A device buffer whose final contents define the application output."""

    name: str
    address: int
    dtype: np.dtype
    count: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize) * self.count


@dataclass
class KernelInstance:
    """A fully staged, launchable kernel."""

    spec: "KernelSpec"
    program: Program
    geometry: LaunchGeometry
    param_bytes: bytes
    initial_memory: GlobalMemory
    outputs: tuple[OutputBuffer, ...]
    reference: dict[str, np.ndarray]

    def golden_memory(self) -> GlobalMemory:
        """A fresh heap holding the staged inputs."""
        return self.initial_memory.snapshot()

    def read_outputs(self, memory: GlobalMemory) -> dict[str, np.ndarray]:
        out = {}
        for buf in self.outputs:
            raw = memory.read_bytes(buf.address, buf.nbytes)
            out[buf.name] = np.frombuffer(raw, dtype=buf.dtype).copy()
        return out

    def output_bytes(self, memory: GlobalMemory) -> bytes:
        """Concatenated raw output regions — the SDC comparison image."""
        return b"".join(
            memory.read_bytes(buf.address, buf.nbytes) for buf in self.outputs
        )

    def verify_reference(self, memory: GlobalMemory) -> None:
        """Assert the simulated outputs match the NumPy reference exactly."""
        actual = self.read_outputs(memory)
        for name, expected in self.reference.items():
            got = actual[name]
            if not np.array_equal(got, expected.ravel()):
                bad = np.flatnonzero(got != expected.ravel())[:8]
                raise ReproError(
                    f"{self.spec.key}: output {name!r} mismatches reference at "
                    f"indices {bad.tolist()} (got {got[bad]}, "
                    f"want {expected.ravel()[bad]})"
                )


#: A builder stages inputs into the simulator and returns the instance parts.
BuildFn = Callable[[], KernelInstance]


#: Input-scale names accepted by :meth:`KernelSpec.build`.
SCALES = ("sim", "paper")


@dataclass(frozen=True)
class KernelSpec:
    """Static identity + paper metadata for one evaluated kernel."""

    suite: str
    app: str
    kernel_name: str
    kernel_id: str
    build_fn: BuildFn = field(repr=False)
    paper_threads: int | None = None
    paper_fault_sites: float | None = None
    scaling_note: str = ""
    #: Optional factory staging the paper's full-size Table I grid.  Paper
    #: grids are orders of magnitude beyond what the interpreter can golden
    #: -run, so they are only reachable on demand (``scale="paper"``) and
    #: never appear in :func:`all_kernels` iteration.
    paper_build_fn: BuildFn | None = field(default=None, repr=False)

    @property
    def key(self) -> str:
        return f"{self.app.lower()}.{self.kernel_id.lower()}"

    def build(self, scale: str = "sim") -> KernelInstance:
        if scale not in SCALES:
            raise ReproError(f"unknown kernel scale {scale!r}; known: {SCALES}")
        if scale == "paper":
            if self.paper_build_fn is None:
                raise ReproError(f"{self.key} has no paper-scale build")
            instance = self.paper_build_fn()
        else:
            instance = self.build_fn()
        object.__setattr__(instance, "spec", self)
        return instance


_REGISTRY: dict[str, KernelSpec] = {}


def register(spec: KernelSpec) -> KernelSpec:
    if spec.key in _REGISTRY:
        raise ReproError(f"duplicate kernel key {spec.key}")
    _REGISTRY[spec.key] = spec
    return spec


def get_kernel(key: str) -> KernelSpec:
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ReproError(f"unknown kernel {key!r}; known: {known}") from None


def all_kernels() -> list[KernelSpec]:
    """Specs in the paper's Table I order (registration order)."""
    return list(_REGISTRY.values())


def load_instance(key: str, scale: str = "sim") -> KernelInstance:
    """One-call convenience: build the staged instance for a kernel key."""
    return get_kernel(key).build(scale)
