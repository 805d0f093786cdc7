"""Exception hierarchy shared by every layer of the reproduction.

The fault injector relies on this hierarchy to classify run outcomes:
``MemoryFault`` and ``InvalidProgram`` raised *during a faulty run* are
classified as crashes, while ``HangDetected`` maps to the hang bucket.
Errors raised during a golden (fault-free) run always indicate a bug in a
kernel or in the simulator and are re-raised.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SimulatorError(ReproError):
    """Base class for errors raised by the GPU functional simulator."""


class InvalidProgram(SimulatorError):
    """A program failed static validation (unknown label, bad operand, ...)."""


class MemoryFault(SimulatorError):
    """An access touched an address outside every live allocation.

    During fault injection this is the signature of a crashed kernel
    (the hardware analogue is an Xid/MMU fault aborting the launch).
    """

    def __init__(self, space: str, address: int, size: int) -> None:
        super().__init__(f"invalid {space} access of {size} bytes at 0x{address:x}")
        self.space = space
        self.address = address
        self.size = size


class HangDetected(SimulatorError):
    """A thread exceeded its dynamic-instruction budget or a CTA deadlocked."""


class ExecutionFault(SimulatorError):
    """A non-memory dynamic fault (e.g. corrupted operand state)."""


class FaultInjectionError(ReproError):
    """Misuse of the fault-injection API (site out of range, no dest, ...)."""


class PruningError(ReproError):
    """Misuse of the pruning API or an internally inconsistent pruned space."""


class KernelAuthoringError(ReproError):
    """A kernel builder was used incorrectly while authoring a workload."""
