"""Functional GPU simulator substrate (PTXPlus-flavoured ISA).

This package stands in for GPGPU-Sim's PTXPlus mode: it executes kernels at
the level the paper injects faults at, producing per-thread dynamic traces,
per-CTA write logs, and deterministic outputs.
"""

from .builder import KernelBuilder
from .checkpoint import (
    DEFAULT_BUDGET_MB,
    MIN_AUTO_DEPTH,
    CheckpointPlan,
    CheckpointStore,
    CTACheckpoint,
    ThreadCheckpoint,
    derive_checkpoint_interval,
)
from .compiler import CompiledProgram, compile_program
from .instruction import Guard, Instruction
from .isa import DataType, Imm, MemRef, Param, Reg, Special
from .memory import GLOBAL_BASE, GlobalMemory, ParamMemory, SharedMemory
from .packing import pack_params
from .program import Program
from .registers import RegisterFile, flip_bit
from .simulator import (
    BACKENDS,
    DEFAULT_MAX_STEPS,
    GPUSimulator,
    LaunchGeometry,
    LaunchResult,
    resolve_backend,
)
from .tracing import ThreadTrace, TraceTable, static_key_sequence
from .vector import VectorFallback, VectorProgram

__all__ = [
    "BACKENDS",
    "CTACheckpoint",
    "CheckpointPlan",
    "CheckpointStore",
    "CompiledProgram",
    "DEFAULT_BUDGET_MB",
    "DEFAULT_MAX_STEPS",
    "MIN_AUTO_DEPTH",
    "compile_program",
    "derive_checkpoint_interval",
    "DataType",
    "GLOBAL_BASE",
    "GPUSimulator",
    "GlobalMemory",
    "Guard",
    "Imm",
    "Instruction",
    "KernelBuilder",
    "LaunchGeometry",
    "LaunchResult",
    "MemRef",
    "Param",
    "ParamMemory",
    "Program",
    "Reg",
    "RegisterFile",
    "SharedMemory",
    "Special",
    "ThreadCheckpoint",
    "ThreadTrace",
    "TraceTable",
    "VectorFallback",
    "VectorProgram",
    "flip_bit",
    "pack_params",
    "resolve_backend",
    "static_key_sequence",
]
