"""A validated, executable sequence of instructions.

A :class:`Program` is produced by the :mod:`~repro.gpu.builder` DSL (or
constructed directly in tests).  Construction resolves labels and performs
static validation so the interpreter can assume well-formedness and stay on
its fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidProgram
from .instruction import Instruction
from .isa import MemRef, Param, Reg, opcode_arity, opcode_has_dest

#: Opcode/data-type compatibility, PTX-style: bitwise and shift operations
#: exist only for integer types, transcendental ones only for floats.
INT_ONLY_OPS = frozenset(("and", "or", "xor", "not", "shl", "shr", "mul.wide"))
FLOAT_ONLY_OPS = frozenset(("rcp", "sqrt", "ex2", "lg2", "fma"))


@dataclass(frozen=True)
class Program:
    """An immutable kernel program.

    Attributes:
        name: kernel name (for reporting).
        instructions: the static instruction sequence.
        labels: label -> instruction index.
        shared_bytes: shared-memory bytes required per CTA.
        param_bytes: size of the kernel-parameter block.
    """

    name: str
    instructions: tuple[Instruction, ...]
    labels: dict[str, int]
    shared_bytes: int = 0
    param_bytes: int = 0

    def __post_init__(self) -> None:
        self._validate()

    def target_index(self, label: str) -> int:
        return self.labels[label]

    def decoded(self) -> tuple:
        """Pre-decoded instruction tuples for the interpreter hot loop.

        Each entry is ``(op, dtype, dest_name, dest_is_pred, width, srcs,
        guard, target_index, cmp, executor)`` with labels resolved, widths
        precomputed, and the ALU executor bound — computed once per
        program and cached.
        """
        cached = getattr(self, "_decoded", None)
        if cached is None:
            from .alu import EXECUTORS

            entries = []
            for insn in self.instructions:
                guard = None
                if insn.guard is not None:
                    guard = (insn.guard.reg.name, insn.guard.cond == "eq")
                entries.append(
                    (
                        insn.op,
                        insn.dtype,
                        insn.dest.name if insn.dest is not None else None,
                        insn.dest.is_pred if insn.dest is not None else False,
                        insn.dest_width,
                        insn.srcs,
                        guard,
                        self.labels[insn.target] if insn.target is not None else None,
                        insn.cmp,
                        EXECUTORS.get(insn.op),
                    )
                )
            cached = tuple(entries)
            object.__setattr__(self, "_decoded", cached)
        return cached

    def compiled(self, param_mem):
        """The program specialised into basic-block functions for one
        param block.

        Compilation folds parameter loads into constants, so the cache is
        keyed by the parameter image; each distinct parameter block gets
        its own :class:`~repro.gpu.compiler.CompiledProgram`, whose blocks
        compile lazily on first entry.  Like
        :meth:`decoded`, results are cached on the (frozen) program via
        ``object.__setattr__``.
        """
        cache = getattr(self, "_compiled", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_compiled", cache)
        key = param_mem.raw
        entry = cache.get(key)
        if entry is None:
            from .compiler import compile_program

            entry = compile_program(self, param_mem)
            cache[key] = entry
        return entry

    def vectorized(self, param_mem):
        """The program decoded for lane-masked SIMD issue.

        Vector decode folds parameter loads exactly like :meth:`compiled`,
        so the cache is keyed by the parameter image too.
        """
        cache = getattr(self, "_vectorized", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_vectorized", cache)
        key = param_mem.raw
        entry = cache.get(key)
        if entry is None:
            from .vector import VectorProgram

            entry = VectorProgram(self, param_mem)
            cache[key] = entry
        return entry

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        """Human-readable PTXPlus-style listing (used by the Fig. 5 bench)."""
        return "\n".join(f"{i:4d}  {insn}" for i, insn in enumerate(self.instructions))

    def _validate(self) -> None:
        if not self.instructions:
            raise InvalidProgram(f"{self.name}: empty program")
        for idx, insn in enumerate(self.instructions):
            where = f"{self.name}[{idx}] {insn.op}"
            if insn.op == "bra":
                if insn.target is None:
                    raise InvalidProgram(f"{where}: branch without target")
                if insn.target not in self.labels:
                    raise InvalidProgram(f"{where}: unknown label {insn.target!r}")
            elif insn.target is not None:
                raise InvalidProgram(f"{where}: target on non-branch")
            if opcode_has_dest(insn.op):
                if insn.dest is None:
                    raise InvalidProgram(f"{where}: missing destination")
            elif insn.dest is not None:
                raise InvalidProgram(f"{where}: unexpected destination")
            arity = opcode_arity(insn.op)
            if len(insn.srcs) != arity:
                raise InvalidProgram(
                    f"{where}: expected {arity} sources, got {len(insn.srcs)}"
                )
            if insn.op in ("set", "setp") and insn.cmp is None:
                raise InvalidProgram(f"{where}: comparison operator required")
            if insn.dtype is not None:
                if insn.op in INT_ONLY_OPS and insn.dtype.is_float:
                    raise InvalidProgram(f"{where}: integer-only op on {insn.dtype}")
                if insn.op in FLOAT_ONLY_OPS and not insn.dtype.is_float:
                    raise InvalidProgram(f"{where}: float-only op on {insn.dtype}")
            self._validate_memrefs(where, insn)
        self._validate_labels()

    def _validate_memrefs(self, where: str, insn: Instruction) -> None:
        for operand in insn.srcs:
            if isinstance(operand, MemRef):
                if operand.space not in ("global", "shared"):
                    raise InvalidProgram(f"{where}: bad space {operand.space!r}")
                if insn.op not in ("ld", "st"):
                    raise InvalidProgram(f"{where}: memory operand on ALU op")
                if operand.space == "shared" and self.shared_bytes == 0:
                    raise InvalidProgram(f"{where}: shared access but no shared memory")
            if isinstance(operand, Param):
                if operand.offset < 0 or operand.offset + 4 > self.param_bytes:
                    raise InvalidProgram(
                        f"{where}: param offset {operand.offset:#x} outside block "
                        f"of {self.param_bytes} bytes"
                    )
        if isinstance(insn.dest, Reg) and insn.dest.is_pred and insn.op not in (
            "set",
            "setp",
            "mov",
        ):
            raise InvalidProgram(f"{where}: predicate dest only on set/setp/mov")

    def _validate_labels(self) -> None:
        for label, idx in self.labels.items():
            if not 0 <= idx < len(self.instructions):
                raise InvalidProgram(f"{self.name}: label {label!r} out of range")
            at = self.instructions[idx].label
            if at != label:
                raise InvalidProgram(
                    f"{self.name}: label table says {label!r} at {idx} but "
                    f"instruction carries {at!r}"
                )
