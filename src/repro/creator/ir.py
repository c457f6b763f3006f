"""MicroCreator's kernel intermediate representation.

A :class:`KernelIR` starts as a near-verbatim copy of the kernel spec and
is progressively *concretized* by the passes: operation choices collapse
to one opcode, register ranges rotate into physical registers, logical
registers get allocated, inductions and the branch are materialized as
instructions.  Passes never mutate an IR in place — they return new
instances — so the cartesian expansion (one input, many variants) is just
a list of IRs flowing through the pipeline.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Union

from repro.isa.instructions import Instruction
from repro.spec.schema import (
    BranchInfoSpec,
    ImmediateSpec,
    InductionSpec,
    InstructionSpec,
    KernelSpec,
    MemoryRef,
    MoveSemanticsSpec,
    RegisterRange,
    RegisterRef,
    UnrollSpec,
)

#: Template operand: spec-level operand descriptions, plus ``int`` for an
#: immediate whose value has been selected.
TemplateOperand = Union[RegisterRef, RegisterRange, MemoryRef, ImmediateSpec, int]


@dataclass(frozen=True, slots=True)
class TemplateInstr:
    """One instruction while still in template form.

    ``choices`` holds candidate opcodes until instruction selection picks
    one and stores it in ``opcode``.  ``unroll_index`` is stamped by the
    unrolling pass so register-range rotation knows which copy this is;
    ``lane`` separates the scalar copies that move-semantics expansion
    creates within one unroll copy, so each lane rotates to a distinct
    register.
    """

    choices: tuple[str, ...] = ()
    move_semantics: MoveSemanticsSpec | None = None
    operands: tuple[TemplateOperand, ...] = ()
    swap_before_unroll: bool = False
    swap_after_unroll: bool = False
    opcode: str | None = None
    unroll_index: int = 0
    lane: int = 0
    repeat: int = 1

    @classmethod
    def from_spec(cls, spec: InstructionSpec) -> "TemplateInstr":
        return cls(
            choices=spec.operations,
            move_semantics=spec.move_semantics,
            operands=spec.operands,
            swap_before_unroll=spec.swap_before_unroll,
            swap_after_unroll=spec.swap_after_unroll,
            opcode=spec.operations[0] if len(spec.operations) == 1 else None,
            repeat=spec.repeat,
        )

    def swapped(self) -> "TemplateInstr":
        """Operands reversed — turns a load template into a store and back."""
        if len(self.operands) != 2:
            raise ValueError("operand swap requires exactly two operands")
        return replace(self, operands=(self.operands[1], self.operands[0]))

    def with_opcode(self, opcode: str) -> "TemplateInstr":
        # Interned: the same few opcode strings recur across every
        # expanded copy of every variant in a sweep.
        opcode = sys.intern(opcode)
        return replace(self, opcode=opcode, choices=(opcode,), move_semantics=None)

    def with_operands(self, operands: tuple[TemplateOperand, ...]) -> "TemplateInstr":
        return replace(self, operands=operands)

    def describes_store(self) -> bool:
        """Template-level store classification: memory in destination slot."""
        return bool(self.operands) and isinstance(self.operands[-1], MemoryRef)


@dataclass(frozen=True, slots=True)
class KernelIR:
    """One kernel variant flowing through the pass pipeline.

    Attributes
    ----------
    instrs:
        Template instructions (the loop body) until lowering.
    body:
        Concrete :class:`~repro.isa.Instruction` loop body, populated by
        the register-allocation pass and extended by induction/branch
        insertion.
    inductions:
        Induction specs, with stride multipliers already folded in.
    unroll:
        The selected unroll factor (``None`` until selection).
    regmap:
        Logical-name -> physical-name assignment, for diagnostics and for
        passes that run after allocation.
    metadata:
        Choice record: every pass that narrows the variant space appends
        what it chose, so results can be grouped the way the paper's
        figures group them.
    """

    name: str
    instrs: tuple[TemplateInstr, ...]
    unroll_range: UnrollSpec
    inductions: tuple[InductionSpec, ...]
    branch: BranchInfoSpec | None
    unroll: int | None = None
    body: tuple[Instruction, ...] = ()
    regmap: dict[str, str] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)
    program: "object | None" = None  # AsmProgram, set by code generation

    @classmethod
    def from_spec(cls, spec: KernelSpec) -> "KernelIR":
        return cls(
            name=spec.name,
            instrs=tuple(TemplateInstr.from_spec(i) for i in spec.instructions),
            unroll_range=spec.unrolling,
            inductions=spec.inductions,
            branch=spec.branch,
        )

    def evolve(self, **changes: object) -> "KernelIR":
        """Copy with ``changes`` applied; fresh dict copies keep variants
        independent."""
        if "metadata" not in changes:
            changes["metadata"] = dict(self.metadata)
        if "regmap" not in changes:
            changes["regmap"] = dict(self.regmap)
        return replace(self, **changes)  # type: ignore[arg-type]

    def noting(self, **notes: object) -> "KernelIR":
        """Copy with metadata entries added."""
        md = dict(self.metadata)
        md.update(notes)
        return self.evolve(metadata=md)

    def pointer_inductions(self) -> tuple[InductionSpec, ...]:
        """Inductions that walk memory (have a per-copy offset)."""
        return tuple(
            i for i in self.inductions if i.offset is not None and not i.not_affected_unroll
        )

    def counter_induction(self) -> InductionSpec | None:
        for i in self.inductions:
            if i.last_induction:
                return i
        return None
