"""Finalization passes: scheduling, peephole, validation, code generation
(pipeline stages 16-19)."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.creator.ir import KernelIR
from repro.creator.pass_manager import CreatorContext, Pass, PerVariantPass
from repro.creator.passes.errors import CreatorError
from repro.isa.instructions import AsmProgram, Comment, Instruction, LabelDef
from repro.isa.operands import ImmediateOperand
from repro.isa.registers import LogicalReg
from repro.isa.writer import write_program


class SchedulingPass(PerVariantPass):
    """Interleave induction updates into the unrolled body (stage 16).

    Gated off by default (``options.schedule``): the paper keeps its
    generated shape (body, then updates, then branch), but notes that
    passes can be re-gated — this is the natural candidate, and the plugin
    example re-gates it.

    The scheduler spreads the non-flag-critical updates evenly through the
    body; the ``<last_induction/>`` update and the branch stay at the end
    so the tested flags are preserved.
    """

    name = "scheduling"

    def gate(self, ctx: CreatorContext) -> bool:
        return ctx.options.schedule

    def expand(self, ir: KernelIR, ctx: CreatorContext) -> Iterator[KernelIR]:
        start = ir.metadata.get("_induction_start")
        if not isinstance(start, int) or len(ir.body) - start < 3:
            yield ir  # nothing movable: need update(s) + last + branch
            return
        body = list(ir.body[:start])
        tail = list(ir.body[start:])
        branch = tail.pop() if tail and tail[-1].is_branch else None
        last_update = tail.pop() if tail else None
        movable = tail  # everything else may move
        merged: list[Instruction] = []
        gap = max(1, len(body) // (len(movable) + 1)) if movable else len(body)
        queue = list(movable)
        for i, instr in enumerate(body, start=1):
            merged.append(instr)
            if queue and i % gap == 0:
                merged.append(queue.pop(0))
        merged.extend(queue)
        if last_update is not None:
            merged.append(last_update)
        if branch is not None:
            merged.append(branch)
        yield (
            ir.evolve(body=tuple(merged))
            .noting(scheduled=True, _induction_start=None)
        )


class PeepholePass(PerVariantPass):
    """Remove no-op instructions (stage 17): ``add $0, r`` and ``nop``."""

    name = "peephole"

    def expand(self, ir: KernelIR, ctx: CreatorContext) -> Iterator[KernelIR]:
        body = tuple(i for i in ir.body if not self._is_noop(i))
        yield ir if len(body) == len(ir.body) else ir.evolve(body=body)

    @staticmethod
    def _is_noop(instr: Instruction) -> bool:
        if instr.opcode == "nop":
            return True
        if instr.opcode in ("add", "sub", "addq", "subq") and instr.operands:
            first = instr.operands[0]
            return isinstance(first, ImmediateOperand) and first.value == 0
        return False


class ValidationPass(PerVariantPass):
    """Structural checks before emission (stage 18).

    Verifies that every variant is fully concrete: a non-empty body, no
    surviving template instructions, no logical registers, and — when a
    branch was requested — a flag-setting update preceding it.
    """

    name = "validation"

    def expand(self, ir: KernelIR, ctx: CreatorContext) -> Iterator[KernelIR]:
        self._check(ir)
        yield ir

    def _check(self, ir: KernelIR) -> None:
        if ir.instrs:
            raise CreatorError(
                self.name, f"{len(ir.instrs)} instructions were never lowered", ir.metadata
            )
        if not ir.body:
            raise CreatorError(self.name, "empty kernel body", ir.metadata)
        for instr in ir.body:
            for op in instr.operands:
                for reg in op.registers():
                    if isinstance(reg, LogicalReg):
                        raise CreatorError(
                            self.name,
                            f"unallocated logical register {reg.name!r} in "
                            f"'{instr.opcode}'",
                            ir.metadata,
                        )
        if ir.branch is not None:
            if not ir.body[-1].is_branch:
                raise CreatorError(self.name, "branch requested but not last", ir.metadata)
            if len(ir.body) < 2:
                raise CreatorError(self.name, "branch with no flag source", ir.metadata)


class CodeGenerationPass(Pass):
    """Assemble each variant into an :class:`AsmProgram` (stage 19).

    Emits the Fig. 8 layout (loop label, ``#Unrolling iterations`` body,
    ``#Induction variables`` updates, branch), records load/store counts
    in the metadata, and deduplicates variants whose emitted text is
    identical.
    """

    name = "code_generation"

    def run(self, variants: Sequence[KernelIR], ctx: CreatorContext) -> list[KernelIR]:
        seen: set[str] = set()
        out: list[KernelIR] = []
        for ir in variants:
            program = self._emit(ir, ctx)
            text = write_program(program)
            if text in seen:
                continue
            seen.add(text)
            n_loads = sum(1 for i in ir.body if i.is_load)
            n_stores = sum(1 for i in ir.body if i.is_store)
            program.metadata.update(ir.metadata)
            program.metadata.update(n_loads=n_loads, n_stores=n_stores)
            program.metadata.pop("_induction_start", None)
            out.append(
                ir.evolve(program=program).noting(n_loads=n_loads, n_stores=n_stores)
            )
        return out

    @staticmethod
    def _emit(ir: KernelIR, ctx: CreatorContext) -> AsmProgram:
        items: list = []
        if ir.branch is not None:
            items.append(LabelDef(ir.branch.asm_label))
        start = ir.metadata.get("_induction_start")
        body = list(ir.body)
        if isinstance(start, int) and 0 < start <= len(body):
            items.append(Comment("Unrolling iterations"))
            items.extend(body[:start])
            items.append(Comment("Induction variables"))
            items.extend(body[start:])
        else:
            items.extend(body)
        name = ctx.options.function_name or ir.name
        return AsmProgram(name=name, items=items)
