"""Static analysis of a kernel loop body.

Turns a concrete loop body (list of :class:`~repro.isa.Instruction`) into
the quantities the cycle model consumes: execution-port demand, front-end
width demand, loop-carried dependence recurrences, and per-array *memory
streams* (which addresses the loop touches each iteration, at what stride,
and how wide).

The analysis is purely structural — it never executes the loop — which is
what makes sweeping thousands of MicroCreator variants cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction
from repro.isa.operands import ImmediateOperand, RegisterOperand
from repro.isa.registers import PhysReg
from repro.isa.semantics import OpcodeKind
from repro.machine.config import MemLevel


@dataclass(frozen=True, slots=True)
class ArrayBinding:
    """How MicroLauncher bound one base register to an allocated array.

    Attributes
    ----------
    register:
        Canonical 64-bit register name holding the array pointer.
    size_bytes:
        Allocated array size; determines cache residence unless
        ``residence`` overrides it.
    alignment:
        Byte offset of the array start from a page-aligned base — the
        quantity MicroLauncher's alignment sweeps vary (section 4.2).
    residence:
        Optional residence override, for callers that know the reuse
        pattern better than the raw footprint does (the matmul study).
    """

    register: str
    size_bytes: int
    alignment: int = 0
    residence: MemLevel | None = None

    def resolve_residence(self, machine) -> MemLevel:
        if self.residence is not None:
            return self.residence
        return machine.residence_for(self.size_bytes)


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One static memory access in the loop body."""

    offset: int
    width: int
    is_store: bool
    requires_alignment: bool
    opcode: str


@dataclass(slots=True)
class MemStream:
    """All accesses through one base register, plus its per-iteration step."""

    base: str
    accesses: list[MemAccess] = field(default_factory=list)
    step_bytes: int = 0
    #: Software prefetch hints cover this stream (a ``prefetcht0`` through
    #: the same base register); restores full memory-level parallelism
    #: for strides the hardware prefetcher cannot follow.
    sw_prefetched: bool = False

    @property
    def has_loads(self) -> bool:
        return any(not a.is_store for a in self.accesses)

    @property
    def has_stores(self) -> bool:
        return any(a.is_store for a in self.accesses)

    @property
    def bytes_accessed(self) -> int:
        """Payload bytes the loop body moves through this stream."""
        return sum(a.width for a in self.accesses)

    def _window(self, line: int) -> int:
        """Iterations after which the access pattern repeats modulo lines.

        The pointer advances ``step`` bytes per iteration; offsets within a
        line recur with period ``line / gcd(step, line)``.  Amortizing over
        this window removes line-granularity quantization (a 5x-unrolled
        16-byte kernel touches 1.25 lines per iteration, not "2").
        """
        step = abs(self.step_bytes)
        if step == 0:
            return 1
        from math import gcd

        return line // gcd(step, line)

    def touched_lines(self, alignment: int, line: int = 64) -> float:
        """Steady-state distinct cache lines touched per loop iteration.

        Counts the union of lines covered by the body's accesses over one
        repeat window of the stride pattern, divided by the window length:
        unit-stride streaming yields ``|step| / line`` (fractional), and a
        stride wider than a line yields one full line per access — so
        strided kernels are charged full-line traffic automatically.
        """
        window = self._window(line)
        step = self.step_bytes
        lines: set[int] = set()
        for k in range(window):
            base = alignment + k * step
            for a in self.accesses:
                lo = (base + a.offset) // line
                hi = (base + a.offset + max(a.width, 1) - 1) // line
                lines.update(range(lo, hi + 1))
        return len(lines) / window

    def amortized_splits(self, alignment: int, line: int = 64) -> dict[str, float]:
        """Line-boundary crossings per iteration, keyed by opcode.

        Amortized over the stride window like :meth:`touched_lines`: a
        16-byte access stream at alignment 4 with a 16-byte step splits
        once per four iterations, i.e. 0.25 per iteration.
        """
        window = self._window(line)
        step = self.step_bytes
        splits: dict[str, float] = {}
        for k in range(window):
            base = alignment + k * step
            for a in self.accesses:
                start = (base + a.offset) % line
                if a.width > 1 and start + a.width > line:
                    splits[a.opcode] = splits.get(a.opcode, 0.0) + 1.0
        return {op: count / window for op, count in splits.items()}

    def first_phase(self, alignment: int) -> int:
        """Address phase of the stream's first access (for conflict tests)."""
        first = min((a.offset for a in self.accesses), default=0)
        return alignment + first


@dataclass(slots=True)
class KernelAnalysis:
    """The cycle model's view of one kernel loop body."""

    n_instructions: int
    n_uops: int
    port_demand: dict[str, float]
    recurrence_cycles: float
    streams: dict[str, MemStream]
    counter_step: int
    iteration_counter_step: int

    @property
    def n_loads(self) -> int:
        return sum(
            sum(1 for a in s.accesses if not a.is_store) for s in self.streams.values()
        )

    @property
    def n_stores(self) -> int:
        return sum(sum(1 for a in s.accesses if a.is_store) for s in self.streams.values())

    @property
    def elements_per_iteration(self) -> int:
        """Elements consumed per loop iteration (|counter step|).

        The paper's cycles-per-iteration metric divides by the element
        count the linked counter tracks (section 4.4); kernels without a
        counter fall back to 1.
        """
        return abs(self.counter_step) if self.counter_step else 1


def _canonical(reg) -> str:
    if isinstance(reg, PhysReg):
        return reg.canonical64.name
    return str(reg)


def analyze_kernel(body: list[Instruction]) -> KernelAnalysis:
    """Analyze a concrete loop body (the output of ``kernel_loop()``).

    Raises
    ------
    ValueError
        If the body contains logical registers (unlowered kernels cannot
        be timed).
    """
    port_demand: dict[str, float] = {}
    streams: dict[str, MemStream] = {}
    steps: dict[str, int] = {}
    chains: dict[str, float] = {}
    first_access: dict[str, str] = {}  # register -> "read" | "write"
    n_uops = 0

    def bump(port: str, amount: float = 1.0) -> None:
        port_demand[port] = port_demand.get(port, 0.0) + amount

    for instr in body:
        info = instr.info
        if info.kind is OpcodeKind.NOP:
            continue
        n_uops += 1

        # -- execution ports ------------------------------------------------
        if instr.is_branch:
            bump("branch")
        else:
            if instr.is_load:
                bump("load")
            if instr.is_store:
                bump("store")
            if info.kind is OpcodeKind.MOVE:
                if not (instr.is_load or instr.is_store):
                    bump("alu")  # register-to-register move
            elif info.ports:
                for port in info.ports:
                    bump(port)

        # -- memory streams ---------------------------------------------------
        for mem in instr.memory_operands:
            base = _canonical(mem.base)
            if base.startswith("%") is False:
                raise ValueError(
                    f"cannot analyze unlowered kernel: logical base {base!r} in "
                    f"'{instr.opcode}'"
                )
            stream = streams.setdefault(base, MemStream(base=base))
            if info.kind is OpcodeKind.PREFETCH:
                # A hint, not a demand access: it restores the stream's
                # memory-level parallelism but moves no payload.
                stream.sw_prefetched = True
                continue
            width = info.bytes_moved if info.is_move else 8
            stream.accesses.append(
                MemAccess(
                    offset=mem.offset,
                    width=width,
                    is_store=instr.is_store and mem is instr.operands[-1],
                    requires_alignment=info.requires_alignment,
                    opcode=instr.opcode,
                )
            )

        # -- register steps (induction updates) ------------------------------
        if (
            info.kind is OpcodeKind.INT_ALU
            and instr.opcode.rstrip("lq") in ("add", "sub")
            and len(instr.operands) == 2
            and isinstance(instr.operands[0], ImmediateOperand)
            and isinstance(instr.operands[1], RegisterOperand)
        ):
            reg = _canonical(instr.operands[1].reg)
            sign = 1 if instr.opcode.startswith("add") else -1
            steps[reg] = steps.get(reg, 0) + sign * instr.operands[0].value

        # -- loop-carried recurrences ----------------------------------------
        # A register participates in a carried chain only when it is
        # live-in to the body (first touched by a read): ``mulsd (%r8),
        # %xmm0`` after ``movsd ..., %xmm0`` accumulates *within* the
        # iteration, not across it, because the load re-defines the
        # register each time around.
        written = {_canonical(r) for r in instr.registers_written()}
        read = {_canonical(r) for r in instr.registers_read()}
        for reg in read:
            first_access.setdefault(reg, "read")
        for reg in written & read:
            chains[reg] = chains.get(reg, 0.0) + info.latency
        for reg in written:
            first_access.setdefault(reg, "write")

    for reg, stream in streams.items():
        stream.step_bytes = steps.get(reg, 0)

    # The loop counter is the register whose update the branch tests: the
    # last flag-setting add/sub in the body (construction guarantees this
    # for MicroCreator kernels; compiler kernels follow the same shape).
    counter_step = 0
    iteration_counter_step = 0
    flag_reg: str | None = None
    for instr in body:
        if (
            instr.info.kind is OpcodeKind.INT_ALU
            and len(instr.operands) == 2
            and isinstance(instr.operands[0], ImmediateOperand)
            and isinstance(instr.operands[1], RegisterOperand)
        ):
            flag_reg = _canonical(instr.operands[1].reg)
    if flag_reg is not None:
        counter_step = steps.get(flag_reg, 0)
    for reg, step in steps.items():
        if reg in ("%rax",):  # the Fig. 9 %eax iteration counter
            iteration_counter_step = step

    carried_chains = [
        length for reg, length in chains.items() if first_access.get(reg) == "read"
    ]
    return KernelAnalysis(
        n_instructions=sum(1 for i in body if i.info.kind is not OpcodeKind.NOP),
        n_uops=n_uops,
        port_demand=port_demand,
        recurrence_cycles=max(carried_chains, default=0.0),
        streams=streams,
        counter_step=counter_step,
        iteration_counter_step=iteration_counter_step,
    )
