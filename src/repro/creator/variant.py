"""Generated kernel variants: the MicroCreator output unit."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.isa.instructions import AsmProgram, Instruction
from repro.isa.writer import write_program


class VariantFacts:
    """What a generated variant says about itself, defined once.

    Shared by :class:`GeneratedKernel` and the generation cache's
    :class:`~repro.engine.gencache.CachedVariant`.  Each fact reads the
    choice metadata the passes recorded and falls back to the program's
    instructions only where the metadata lacks it, so a subclass need
    only supply ``metadata`` and ``program``.
    """

    __slots__ = ()

    metadata: dict[str, object]
    program: AsmProgram

    @property
    def unroll(self) -> int:
        return int(self.metadata.get("unroll", 1))  # type: ignore[arg-type]

    @property
    def mix(self) -> str:
        """Load/store pattern, e.g. ``"LLS"`` — one letter per memory copy."""
        explicit = self.metadata.get("mix")
        if isinstance(explicit, str):
            return explicit
        letters = []
        for instr in self.program.instructions():
            if instr.bytes_moved:
                letters.append("S" if instr.is_store else "L")
        return "".join(letters)

    @property
    def n_loads(self) -> int:
        return int(self.metadata.get("n_loads", 0))  # type: ignore[arg-type]

    @property
    def n_stores(self) -> int:
        return int(self.metadata.get("n_stores", 0))  # type: ignore[arg-type]

    @property
    def opcodes(self) -> tuple[str, ...]:
        ops = self.metadata.get("opcodes")
        if isinstance(ops, tuple):
            return ops
        return tuple(sorted({i.opcode for i in self.program.instructions() if i.bytes_moved}))

    def instructions(self) -> list[Instruction]:
        return list(self.program.instructions())


@dataclass(slots=True)
class GeneratedKernel(VariantFacts):
    """One generated microbenchmark program.

    MicroCreator's output is "an assembly file executed by the
    MicroLauncher tool" (section 3.4); this object carries the program,
    the choice metadata the passes recorded, and the emitters for the
    assembly and C forms.
    """

    spec_name: str
    variant_id: int
    program: AsmProgram
    metadata: dict[str, object] = field(default_factory=dict)
    #: Memo slot for :func:`repro.engine.hashing.kernel_digest` — lets
    #: job-ID hashing reuse one digest across a whole option sweep.
    _digest_memo: str | None = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        """Unique function/symbol name for this variant."""
        return self.program.name

    def asm_text(self, *, full_file: bool = False) -> str:
        """The kernel as AT&T assembly (optionally a complete ``.s`` file)."""
        return write_program(self.program, full_file=full_file)

    def c_text(self) -> str:
        """The kernel as compilable C following the launcher ABI."""
        from repro.creator.cgen import c_source_for

        return c_source_for(self)

    def write(self, directory: str | Path, *, language: str = "asm") -> Path:
        """Write the variant to ``directory`` as ``<name>.s`` or ``<name>.c``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if language == "asm":
            path = directory / f"{self.name}.s"
            path.write_text(self.asm_text(full_file=True))
        elif language == "c":
            path = directory / f"{self.name}.c"
            path.write_text(self.c_text())
        else:
            raise ValueError(f"language must be 'asm' or 'c', got {language!r}")
        return path
