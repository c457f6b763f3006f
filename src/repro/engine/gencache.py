"""The persistent generation cache: rendered variants keyed by spec.

Running the 19-pass pipeline over a big sweep costs far more than
reading its output back, and generation is deterministic — the same
``(spec, creator options)`` pair always renders the same variants.  So
campaigns may persist each expansion (one record per expansion in
:class:`~repro.engine.store.ShardedGenerationCache`) and skip the
pipeline entirely on the next run, which is what makes ``--resume`` and
repeated sweeps start measuring immediately::

    {"key": "<spec digest>:<creator-options digest>", "spec": "matmul",
     "variants": [{"variant_id": 0, "name": "matmul_v0000",
                   "digest": "ab12...", "text": ".text\\n...",
                   "metadata": {...}}, ...], "check": "9c41..."}

This module holds the record shape; the store supplies the storage
discipline — whole-record checksums, damaged lines skipped, atomic
self-repair, torn-tail handling — so a crashed or corrupted cache
degrades to regeneration, never to wrong kernels.

Cache hits return :class:`CachedVariant` handles: they carry the variant
name, metadata, and content digest up front and parse the stored
assembly back into a program only if something actually measures the
kernel, so job-ID expansion over a warm cache never touches the parser.
"""

from __future__ import annotations

from typing import Sequence

from repro.creator.variant import VariantFacts
from repro.engine.cache import check_passes
from repro.engine.hashing import kernel_digest
from repro.engine.serialize import _tupled
from repro.isa.instructions import AsmProgram


def key_for(spec_dig: str, opts_dig: str) -> str:
    """The record key of one ``(spec, creator options)`` expansion."""
    return f"{spec_dig}:{opts_dig}"


def valid_generation_record(record: object) -> bool:
    """Structural + integrity validation of one generation-cache record.

    Shared by the store and the legacy JSONL loader.
    """
    if not isinstance(record, dict):
        return False
    if not isinstance(record.get("key"), str):
        return False
    if not isinstance(record.get("spec"), str):
        return False
    variants = record.get("variants")
    if not isinstance(variants, list):
        return False
    for v in variants:
        if not isinstance(v, dict):
            return False
        if not isinstance(v.get("variant_id"), int):
            return False
        if not all(
            isinstance(v.get(k), str) for k in ("name", "digest", "text")
        ):
            return False
        if not isinstance(v.get("metadata"), dict):
            return False
    return check_passes(record)


def variants_from_record(record: dict) -> list["CachedVariant"]:
    """Decode one stored expansion into :class:`CachedVariant` handles."""
    spec_name = record["spec"]
    return [
        CachedVariant(
            spec_name=spec_name,
            variant_id=v["variant_id"],
            name=v["name"],
            text=v["text"],
            metadata=_tupled(v["metadata"]),  # type: ignore[arg-type]
            digest=v["digest"],
        )
        for v in record["variants"]
    ]


def generation_record(
    spec_dig: str,
    opts_dig: str,
    spec_name: str,
    variants: Sequence[object],
) -> dict:
    """Build the storable record for one complete expansion."""
    return {
        "key": key_for(spec_dig, opts_dig),
        "spec": spec_name,
        "variants": [
            {
                "variant_id": v.variant_id,  # type: ignore[attr-defined]
                "name": v.name,  # type: ignore[attr-defined]
                "digest": kernel_digest(v),
                "text": v.asm_text(full_file=True),  # type: ignore[attr-defined]
                "metadata": v.metadata,  # type: ignore[attr-defined]
            }
            for v in variants
        ],
    }


class CachedVariant(VariantFacts):
    """A generated variant restored from the cache.

    Shares :class:`~repro.creator.GeneratedKernel`'s variant facts
    (:class:`~repro.creator.variant.VariantFacts`) and answers ``name``
    and ``asm_text`` like it, but holds the rendered text instead of a
    program.  ``program`` parses lazily on first access, and the stored
    content digest pre-populates the ``kernel_digest`` memo, so expanding
    jobs from a warm cache does no parsing and no hashing.
    """

    __slots__ = (
        "spec_name",
        "variant_id",
        "metadata",
        "_name",
        "_text",
        "_program",
        "_digest_memo",
    )

    def __init__(
        self,
        spec_name: str,
        variant_id: int,
        name: str,
        text: str,
        metadata: dict[str, object],
        digest: str,
    ) -> None:
        self.spec_name = spec_name
        self.variant_id = variant_id
        self.metadata = metadata
        self._name = name
        self._text = text
        self._program: AsmProgram | None = None
        self._digest_memo = digest

    @property
    def name(self) -> str:
        return self._name

    @property
    def program(self) -> AsmProgram:
        """The parsed program (parsed once, on first use)."""
        if self._program is None:
            from repro.isa.parser import parse_asm

            program = parse_asm(self._text, name=self._name)
            program.name = self._name
            self._program = program
        return self._program

    def asm_text(self, *, full_file: bool = False) -> str:
        if full_file:
            return self._text
        from repro.isa.writer import write_program

        return write_program(self.program)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CachedVariant {self._name!r} digest={self._digest_memo[:8]}>"
