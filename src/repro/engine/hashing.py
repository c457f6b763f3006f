"""Content digests for campaign jobs.

A job's identity is the content it measures, not the order it was created
in: the kernel's emitted text, the launcher options, the machine
description, and the execution mode.  Hashing those gives every job a
stable ID that survives process restarts, re-ordered sweeps, and adding
or removing unrelated jobs — the property the result cache and the
resume path rely on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.isa.instructions import AsmProgram
from repro.isa.writer import write_program
from repro.machine.config import MachineConfig
from repro.machine.serialize import machine_to_dict
from repro.spec.schema import KernelSpec


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace (digest input)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_digest(spec: KernelSpec) -> str:
    """Digest of a kernel description (its canonical XML form)."""
    from repro.spec.xmlio import write_kernel_spec

    return _sha(write_kernel_spec(spec))


def kernel_digest(kernel: object) -> str:
    """Digest of a measurable kernel (its emitted program text).

    Accepts every input form the launcher accepts: a
    :class:`~repro.creator.GeneratedKernel`, an ``AsmProgram``, a
    ``SimKernel``, source text, or a path to a source file.  Two kernels
    with identical emitted text hash identically — exactly the dedup rule
    the code-generation pass already applies.

    The digest is memoized on the kernel *object*, in a ``_digest_memo``
    attribute, so a sweep hashing the same kernel once per option point
    emits and hashes its text only once.  Objects that cannot take that
    attribute recompute on every call.  Text and path inputs are never
    memoized: a path's content can change, and hashing a string is the
    memo lookup.
    """
    if isinstance(kernel, (str, Path)):
        return _sha(_kernel_text(kernel))
    memo = getattr(kernel, "_digest_memo", None)
    if isinstance(memo, str):
        return memo
    digest = _sha(_kernel_text(kernel))
    try:
        kernel._digest_memo = digest  # type: ignore[attr-defined]
    except (AttributeError, TypeError):
        pass  # no memo slot: recompute next time
    return digest


def _kernel_text(kernel: object) -> str:
    if isinstance(kernel, AsmProgram):
        return write_program(kernel, full_file=True)
    asm_text = getattr(kernel, "asm_text", None)
    if callable(asm_text):  # GeneratedKernel
        return asm_text(full_file=True)
    program = getattr(kernel, "program", None)
    if isinstance(program, AsmProgram):  # SimKernel / CompiledKernel
        return write_program(program, full_file=True)
    if isinstance(kernel, Path):
        return kernel.read_text()
    if isinstance(kernel, str):
        if "\n" not in kernel and kernel.endswith((".s", ".c", ".f", ".f90")):
            return Path(kernel).read_text()
        return kernel
    raise TypeError(
        f"cannot digest {type(kernel).__name__}; pass a GeneratedKernel, "
        "AsmProgram, SimKernel, source text, or a source-file path"
    )


def creator_options_digest(options: object) -> str:
    """Digest of a :class:`~repro.creator.CreatorOptions` value (or ``None``).

    One half of the generation-cache key: the same spec expanded under
    different creator knobs (random selection, seed, limits) yields a
    different variant set and must not share cache entries.  ``None``
    digests like the default options, which is what ``MicroCreator()``
    runs with.
    """
    import dataclasses

    from repro.creator.pass_manager import CreatorOptions

    payload = dataclasses.asdict(options if options is not None else CreatorOptions())
    return _sha(canonical_json(payload))


def options_digest(options: object) -> str:
    """Digest of a :class:`~repro.launcher.LauncherOptions` value."""
    from repro.engine.serialize import options_to_dict

    return _sha(canonical_json(options_to_dict(options)))


def machine_digest(config: MachineConfig) -> str:
    """Digest of a machine description (its serialized dict form)."""
    return _sha(canonical_json(machine_to_dict(config)))


def job_id_for(
    kernel_dig: str, options_dig: str, machine_dig: str, mode: str
) -> str:
    """Stable 16-hex-digit job ID from the component digests."""
    return _sha("|".join((kernel_dig, options_dig, machine_dig, mode)))[:16]
