"""Deferred variant generation: ship spec references, not programs.

A spec-backed sweep can expand to thousands of variants; pickling every
rendered program into every worker chunk makes the parent's serialization
cost scale with kernel text size.  Generation is deterministic, so a job
only needs to carry *which* variant it measures — a :class:`KernelRef`
naming ``(spec, creator options, variant index)`` plus the expected
content digest — and the worker regenerates its slice locally.

Workers memoize the expansion per ``(spec digest, options digest)`` (the
same pattern as the simulation-kernel memo), and the scheduler groups
chunks by spec, so each worker runs the pass pipeline at most once per
spec it touches regardless of chunk size.  The digest check on every
resolution guarantees a worker regenerated exactly the kernel the parent
hashed into the job ID — any drift fails the job instead of silently
measuring the wrong program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.engine.hashing import (
    creator_options_digest,
    kernel_digest,
    spec_digest,
)
from repro.fastpickle import fast_slots_pickling
from repro.spec.schema import KernelSpec

if TYPE_CHECKING:
    from repro.creator.pass_manager import CreatorOptions
    from repro.engine.store import ShardedGenerationCache

#: Expansions kept per process.  A chunk references one spec and
#: campaigns interleave few specs per worker, so a handful suffices.
#: The memo is LRU, like the simulation-kernel memo: long-lived pool
#: workers hold it across campaigns, so a hit keeps an expansion alive
#: and the least recently used one is evicted first.
_GEN_MEMO_MAX = 4

_GEN_MEMO: dict[tuple[str, str], dict[int, object]] = {}


@fast_slots_pickling
@dataclass(frozen=True, slots=True)
class KernelRef:
    """A variant by reference: regenerate me where you measure me.

    Digests are computed once at expansion time and carried along, so
    neither the parent (building job IDs) nor the worker (keying its
    memo) re-derives them per job.
    """

    spec: KernelSpec
    options: "CreatorOptions | None"
    spec_dig: str
    opts_dig: str
    variant_id: int
    digest: str
    name: str

    def memo_key(self) -> tuple[str, str]:
        """The expansion this ref resolves from (one pipeline run each)."""
        return (self.spec_dig, self.opts_dig)


def expand_spec_variants(
    spec: KernelSpec,
    options: "CreatorOptions | None",
    gen_cache: "ShardedGenerationCache | None",
) -> list[object]:
    """Every variant of ``spec`` under ``options``, cached when possible.

    A warm :class:`~repro.engine.store.ShardedGenerationCache` returns
    :class:`~repro.engine.gencache.CachedVariant` handles without running
    the pass pipeline; a miss generates, stores the full expansion
    (pre-filter — the cache key knows nothing about sweep filters), and
    returns the fresh kernels.
    """
    from repro.creator import MicroCreator

    if gen_cache is None:
        return MicroCreator(options).generate(spec)
    spec_dig = spec_digest(spec)
    opts_dig = creator_options_digest(options)
    cached = gen_cache.get(spec_dig, opts_dig)
    if cached is not None:
        return cached
    variants: list[object] = MicroCreator(options).generate(spec)
    gen_cache.put(spec_dig, opts_dig, spec.name, variants)
    return variants


def resolve_kernel_ref(ref: KernelRef) -> object:
    """Regenerate the referenced variant (memoized per process).

    Raises ``RuntimeError`` when the regenerated slice has no such
    variant or its digest disagrees with the ref — the scheduler treats
    that as a failed attempt, never as a result.
    """
    key = ref.memo_key()
    expansion = _GEN_MEMO.pop(key, None)
    if expansion is None:
        with obs.span("gen.worker", spec=ref.spec.name) as sp:
            from repro.creator import MicroCreator

            variants = MicroCreator(ref.options).generate(ref.spec)
            sp.set(variants=len(variants))
        expansion = {v.variant_id: v for v in variants}  # type: ignore[attr-defined]
        while len(_GEN_MEMO) >= _GEN_MEMO_MAX:
            _GEN_MEMO.pop(next(iter(_GEN_MEMO)))
    # LRU: re-insert at the tail on hit and miss alike — workers persist
    # across campaigns now, so the expansions still in use must outlive
    # colder ones.
    _GEN_MEMO[key] = expansion
    kernel = expansion.get(ref.variant_id)
    if kernel is None:
        raise RuntimeError(
            f"spec {ref.spec.name!r} regenerated {len(expansion)} variants; "
            f"no variant {ref.variant_id} (stale reference?)"
        )
    if kernel_digest(kernel) != ref.digest:
        raise RuntimeError(
            f"variant {ref.name!r} regenerated with digest "
            f"{kernel_digest(kernel)[:12]}..., expected {ref.digest[:12]}...; "
            "generation is not deterministic across processes"
        )
    return kernel
