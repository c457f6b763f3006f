"""Declarative campaigns: kernel grids x launcher-option axes -> jobs.

A :class:`SweepSpec` names what to measure (explicit kernels, or a kernel
description expanded through :meth:`MicroCreator.generate` with an
optional variant filter), a base :class:`~repro.launcher.LauncherOptions`,
and the option axes to sweep.  A :class:`Campaign` groups sweeps against
one machine and expands them — deterministically — into :class:`Job`
records whose IDs hash the measured content (kernel text + options +
machine + mode), never the expansion order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from repro.engine.hashing import (
    job_id_for,
    kernel_digest,
    machine_digest,
    options_digest,
)
from repro.fastpickle import fast_slots_pickling
from repro.launcher.options import LauncherOptions
from repro.machine.config import MachineConfig
from repro.spec.schema import KernelSpec

#: Execution modes a job may request, mirroring the launcher entry points.
JOB_MODES = ("sequential", "forked", "openmp", "alignment_sweep")

#: Modulus keeping derived noise seeds in a comfortable integer range.
_SEED_SPACE = 2**31 - 1


@fast_slots_pickling
@dataclass(frozen=True, slots=True)
class Job:
    """One schedulable measurement: a kernel, options, and a mode.

    ``job_id`` is a stable content hash (kernel-text digest + options
    digest + machine digest + mode) — the cache key.  ``index`` is the
    job's position in the campaign's deterministic expansion order, used
    only to order result rows.  ``tags`` carries the sweep's labels plus
    the axis values that produced this point, so consumers can group
    results without re-deriving the grid.
    """

    job_id: str
    index: int
    kernel: object
    kernel_name: str
    mode: str
    options: LauncherOptions
    tags: dict[str, object] = field(default_factory=dict)
    #: Digest of the kernel's emitted text (one component of ``job_id``),
    #: carried so workers can memoize kernel-model evaluation across jobs
    #: that sweep options over the same kernel.
    kernel_digest: str = ""

    def execution_options(self) -> LauncherOptions:
        """Options actually run: the per-job derived noise seed applied.

        The seed blends the configured base seed with the job's content
        hash, so (a) every job perturbs its measurements with an
        independent noise stream — grid neighbours do not share spikes —
        and (b) the stream depends only on the job's identity, making
        results bit-identical regardless of worker count or scheduling
        order.
        """
        derived = (self.options.noise_seed + int(self.job_id, 16)) % _SEED_SPACE
        return self.options.with_(noise_seed=derived)


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """One grid of a campaign: kernels x option axes, under one mode.

    Parameters
    ----------
    kernels:
        Explicit kernel objects (anything the launcher accepts).
    spec:
        Alternatively, a kernel description: variants are generated
        through :meth:`MicroCreator.generate` at expansion time.
    variant_filter:
        With ``spec``: keep only variants this predicate accepts (the
        "generated-variant filter" axis of a campaign).
    base:
        Options every point starts from.
    axes:
        Mapping of ``LauncherOptions`` field name -> values to sweep.
        Points expand as the Cartesian product in the mapping's order.
    mode:
        ``"sequential"`` | ``"forked"`` | ``"openmp"`` |
        ``"alignment_sweep"`` — which launcher entry point runs the job.
    tags:
        Free-form labels copied into every job's ``tags`` (axis values
        are merged in automatically).
    """

    kernels: tuple = ()
    spec: KernelSpec | None = None
    variant_filter: Callable[[object], bool] | None = None
    base: LauncherOptions = field(default_factory=LauncherOptions)
    axes: Mapping[str, Sequence] = field(default_factory=dict)
    mode: str = "sequential"
    tags: Mapping[str, object] = field(default_factory=dict)
    #: Creator knobs for spec expansion (``None`` = defaults).  Part of
    #: the generation-cache key: different knobs, different variants.
    creator_options: object = None

    def __post_init__(self) -> None:
        if self.mode not in JOB_MODES:
            raise ValueError(f"unknown job mode {self.mode!r}; have {JOB_MODES}")
        if not self.kernels and self.spec is None:
            raise ValueError("sweep needs kernels or a spec to expand")
        valid = set(LauncherOptions.__dataclass_fields__)
        unknown = set(self.axes) - valid
        if unknown:
            raise ValueError(f"unknown option axes: {sorted(unknown)}")

    def iter_kernels(self, gen_cache=None) -> Iterator[object]:
        """The sweep's kernels: explicit ones first, then the spec's variants.

        With a :class:`~repro.engine.store.ShardedGenerationCache`, spec
        expansion goes through it: a warm cache skips the pass pipeline,
        a cold one populates it.  The variant filter applies after either
        path — cache entries always hold the complete expansion.
        """
        yield from self.kernels
        if self.spec is None:
            return
        from repro.engine.generation import expand_spec_variants

        for variant in expand_spec_variants(
            self.spec, self.creator_options, gen_cache
        ):
            if self.variant_filter is None or self.variant_filter(variant):
                yield variant

    def option_points(self) -> Iterator[dict[str, object]]:
        """Every axis combination as a field-override dict."""
        if not self.axes:
            yield {}
            return
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))


@dataclass(frozen=True, slots=True)
class Campaign:
    """A named set of sweeps against one machine."""

    name: str
    machine: MachineConfig
    sweeps: Sequence[SweepSpec]
    description: str = ""

    def jobs(self, *, gen_cache=None, defer: bool = False) -> Iterator[Job]:
        """Expand every sweep into jobs, in deterministic order.

        Kernels from a spec come from one run of the pass pipeline per
        sweep, or from ``gen_cache`` when one is given and warm.

        With ``defer=True``, spec-derived jobs carry a
        :class:`~repro.engine.generation.KernelRef` instead of the
        rendered kernel — workers regenerate their slice locally.  Job
        IDs are content hashes either way, so deferral never changes a
        job's identity or its results.  Explicit kernels are always
        shipped as-is: there is nothing to regenerate them from.
        """
        machine_dig = machine_digest(self.machine)
        index = 0
        for sweep in self.sweeps:
            # Options, their digest and the tags depend only on the
            # option point, so build them once per sweep, not per kernel.
            # Jobs of one point share the frozen options object; each job
            # still gets its own (mutable) tags dict.
            points = []
            for overrides in sweep.option_points():
                options = sweep.base.with_(**overrides)
                points.append(
                    (options, options_digest(options), dict(sweep.tags, **overrides))
                )
            n_explicit = len(sweep.kernels)
            spec_dig = opts_dig = ""
            if defer and sweep.spec is not None:
                from repro.engine.generation import KernelRef
                from repro.engine.hashing import (
                    creator_options_digest,
                    spec_digest,
                )

                spec_dig = spec_digest(sweep.spec)
                opts_dig = creator_options_digest(sweep.creator_options)
            for ki, kernel in enumerate(sweep.iter_kernels(gen_cache)):
                kernel_dig = kernel_digest(kernel)
                kernel_name = getattr(kernel, "name", None) or str(kernel)
                payload: object = kernel
                if defer and ki >= n_explicit:
                    payload = KernelRef(
                        spec=sweep.spec,
                        options=sweep.creator_options,
                        spec_dig=spec_dig,
                        opts_dig=opts_dig,
                        variant_id=kernel.variant_id,  # type: ignore[attr-defined]
                        digest=kernel_dig,
                        name=kernel_name,
                    )
                for options, point_dig, tags in points:
                    yield Job(
                        job_id=job_id_for(
                            kernel_dig, point_dig, machine_dig, sweep.mode
                        ),
                        index=index,
                        kernel=payload,
                        kernel_name=kernel_name,
                        mode=sweep.mode,
                        options=options,
                        tags=dict(tags),
                        kernel_digest=kernel_dig,
                    )
                    index += 1

    def job_list(self, *, gen_cache=None, defer: bool = False) -> list[Job]:
        """The fully expanded job list."""
        return list(self.jobs(gen_cache=gen_cache, defer=defer))
