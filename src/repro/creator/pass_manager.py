"""The pass framework: gates, ordering, expansion limits, plugin hooks.

Passes are *entirely independent* (section 3.3): each receives the variant
list produced so far and returns a new list.  A pass runs only when its
gate returns true; most default gates always return true, exactly as the
paper notes, and plugins may redefine any gate or replace any pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.creator.ir import KernelIR
from repro.spec.schema import KernelSpec


@dataclass(slots=True)
class CreatorOptions:
    """Knobs controlling generation.

    Attributes
    ----------
    random_selection:
        When set, the random-selection pass keeps this many randomly
        chosen variants after instruction selection (the paper's "random
        instruction selection" mode).
    seed:
        RNG seed for random selection — generation is deterministic.
    max_benchmarks:
        Global cap on the variant count; overrides the spec's own
        ``max_benchmarks`` when lower.  Enforced after every expanding
        pass so a pathological spec cannot explode memory.
    schedule:
        Enables the (default-gated-off) scheduling pass that interleaves
        induction updates into the unrolled body.
    function_name:
        Symbol name for the generated kernel entry point; ``None`` derives
        one from the spec name and variant index.
    """

    random_selection: int | None = None
    seed: int = 0
    max_benchmarks: int | None = None
    schedule: bool = False
    function_name: str | None = None


@dataclass(slots=True)
class CreatorContext:
    """Everything a pass may consult: the spec, options, and scratch state."""

    spec: KernelSpec
    options: CreatorOptions = field(default_factory=CreatorOptions)

    @property
    def benchmark_limit(self) -> int | None:
        limits = [l for l in (self.spec.max_benchmarks, self.options.max_benchmarks) if l]
        return min(limits) if limits else None


class Pass:
    """Base class for MicroCreator passes.

    Subclasses set :attr:`name` and implement :meth:`run`.  The default
    :meth:`gate` always fires, matching the paper ("Most internal passes
    are performed because their gates always return true"); plugins
    override gates via :meth:`PassManager.set_gate`.
    """

    #: Unique pass name used for plugin addressing.
    name: str = "pass"

    def gate(self, ctx: CreatorContext) -> bool:
        """Decide whether the pass executes for this generation run."""
        return True

    def run(self, variants: Sequence[KernelIR], ctx: CreatorContext) -> list[KernelIR]:
        """Transform the variant list (pure: no mutation of inputs)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PerVariantPass(Pass):
    """A pass defined by its per-variant expansion.

    Subclasses implement :meth:`expand` only; :meth:`run` is derived by
    concatenation.
    """

    def expand(self, variant: KernelIR, ctx: CreatorContext) -> Iterable[KernelIR]:
        raise NotImplementedError

    def run(self, variants: Sequence[KernelIR], ctx: CreatorContext) -> list[KernelIR]:
        return [out for variant in variants for out in self.expand(variant, ctx)]


GateFn = Callable[[CreatorContext], bool]


class PassManager:
    """Ordered pass pipeline with the plugin-facing manipulation API.

    The API mirrors what the paper exposes to plugins: add, remove or
    replace a pass, and redefine any pass's gate, all without recompiling
    (here: without editing) the tool.
    """

    def __init__(self, passes: Iterable[Pass] = ()) -> None:
        self._passes: list[Pass] = list(passes)
        self._gate_overrides: dict[str, GateFn] = {}
        self._seen_names: set[str] = set()
        for p in self._passes:
            self._check_unique(p)

    def _check_unique(self, p: Pass) -> None:
        if p.name in self._seen_names:
            raise ValueError(f"duplicate pass name {p.name!r}")
        self._seen_names.add(p.name)

    # -- plugin API ----------------------------------------------------------

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self._passes]

    def get_pass(self, name: str) -> Pass:
        for p in self._passes:
            if p.name == name:
                return p
        raise KeyError(f"no pass named {name!r}; have {self.pass_names}")

    def _index(self, name: str) -> int:
        for i, p in enumerate(self._passes):
            if p.name == name:
                return i
        raise KeyError(f"no pass named {name!r}; have {self.pass_names}")

    def append_pass(self, new: Pass) -> None:
        self._check_unique(new)
        self._passes.append(new)

    def insert_pass_before(self, name: str, new: Pass) -> None:
        self._check_unique(new)
        self._passes.insert(self._index(name), new)

    def insert_pass_after(self, name: str, new: Pass) -> None:
        self._check_unique(new)
        self._passes.insert(self._index(name) + 1, new)

    def remove_pass(self, name: str) -> Pass:
        removed = self._passes.pop(self._index(name))
        self._seen_names.discard(name)
        self._gate_overrides.pop(name, None)
        return removed

    def replace_pass(self, name: str, new: Pass) -> Pass:
        """Swap the named pass for ``new`` (which may reuse the name).

        Renaming frees the old name for reuse and drops any gate
        override registered under it — a later pass adopting the old
        name must not inherit a stale gate.  A same-name replacement
        keeps its override: gates address names, not instances.
        """
        idx = self._index(name)
        old = self._passes[idx]
        if new.name != name:
            self._seen_names.discard(name)
            self._check_unique(new)
            self._gate_overrides.pop(name, None)
        self._passes[idx] = new
        return old

    def set_gate(self, name: str, gate: GateFn) -> None:
        """Redefine when the named pass executes (section 3.3)."""
        self._index(name)  # validate existence
        self._gate_overrides[name] = gate

    def gate_for(self, p: Pass, ctx: CreatorContext) -> bool:
        override = self._gate_overrides.get(p.name)
        return override(ctx) if override is not None else p.gate(ctx)

    # -- execution -----------------------------------------------------------

    def run(self, ctx: CreatorContext) -> list[KernelIR]:
        """Run the pipeline on the context's spec, one pass at a time.

        Each gated pass sees its predecessor's complete output.  After
        every pass the variant count is clamped to the benchmark limit
        (deterministic even subsampling), so intermediate explosion is
        bounded by the same knob the paper offers users.  Every pass runs
        in a ``pass:<name>`` span under ``creator.pipeline``; with
        observability off the spans are no-ops, so traced and untraced
        runs execute the same schedule and return the same variants.
        """
        limit = ctx.benchmark_limit
        with obs.span("creator.pipeline", spec=ctx.spec.name) as pipeline:
            variants: list[KernelIR] = [KernelIR.from_spec(ctx.spec)]
            for p in self._passes:
                if not self.gate_for(p, ctx):
                    continue
                with obs.span(
                    f"pass:{p.name}",
                    metric="creator.pass.duration_ms",
                    variants_in=len(variants),
                ) as sp:
                    out = p.run(variants, ctx)
                    if not isinstance(out, list):  # defensive: plugin passes
                        out = list(out)
                    if limit is not None and len(out) > limit:
                        out = _evenly_subsample(out, limit)
                    sp.set(variants_out=len(out))
                    variants = out
            pipeline.set(variants=len(variants))
        return variants


def _evenly_subsample(variants: list[KernelIR], limit: int) -> list[KernelIR]:
    """Keep ``limit`` variants spread evenly across the list (deterministic)."""
    if limit >= len(variants):
        return list(variants)  # always a fresh list: callers may mutate
    step = len(variants) / limit
    return [variants[int(i * step)] for i in range(limit)]


def default_pass_pipeline() -> PassManager:
    """The nineteen-pass pipeline of section 3.2, in paper order."""
    # Imported here to avoid an import cycle (passes import Pass from us).
    from repro.creator.passes import all_default_passes

    return PassManager(all_default_passes())
