"""Pass-pipeline tests: one schedule, so tracing never changes the variants."""

import pytest

from repro import obs
from repro.creator import CreatorOptions, MicroCreator
from repro.creator.pass_manager import CreatorContext, Pass, default_pass_pipeline
from repro.kernels import loadstore_family
from repro.spec.builders import load_kernel


def _generate(creator, spec, *, traced):
    """``creator.generate(spec)`` with observability on or off."""
    if traced:
        obs.enable()
    else:
        obs.disable()
    try:
        return creator.generate(spec)
    finally:
        obs.disable()


class TakeFirstPass(Pass):
    """A whole-list plugin pass: keeps only the first variant.

    ``streamable = True`` was the flag under which an untraced run
    applied ``run`` to each variant separately (510 variants untraced,
    1 traced); the pipeline must ignore it.
    """

    name = "take_first"
    streamable = True

    def run(self, variants, ctx):
        return list(variants[:1])


OPTIONS = {
    "default": CreatorOptions(),
    "max_benchmarks": CreatorOptions(max_benchmarks=40),
    "random_selection": CreatorOptions(random_selection=5, seed=42),
}


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize("case", sorted(OPTIONS))
    def test_same_variants(self, case):
        spec = loadstore_family("movaps")
        untraced = _generate(MicroCreator(OPTIONS[case]), spec, traced=False)
        traced = _generate(MicroCreator(OPTIONS[case]), spec, traced=True)
        assert [k.name for k in untraced] == [k.name for k in traced]
        assert [k.metadata for k in untraced] == [k.metadata for k in traced]
        assert [k.asm_text() for k in untraced] == [k.asm_text() for k in traced]
        if case == "max_benchmarks":
            assert len(untraced) <= 40

    def test_pass_manager_run(self):
        """PassManager.run, below MicroCreator, is also trace-independent."""
        ctx = CreatorContext(spec=loadstore_family("movaps"))
        obs.disable()
        untraced = default_pass_pipeline().run(ctx)
        obs.enable()
        try:
            traced = default_pass_pipeline().run(ctx)
        finally:
            obs.disable()
        assert len(untraced) == len(traced)
        assert [v.metadata for v in untraced] == [v.metadata for v in traced]

    @pytest.mark.parametrize("traced", [False, True])
    def test_dedup_spans_the_whole_list(self, traced):
        """Code generation dedups across every variant, not per variant."""
        kernels = _generate(MicroCreator(), load_kernel("movaps"), traced=traced)
        texts = [k.asm_text() for k in kernels]
        assert len(texts) == len(set(texts))

    @pytest.mark.parametrize("traced", [False, True])
    def test_whole_list_plugin_pass(self, traced):
        creator = MicroCreator()
        creator.pass_manager.insert_pass_before("code_generation", TakeFirstPass())
        kernels = _generate(creator, loadstore_family("movaps"), traced=traced)
        assert len(kernels) == 1
