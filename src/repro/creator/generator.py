"""The MicroCreator front-end: spec in, kernel variants out."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro import obs
from repro.creator.pass_manager import (
    CreatorContext,
    CreatorOptions,
    PassManager,
    default_pass_pipeline,
)
from repro.creator.variant import GeneratedKernel
from repro.spec.schema import KernelSpec
from repro.spec.xmlio import parse_kernel_spec, parse_spec_file


class MicroCreator:
    """Generates microbenchmark program variants from kernel descriptions.

    Parameters
    ----------
    options:
        Generation knobs (random selection, limits, scheduling, ...).
    pass_manager:
        A custom pipeline; defaults to the nineteen-pass pipeline of
        section 3.2.
    plugins:
        Plugin modules or file paths, each exposing ``pluginInit(pm)``;
        loaded in order against the pass manager before any generation
        (section 3.3).
    """

    def __init__(
        self,
        options: CreatorOptions | None = None,
        *,
        pass_manager: PassManager | None = None,
        plugins: Iterable[object] = (),
    ) -> None:
        self.options = options or CreatorOptions()
        self.pass_manager = pass_manager or default_pass_pipeline()
        from repro.creator.plugins import load_plugin, load_plugin_file

        for plugin in plugins:
            if isinstance(plugin, (str, Path)):
                load_plugin_file(plugin, self.pass_manager)
            else:
                load_plugin(plugin, self.pass_manager)

    def generate(self, spec: KernelSpec) -> list[GeneratedKernel]:
        """Run the pipeline and return every generated variant.

        Variant function names are ``<spec name>_v<id>`` unless
        ``options.function_name`` pins a single name (only sensible when
        the spec yields one variant).
        """
        ctx = CreatorContext(spec=spec, options=self.options)
        kernels: list[GeneratedKernel] = []
        for i, ir in enumerate(self.pass_manager.run(ctx)):
            program = ir.program
            if program is None:
                raise RuntimeError(
                    "pipeline finished without code generation; did a plugin "
                    "remove the 'code_generation' pass?"
                )
            if self.options.function_name is None:
                program.name = f"{spec.name}_v{i:04d}"
            public_metadata = {
                k: v for k, v in ir.metadata.items() if not k.startswith("_")
            }
            kernels.append(
                GeneratedKernel(
                    spec_name=spec.name,
                    variant_id=i,
                    program=program,
                    metadata=public_metadata,
                )
            )
        obs.count("creator.variants.generated", len(kernels))
        return kernels

    def generate_from_xml(self, xml_text: str) -> list[GeneratedKernel]:
        """Generate from kernel-description XML text."""
        return self.generate(parse_kernel_spec(xml_text))

    def generate_from_file(self, path: str | Path) -> list[GeneratedKernel]:
        """Generate from a kernel-description XML file."""
        return self.generate(parse_spec_file(path))

    def write_all(
        self,
        kernels: Sequence[GeneratedKernel],
        directory: str | Path,
        *,
        language: str = "asm",
    ) -> list[Path]:
        """Write every variant to ``directory``; returns the paths."""
        return [k.write(directory, language=language) for k in kernels]
