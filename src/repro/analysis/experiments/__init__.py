"""The experiment registry: every paper exhibit as a callable.

Each experiment function returns an :class:`ExperimentResult` with the
series/rows the paper's figure or table reports, plus scalar ``notes``
(knees, spreads, gains) that the benchmark harness asserts against the
paper's shape claims.  ``quick=True`` shrinks sweeps for the test suite;
the benchmarks run the full versions.

Registry keys match DESIGN.md's experiment index: ``fig02``...``fig18``,
``table1``, ``table2``, ``generation_scale``, ``stability``, and the
design-choice ablations.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.series import Series, Table, render_series


@dataclass(slots=True)
class ExperimentResult:
    """Output of one reproduced exhibit."""

    exhibit: str
    title: str
    paper_expectation: str
    series: list[Series] = field(default_factory=list)
    tables: list[Table] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    x_label: str = "x"

    def render(self) -> str:
        """Human-readable reproduction report (what the bench prints)."""
        parts = [f"== {self.exhibit}: {self.title} ==",
                 f"paper: {self.paper_expectation}"]
        if self.series:
            parts.append(render_series(self.series, x_label=self.x_label))
        for table in self.tables:
            parts.append(table.render())
        if self.notes:
            parts.append(
                "notes: " + ", ".join(f"{k}={_fmt(v)}" for k, v in self.notes.items())
            )
        return "\n".join(parts)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def register(name: str):
    """Decorator adding an experiment function under ``name``."""

    def deco(fn: Callable[..., ExperimentResult]):
        if name in _REGISTRY:
            raise ValueError(f"duplicate experiment {name!r}")
        _REGISTRY[name] = fn
        return fn

    return deco


def pure_loads(opcode: str, unroll: int | None = None):
    """The pure-load variants of ``loadstore_family(opcode)``.

    Generates the family (one pipeline run per call) and keeps the
    variants whose every memory copy is a load — one per unroll factor:
    all of them in unroll order, or the one at ``unroll``.
    """
    from repro.creator import MicroCreator
    from repro.kernels import loadstore_family

    loads = sorted(
        (
            k
            for k in MicroCreator().generate(loadstore_family(opcode))
            if set(k.mix) == {"L"}
        ),
        key=lambda k: k.unroll,
    )
    if unroll is None:
        return loads
    return next(k for k in loads if k.unroll == unroll)


class UnsupportedSetting(TypeError):
    """An experiment was handed a setting it would silently ignore."""


def available_experiments() -> list[str]:
    _load_all()
    return sorted(_REGISTRY)


def run_experiment(
    name: str,
    *,
    quick: bool = False,
    rciw_target: float | None = None,
    max_experiments: int | None = None,
    **engine: object,
) -> ExperimentResult:
    """Run a registered experiment by exhibit id (e.g. ``"fig11"``).

    ``engine`` holds ``run_campaign`` keywords (``jobs``, ``cache_dir``,
    ``resume``, ...), which campaign-backed experiments hand to
    ``run_campaign``.  A setting the experiment cannot apply — an engine
    setting for an experiment that runs no campaign, a stopping setting
    for one without adaptive stopping, or a name ``run_campaign`` does
    not take — raises :class:`UnsupportedSetting`, unless it has its
    default value.
    """
    from repro import obs

    _load_all()
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    _refuse_ignored(
        name,
        fn,
        engine,
        {"rciw_target": rciw_target, "max_experiments": max_experiments},
    )
    with obs.span(f"experiment:{name}", metric="analysis.experiment.duration_ms"):
        return fn(
            quick=quick,
            rciw_target=rciw_target,
            max_experiments=max_experiments,
            engine=engine,
        )


def _refuse_ignored(
    name: str,
    fn: Callable[..., ExperimentResult],
    engine: dict[str, object],
    stopping: dict[str, object],
) -> None:
    from repro.engine import run_campaign

    defaults = {
        key: param.default
        for key, param in inspect.signature(run_campaign).parameters.items()
        if param.kind is param.KEYWORD_ONLY
    }
    unknown = sorted(set(engine) - set(defaults))
    if unknown:
        raise UnsupportedSetting(
            f"unknown engine setting(s): {', '.join(unknown)}"
        )
    takes = inspect.signature(fn).parameters
    ignored = [
        f"{k}={v!r}"
        for k, v in engine.items()
        if "engine" not in takes and v != defaults[k]
    ] + [
        f"{k}={v!r}"
        for k, v in stopping.items()
        if k not in takes and v is not None
    ]
    if ignored:
        raise UnsupportedSetting(f"{name} cannot apply {', '.join(ignored)}")


def _load_all() -> None:
    # Import side-effectfully so @register runs; idempotent.
    from repro.analysis.experiments import (  # noqa: F401
        ablations,
        extensions,
        meta,
        motivation,
        parallel,
        sequential,
        uses,
    )


__all__ = [
    "ExperimentResult",
    "UnsupportedSetting",
    "pure_loads",
    "register",
    "available_experiments",
    "run_experiment",
]
