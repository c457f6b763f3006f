"""MicroLauncher's options.

The paper: "there are currently more than thirty options in the
MicroLauncher tool for behavior tweaking.  These options include modifying
the input file, kernel's function name, number of arrays the kernel
requires, size of the arrays, their alignment ranges, number of
repetitions, CPU pinning, or number of cores on which to run the program"
(section 4.2).  Every one of those knobs exists here, grouped by concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.fastpickle import fast_slots_pickling
from repro.machine.config import MemLevel


@fast_slots_pickling
@dataclass(frozen=True, slots=True)
class LauncherOptions:
    """All MicroLauncher behaviour knobs (defaults suit new users).

    Input
    -----
    function_name:
        Entry-point symbol when the input holds several (``--function``).
    nbvectors:
        Number of arrays the kernel requires (``--nbvectors``); ``None``
        infers one array per memory stream.
    trip_count:
        The ``n`` passed to the kernel ABI ``int f(int n, ...)`` —
        elements to process per kernel call.

    Arrays
    ------
    array_bytes:
        Default allocation size per array; picks the hierarchy level.
    array_bytes_per_vector:
        Per-array override (tuple aligned with stream order).
    element_size:
        Bytes per logical element (cycles-per-element reporting).
    residence / residence_per_vector:
        Force a residence level instead of the footprint rule — used by
        studies that know the reuse pattern (matmul).

    Alignment
    ---------
    alignment / alignments:
        Base offset for every array, or one offset per array.
    alignment_min / alignment_max / alignment_step:
        The sweep range for :meth:`MicroLauncher.run_alignment_sweep`.
    max_alignment_configs:
        Cap on the number of swept configurations (the paper shows
        "upwards of 2500").

    Measurement (the Fig.-10 algorithm)
    -----------------------------------
    repetitions:
        Inner-loop kernel calls per timed experiment.
    experiments:
        Outer-loop timed experiments (fixed-count mode).
    rciw_target:
        Adaptive stopping: when positive, experiments run in batches and
        a configuration stops as soon as the bootstrapped relative
        confidence-interval width of its cycles-per-iteration falls to
        or under this target (see :mod:`repro.launcher.stopping`).
        ``0.0`` (the default) runs exactly ``experiments`` experiments,
        the one-round case of the same sampling loop.
    min_experiments / max_experiments:
        Adaptive mode's floor and cap on outer-loop experiments; the
        convergence test never fires before ``min_experiments`` and a
        configuration that never converges stops at ``max_experiments``.
    batch_size:
        Experiments added per adaptive sampling round after the initial
        ``min_experiments`` batch.
    warmup:
        Run the kernel once untimed first, heating I+D caches.
    subtract_overhead:
        Measure and subtract the empty-call overhead.
    aggregator:
        How the per-experiment times collapse to one number
        (``"min"`` | ``"median"`` | ``"mean"``).

    Environment
    -----------
    pin:
        Pin the (sequential) run to ``core``.
    core:
        Target core id for sequential runs.
    pin_policy:
        ``"scatter"`` (round-robin over sockets, default) or
        ``"compact"`` for multi-core placement.
    disable_interrupts:
        Mask timer interrupts during measurement.
    noise_seed:
        Seed for the deterministic noise process.
    frequency_ghz:
        Core DVFS frequency; ``None`` = the machine's nominal.

    Parallel
    --------
    n_cores:
        Process count for forked multi-core runs.
    omp_threads:
        Thread count for OpenMP runs.
    omp_region_overhead_ns:
        Fork/join cost charged per parallel region.
    sync_start:
        Synchronize forked processes before timing (section 4.6).

    Output
    ------
    csv_path:
        When set, results are appended to this CSV file.
    csv_full:
        Include every outer-loop experiment in the CSV (the "full kernel
        function's execution" option of section 4.3).
    label:
        Free-form tag copied into result rows.
    """

    # -- input ---------------------------------------------------------------
    function_name: str | None = None
    nbvectors: int | None = None
    trip_count: int = 4096

    # -- arrays ----------------------------------------------------------------
    array_bytes: int = 16 * 1024
    array_bytes_per_vector: tuple[int, ...] = ()
    element_size: int = 4
    residence: MemLevel | None = None
    residence_per_vector: tuple[MemLevel | None, ...] = ()

    # -- alignment ---------------------------------------------------------------
    alignment: int = 0
    alignments: tuple[int, ...] = ()
    alignment_min: int = 0
    alignment_max: int = 1024
    alignment_step: int = 64
    max_alignment_configs: int = 2500

    #: Residence policy: "footprint" (the paper's sizing rule) or
    #: "trace" (replay the streams through the cache simulator; catches
    #: arrays that jointly overflow a level).
    residence_mode: str = "footprint"

    #: Evaluation library: "rdtsc" (default timing) or "events" (also
    #: collect per-call performance-counter estimates) — section 4.2's
    #: switchable evaluation library.
    eval_library: str = "rdtsc"

    # -- measurement -----------------------------------------------------------
    repetitions: int = 32
    experiments: int = 8
    rciw_target: float = 0.0
    min_experiments: int = 3
    max_experiments: int = 64
    batch_size: int = 8
    warmup: bool = True
    subtract_overhead: bool = True
    aggregator: str = "min"

    # -- environment -----------------------------------------------------------
    pin: bool = True
    core: int = 0
    pin_policy: str = "scatter"
    disable_interrupts: bool = True
    noise_seed: int = 12345
    frequency_ghz: float | None = None

    # -- parallel ----------------------------------------------------------------
    n_cores: int = 1
    omp_threads: int = 1
    omp_region_overhead_ns: float = 1500.0
    sync_start: bool = True

    # -- output ------------------------------------------------------------------
    csv_path: str | None = None
    csv_full: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.trip_count < 1:
            raise ValueError("trip_count must be >= 1")
        if self.repetitions < 1 or self.experiments < 1:
            raise ValueError("repetitions and experiments must be >= 1")
        if not math.isfinite(self.rciw_target) or self.rciw_target < 0:
            raise ValueError(
                f"rciw_target must be finite and >= 0, got {self.rciw_target!r}"
            )
        if self.min_experiments < 1 or self.max_experiments < 1:
            raise ValueError("min_experiments and max_experiments must be >= 1")
        if self.min_experiments > self.max_experiments:
            raise ValueError(
                f"min_experiments ({self.min_experiments}) must not exceed "
                f"max_experiments ({self.max_experiments})"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.aggregator not in ("min", "median", "mean"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.pin_policy not in ("scatter", "compact"):
            raise ValueError(f"unknown pin policy {self.pin_policy!r}")
        if self.alignment_step < 1:
            raise ValueError("alignment_step must be >= 1")
        if self.element_size < 1:
            raise ValueError("element_size must be >= 1")
        if self.residence_mode not in ("footprint", "trace"):
            raise ValueError(f"unknown residence mode {self.residence_mode!r}")
        from repro.launcher.evallib import EVAL_LIBRARIES

        if self.eval_library not in EVAL_LIBRARIES:
            raise ValueError(f"unknown evaluation library {self.eval_library!r}")

    def with_(self, **changes: object) -> "LauncherOptions":
        """Copy with field overrides (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    @property
    def adaptive(self) -> bool:
        """Whether the adaptive RCIW stopping rule is in effect."""
        return self.rciw_target > 0.0

    @property
    def experiment_budget(self) -> int:
        """Most outer-loop experiments this run may take.

        ``experiments`` in fixed-count mode, ``max_experiments`` under
        adaptive stopping — the length any per-experiment input (e.g.
        unsynchronized parallel ideals) must cover.
        """
        return self.max_experiments if self.adaptive else self.experiments

    def array_size(self, index: int) -> int:
        """Allocation size for array ``index``."""
        if index < len(self.array_bytes_per_vector):
            return self.array_bytes_per_vector[index]
        return self.array_bytes

    def array_residence(self, index: int) -> MemLevel | None:
        if index < len(self.residence_per_vector):
            override = self.residence_per_vector[index]
            if override is not None:
                return override
        return self.residence

    def array_alignment(self, index: int) -> int:
        if index < len(self.alignments):
            return self.alignments[index]
        return self.alignment
