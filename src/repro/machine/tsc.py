"""The simulated timestamp counter.

The paper's MicroLauncher times kernels with ``rdtsc`` [ref 5], whose
modern ("invariant TSC") behaviour counts at the *nominal* frequency
regardless of the core's current DVFS state.  That invariance is the
mechanism behind Fig. 13: when the core slows down, core-bound work takes
more TSC cycles, while uncore-bound work (L3/RAM) takes the same number.

:class:`TimestampCounter` is a virtual clock: the launcher advances it by
simulated durations and reads it exactly like ``rdtsc``.
"""

from __future__ import annotations


class TimestampCounter:
    """A monotonically advancing reference-frequency cycle counter."""

    def __init__(self, nominal_ghz: float) -> None:
        if nominal_ghz <= 0:
            raise ValueError("nominal frequency must be positive")
        self.nominal_ghz = nominal_ghz
        self._now_ns = 0.0

    def read(self) -> int:
        """Current counter value in TSC cycles (what ``rdtsc`` returns)."""
        return int(self._now_ns * self.nominal_ghz)

    def advance_ns(self, duration_ns: float) -> None:
        """Advance simulated wall-clock time."""
        if duration_ns < 0:
            raise ValueError("time cannot run backwards")
        self._now_ns += duration_ns

    def advance_core_cycles(self, cycles: float, core_freq_ghz: float) -> None:
        """Advance by work measured in *core* cycles at the current DVFS
        frequency — the conversion that makes TSC counts DVFS-dependent
        for core-bound work."""
        if core_freq_ghz <= 0:
            raise ValueError("core frequency must be positive")
        self._now_ns += cycles / core_freq_ghz

    def cycles_between(self, start: int, end: int) -> int:
        """Elapsed TSC cycles between two reads."""
        return end - start
