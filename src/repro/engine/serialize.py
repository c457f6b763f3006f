"""Engine serialization: ``Measurement`` <-> dict, options -> dict.

The result cache, the worker-pool replies, and the JSONL output format
all speak plain JSON-safe dicts.  Floats survive exactly (JSON carries
the shortest round-trip repr); tuples come back as tuples for the typed
``Measurement`` fields and as lists inside free-form metadata.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.launcher.measurement import Measurement
from repro.launcher.options import LauncherOptions


def _json_safe(value: object) -> object:
    """Best-effort conversion of a metadata value to JSON-native types."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def measurement_to_dict(m: Measurement) -> dict:
    """Serialize a measurement to a JSON-safe dict (exact round-trip)."""
    return {
        "kernel_name": m.kernel_name,
        "label": m.label,
        "trip_count": m.trip_count,
        "repetitions": m.repetitions,
        "loop_iterations": m.loop_iterations,
        "elements_per_iteration": m.elements_per_iteration,
        "n_memory_instructions": m.n_memory_instructions,
        "experiment_tsc": list(m.experiment_tsc),
        "freq_ghz": m.freq_ghz,
        "tsc_ghz": m.tsc_ghz,
        "aggregator": m.aggregator,
        "alignments": list(m.alignments),
        "core": m.core,
        "n_cores": m.n_cores,
        "bottleneck": m.bottleneck,
        "metadata": _json_safe(m.metadata),
    } | (
        # Quality fields exist only on adaptive records; fixed-count
        # serialization stays byte-identical to the pre-adaptive format.
        {
            "ci_low": m.ci_low,
            "ci_high": m.ci_high,
            "rciw": m.rciw,
            "converged": m.converged,
        }
        if m.rciw is not None
        else {}
    )


def _tupled(value: object) -> object:
    """Normalize JSON lists back to tuples (metadata convention)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tupled(v) for v in value)
    if isinstance(value, dict):
        return {k: _tupled(v) for k, v in value.items()}
    return value


#: Every field :func:`measurement_from_dict` accepts.
_MEASUREMENT_FIELDS = frozenset(f.name for f in dataclasses.fields(Measurement))


def measurement_from_dict(data: dict) -> Measurement:
    """Reconstruct a measurement from :func:`measurement_to_dict` output.

    Sequences inside ``metadata`` come back as tuples: the launcher
    records metadata immutably, and JSON cannot tell the two apart.
    """
    data = dict(data)
    data["experiment_tsc"] = tuple(data.get("experiment_tsc", ()))
    data["alignments"] = tuple(data.get("alignments", ()))
    data["metadata"] = {
        k: _tupled(v) for k, v in (data.get("metadata") or {}).items()
    }
    unknown = set(data) - _MEASUREMENT_FIELDS
    if unknown:
        raise ValueError(f"unknown measurement fields: {sorted(unknown)}")
    return Measurement(**data)


def measurements_from_payload(payload: object) -> list[Measurement]:
    """Strictly decode a worker or cache payload into measurements.

    Workers and cache files are not trusted: a crashed process, an
    injected fault, or a damaged JSONL line can hand the scheduler
    anything.  Raises :class:`ValueError` for any payload that is not a
    non-empty list of dicts each reconstructing a valid
    :class:`Measurement` — the scheduler treats that as a failed
    attempt, not a result.
    """
    if not isinstance(payload, list) or not payload:
        raise ValueError("payload is not a non-empty measurement list")
    try:
        return [measurement_from_dict(d) for d in payload]
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ValueError(f"corrupt measurement payload: {exc}") from None


#: Fields omitted from the options dict while at their defaults.  This
#: dict feeds ``options_digest`` and therefore every job id and derived
#: noise seed — unconditionally serializing fields added after the format
#: froze would re-key every existing cache and change fixed-count output
#: bytes.  Adaptive knobs appear in the digest only when they matter
#: (i.e. when any of them is changed from its default).
_DIGEST_DEFAULT_FIELDS = (
    "rciw_target",
    "min_experiments",
    "max_experiments",
    "batch_size",
)


def options_to_dict(options: LauncherOptions) -> dict:
    """Serialize launcher options to a JSON-safe dict (digest input)."""
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(LauncherOptions)
        if f.name in _DIGEST_DEFAULT_FIELDS
    }
    return {
        f.name: _json_safe(getattr(options, f.name))
        for f in dataclasses.fields(LauncherOptions)
        if f.name not in defaults
        or getattr(options, f.name) != defaults[f.name]
    }
