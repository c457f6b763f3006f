"""Pool reply bodies: exact round-trips or loud failure.

A pool worker answers a chunk with its ``run_chunk`` records pickled
into one bytes body, and ``runner.unpack_chunk`` is the one place the
scheduler decodes it.  The byte-identity guarantee rides on that step:
it must reproduce the worker's measurement dicts *exactly* — values,
key order, float identity — or refuse with ``ValueError``, which the
scheduler charges to the chunk.
"""

import json
import pickle

import pytest

from repro.engine.runner import unpack_chunk


def _body(records):
    """The body a pool worker sends for ``records``."""
    return pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)


def _measurementish(tsc, *, tail_key=False):
    """A dict shaped like a serialized measurement (tsc mid-dict)."""
    d = {
        "kernel_name": "k",
        "cycles_per_iteration": 4.25,
        "experiment_tsc": tsc,
        "trip_count": 256,
        "metadata": {"mode": "sequential"},
    }
    if tail_key:
        d.pop("experiment_tsc")
        d["experiment_tsc"] = tsc  # re-insert at the dict tail
    return d


class TestRoundTrip:
    def test_dicts_round_trip_byte_exact(self):
        payload = [
            _measurementish([1.5, 2.25, 1e-9]),
            _measurementish([0.0, -3.5], tail_key=True),
        ]
        body = _body([("job-a", payload, 250.0)])
        [(job_id, out, duration_ms)] = unpack_chunk(body)
        assert job_id == "job-a"
        assert duration_ms == pytest.approx(250.0)
        assert out == payload
        # Key order reaches the JSONL store verbatim, so equality is
        # not enough: the serialized bytes must match too.
        assert json.dumps(out) == json.dumps(payload)
        assert all(type(v) is float for d in out for v in d["experiment_tsc"])

    def test_multi_job_chunk_keeps_order_and_durations(self):
        records = [
            (
                f"job-{i}",
                [_measurementish([float(i), float(i) + 0.5])],
                i / 1000 * 1e3,  # run_chunk durations are already ms
            )
            for i in range(5)
        ]
        out = unpack_chunk(_body(records))
        assert [job_id for job_id, _, _ in out] == [r[0] for r in records]
        assert [d for _, _, d in out] == pytest.approx(
            [i / 1000 * 1e3 for i in range(5)]
        )
        assert [p for _, p, _ in out] == [r[1] for r in records]

    def test_garbage_payload_travels_verbatim(self):
        """Fault-injected debris is not a measurement list; it must
        survive the reply unchanged for quarantine to see what the
        scheduler would have seen inline."""
        from repro.engine.faults import GARBAGE_PAYLOAD

        for payload in (
            GARBAGE_PAYLOAD,
            None,
            [{"no_tsc_here": 1}],
            [{"experiment_tsc": [1.5, 2]}],  # int smuggled into samples
            "a string",
        ):
            [(job_id, out, _)] = unpack_chunk(
                _body([("job-g", payload, 0.0)])
            )
            assert out == payload
            assert type(out) is type(payload)

    def test_empty_chunk(self):
        assert unpack_chunk(_body([])) == []


class TestMalformedBodies:
    def test_truncated_body_rejected(self):
        body = _body([("j", [_measurementish([1.0])], 0.0)])
        with pytest.raises(ValueError, match="undecodable"):
            unpack_chunk(body[: len(body) // 2])

    def test_non_pickle_body_rejected(self):
        with pytest.raises(ValueError, match="undecodable"):
            unpack_chunk(b"\x00" * 12)

    @pytest.mark.parametrize(
        "records",
        (
            {"records": []},
            [("j", [], 0)],  # duration is not a float
            [(1, [], 0.0)],  # job id is not a string
            [("j", [])],  # not a triple
            [["j", [], 0.0]],  # a list, not a tuple
        ),
        ids=("dict", "int-duration", "int-job-id", "pair", "list-record"),
    )
    def test_non_record_body_rejected(self, records):
        with pytest.raises(ValueError, match="not a list of job records"):
            unpack_chunk(_body(records))
