"""Generation-cache tests: round trip, fidelity, legacy input.

A legacy single-file ``gencache.jsonl`` is migrated into the store when
its directory opens, so damage tolerance is checked as "migrates exactly
the valid records".
"""

from repro import obs
from repro.engine import expand_spec_variants, open_generation_cache
from repro.engine.gencache import CachedVariant, generation_record
from repro.engine.hashing import creator_options_digest, kernel_digest, spec_digest
from repro.kernels import loadstore_family
from repro.kernels.reduction import dot_product_spec
from tests.legacy_jsonl import legacy_line


def _expansion(spec):
    """(spec_dig, opts_dig, fresh kernels) for the default options."""
    return spec_digest(spec), creator_options_digest(None), expand_spec_variants(
        spec, None, None
    )


def _counted(lookup):
    """``lookup()``'s result and the generation-cache counters it bumped."""
    obs.enable()
    try:
        result = lookup()
        counters = obs.metrics_snapshot()["counters"]
    finally:
        obs.disable()
    return result, {k: v for k, v in counters.items() if k.startswith("gencache.")}


class TestRoundTrip:
    def test_miss_returns_none(self, tmp_path):
        cache = open_generation_cache(tmp_path)
        got, counters = _counted(lambda: cache.get("nope", "nothing"))
        assert got is None
        assert counters == {"gencache.miss": 1}

    def test_put_then_get(self, tmp_path):
        spec = dot_product_spec(2, unroll=(1, 2))
        spec_dig, opts_dig, kernels = _expansion(spec)
        cache = open_generation_cache(tmp_path)
        cache.put(spec_dig, opts_dig, spec.name, kernels)
        cached, counters = _counted(lambda: cache.get(spec_dig, opts_dig))
        assert cached is not None
        assert len(cached) == len(kernels)
        assert counters == {"gencache.hit": 1}

    def test_cached_variants_mirror_generated_kernels(self, tmp_path):
        spec = dot_product_spec(2, unroll=(1, 2))
        spec_dig, opts_dig, kernels = _expansion(spec)
        cache = open_generation_cache(tmp_path)
        cache.put(spec_dig, opts_dig, spec.name, kernels)
        cached = open_generation_cache(tmp_path).get(spec_dig, opts_dig)  # reopened
        for fresh, back in zip(kernels, cached):
            assert isinstance(back, CachedVariant)
            assert back.name == fresh.name
            assert back.variant_id == fresh.variant_id
            assert back.metadata == fresh.metadata
            assert back.asm_text(full_file=True) == fresh.asm_text(full_file=True)
            assert kernel_digest(back) == kernel_digest(fresh)
            assert back.unroll == fresh.unroll
            assert back.mix == fresh.mix
            assert back.opcodes == fresh.opcodes

    def test_warm_expand_skips_pipeline(self, tmp_path, monkeypatch):
        spec = dot_product_spec(2, unroll=(1, 2))
        cache = open_generation_cache(tmp_path)
        expand_spec_variants(spec, None, cache)  # cold: generates and stores
        import repro.creator as creator_mod

        def boom(*a, **k):
            raise AssertionError("pipeline ran on a warm cache")

        monkeypatch.setattr(creator_mod, "MicroCreator", boom)
        warm = expand_spec_variants(spec, None, cache)
        assert [v.name for v in warm] == [
            v.name for v in expand_spec_variants(spec, None, cache)
        ]

    def test_distinct_options_get_distinct_entries(self, tmp_path):
        from repro.creator import CreatorOptions

        spec = dot_product_spec(2, unroll=(1, 2))
        cache = open_generation_cache(tmp_path)
        full = expand_spec_variants(spec, None, cache)
        limited = expand_spec_variants(
            spec, CreatorOptions(max_benchmarks=1), cache
        )
        assert len(cache) == 2
        assert len(limited) < len(full)

    def test_later_put_wins(self, tmp_path):
        spec = dot_product_spec(2, unroll=(1, 2))
        spec_dig, opts_dig, kernels = _expansion(spec)
        cache = open_generation_cache(tmp_path)
        cache.put(spec_dig, opts_dig, spec.name, kernels[:1])
        cache.put(spec_dig, opts_dig, spec.name, kernels)
        assert len(open_generation_cache(tmp_path).get(spec_dig, opts_dig)) == len(kernels)


class TestDamageTolerance:
    def _seeded(self, tmp_path):
        """A legacy file holding one movss expansion."""
        spec = loadstore_family("movss", unroll=(1, 2))
        spec_dig, opts_dig, kernels = _expansion(spec)
        path = tmp_path / "gencache.jsonl"
        path.write_text(
            legacy_line(generation_record(spec_dig, opts_dig, spec.name, kernels))
        )
        return spec_dig, opts_dig, path

    def _migrated(self, tmp_path):
        cache = open_generation_cache(tmp_path)
        assert not (tmp_path / "gencache.jsonl").exists()
        assert (tmp_path / "gencache.jsonl.migrated").exists()
        return cache

    def test_garbage_line_skipped(self, tmp_path):
        spec_dig, opts_dig, path = self._seeded(tmp_path)
        path.write_text("not json at all\n" + path.read_text())
        assert self._migrated(tmp_path).get(spec_dig, opts_dig) is not None

    def test_truncated_record_skipped(self, tmp_path):
        spec_dig, opts_dig, path = self._seeded(tmp_path)
        line = path.read_text().rstrip("\n")
        path.write_text(line[: len(line) // 2] + "\n")
        reopened = self._migrated(tmp_path)
        assert len(reopened) == 0
        assert reopened.get(spec_dig, opts_dig) is None  # degrades to a miss

    def test_non_utf8_bytes_survive_load(self, tmp_path):
        spec_dig, opts_dig, path = self._seeded(tmp_path)
        path.write_bytes(b"\xff\xfe broken \xff\n" + path.read_bytes())
        assert self._migrated(tmp_path).get(spec_dig, opts_dig) is not None

    def test_torn_tail_append_keeps_both_records(self, tmp_path):
        spec_dig, opts_dig, path = self._seeded(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])  # drop only the newline
        reopened = self._migrated(tmp_path)
        other = dot_product_spec(2, unroll=(1, 1))
        other_dig, other_opts, kernels = _expansion(other)
        reopened.put(other_dig, other_opts, other.name, kernels)
        again = open_generation_cache(tmp_path)
        assert again.get(spec_dig, opts_dig) is not None
        assert again.get(other_dig, other_opts) is not None

    def test_tampered_text_rejected_by_checksum(self, tmp_path):
        spec_dig, opts_dig, path = self._seeded(tmp_path)
        text = path.read_text()
        assert "movss" in text
        path.write_text(text.replace("movss", "movsd", 1))
        assert self._migrated(tmp_path).get(spec_dig, opts_dig) is None

    def test_put_repairs_damaged_file(self, tmp_path):
        """Damage in the legacy file never reaches the store."""
        spec_dig, opts_dig, path = self._seeded(tmp_path)
        path.write_text(path.read_text() + "garbage tail\n")
        damaged = self._migrated(tmp_path)
        assert damaged.corrupt_lines == 0
        other = dot_product_spec(2, unroll=(1, 1))
        other_dig, other_opts, kernels = _expansion(other)
        damaged.put(other_dig, other_opts, other.name, kernels)
        healed = open_generation_cache(tmp_path)
        assert healed.corrupt_lines == 0
        assert len(healed) == 2
        assert healed.get(spec_dig, opts_dig) is not None
