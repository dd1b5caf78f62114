"""Tests for trace saving/loading (npz and hex text formats)."""

import numpy as np
import pytest

from repro.trace import generate_benchmark_trace
from repro.trace.io import load_trace_hex, load_trace_npz, save_trace_hex, save_trace_npz
from repro.trace.trace import BusTrace


def _save_legacy_npz(trace, path):
    """Write the legacy word layout: one unsigned integer per bus word."""
    np.savez_compressed(
        path, words=trace.to_words(), n_bits=np.array(trace.n_bits), name=np.array(trace.name)
    )


@pytest.fixture()
def small_trace():
    return generate_benchmark_trace("crafty", n_cycles=500, seed=5)


class TestNpzRoundTrip:
    def test_round_trip_preserves_everything(self, small_trace, tmp_path):
        path = tmp_path / "crafty.npz"
        save_trace_npz(small_trace, path)
        loaded = load_trace_npz(path)
        np.testing.assert_array_equal(loaded.values, small_trace.values)
        assert loaded.name == small_trace.name
        assert loaded.n_bits == small_trace.n_bits

    def test_non_trace_archive_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.arange(3))
        with pytest.raises(ValueError, match="not a bus-trace archive"):
            load_trace_npz(path)

    def test_packed_archive_is_the_default_layout(self, small_trace, tmp_path):
        path = tmp_path / "packed.npz"
        save_trace_npz(small_trace, path)
        with np.load(path) as archive:
            assert "packed" in archive and "words" not in archive
            assert int(archive["n_bits"]) == small_trace.n_bits

    def test_legacy_word_archive_loads_transparently(self, small_trace, tmp_path):
        path = tmp_path / "legacy.npz"
        _save_legacy_npz(small_trace, path)
        loaded = load_trace_npz(path)
        np.testing.assert_array_equal(loaded.values, small_trace.values)
        assert loaded.name == small_trace.name

    def test_legacy_and_packed_archives_load_equal(self, small_trace, tmp_path):
        _save_legacy_npz(small_trace, tmp_path / "legacy.npz")
        save_trace_npz(small_trace, tmp_path / "packed.npz")
        legacy = load_trace_npz(tmp_path / "legacy.npz")
        packed = load_trace_npz(tmp_path / "packed.npz")
        assert legacy.n_bits == packed.n_bits == small_trace.n_bits
        np.testing.assert_array_equal(legacy.packed_values, packed.packed_values)
        assert legacy.nbytes == small_trace.nbytes

    def test_packed_round_trip_preserves_odd_widths(self, tmp_path):
        trace = BusTrace.from_words([5, 2, 7, 1], n_bits=13, name="odd")
        path = tmp_path / "odd.npz"
        save_trace_npz(trace, path)
        loaded = load_trace_npz(path)
        assert loaded.n_bits == 13
        np.testing.assert_array_equal(loaded.values, trace.values)


class TestHexRoundTrip:
    def test_round_trip_preserves_words(self, small_trace, tmp_path):
        path = tmp_path / "crafty.hex"
        save_trace_hex(small_trace, path)
        loaded = load_trace_hex(path, n_bits=32)
        np.testing.assert_array_equal(loaded.values, small_trace.values)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "hand.hex"
        path.write_text("# header\n\ndeadbeef  # first word\n00000001\n")
        loaded = load_trace_hex(path, n_bits=32, name="hand")
        assert loaded.n_cycles == 1
        assert loaded.to_words().tolist() == [0xDEADBEEF, 1]
        assert loaded.name == "hand"

    def test_default_name_is_the_file_stem(self, small_trace, tmp_path):
        path = tmp_path / "recorded_run.hex"
        save_trace_hex(small_trace, path)
        assert load_trace_hex(path).name == "recorded_run"

    def test_invalid_word_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.hex"
        path.write_text("00000001\nnot-hex\n")
        with pytest.raises(ValueError, match="bad.hex:2"):
            load_trace_hex(path)

    def test_too_wide_word_rejected(self, tmp_path):
        path = tmp_path / "wide.hex"
        path.write_text("1ffffffff\n00000001\n")
        with pytest.raises(ValueError, match="does not fit"):
            load_trace_hex(path, n_bits=32)

    def test_too_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.hex"
        path.write_text("00000001\n")
        with pytest.raises(ValueError, match="at least two"):
            load_trace_hex(path)


class TestLoadedTracesWorkDownstream:
    def test_loaded_trace_runs_through_the_bus_model(self, small_trace, tmp_path, typical_corner_bus):
        path = tmp_path / "crafty.npz"
        save_trace_npz(small_trace, path)
        loaded = load_trace_npz(path)
        summary = typical_corner_bus.summarize(loaded)
        assert summary.n_cycles == loaded.n_cycles

    def test_narrow_traces_round_trip(self, tmp_path):
        trace = BusTrace.from_words([1, 2, 3, 0], n_bits=8, name="narrow")
        hex_path = tmp_path / "narrow.hex"
        save_trace_hex(trace, hex_path)
        loaded = load_trace_hex(hex_path, n_bits=8)
        np.testing.assert_array_equal(loaded.values, trace.values)
