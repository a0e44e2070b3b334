"""The names the benchmark harness reaches into: its traced run wraps the
callables listed in ``bench/tracing.py`` and reads the cache statistics of the
correlator entry maps, and its numeric workload asks ``required_bits``.  A
deletion that breaks one of them fails here rather than in the traced run."""

import importlib
import importlib.util
from pathlib import Path

from gwp1 import analytic, correlators

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(target) -> bool:
    try:
        owner = importlib.import_module(target[0])
        if len(target) == 3:
            # the recorder patches the class's own attribute, not an inherited one
            return callable(vars(getattr(owner, target[1]))[target[2]])
        return callable(getattr(owner, target[1]))
    except (ImportError, AttributeError, KeyError):
        return False


def test_every_wrapped_target_resolves():
    targets = [t for ts in _load_tracing().WRAPPED.values() for t in ts]
    assert targets
    assert [t for t in targets if not _resolves(t)] == []


def test_entry_maps_report_cache_statistics():
    for entries in (correlators._m_entries_in_lambda, correlators._m_entries_x_capped):
        assert hasattr(entries.cache_info(), "hits")


def test_required_bits_exists():
    assert analytic.required_bits(0.3, 1.1) == analytic.DEFAULT_BITS
