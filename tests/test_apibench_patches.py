"""The API benchmark's patch table still resolves against the package.

``apibench/tracing.py`` wraps package functions by name for its per-layer
trace and raises on a name that no longer exists. This loads the table by
path and resolves every entry the way ``Tracer.install`` does, so a
rename or a moved method fails tier-1 rather than only the traced
benchmark run. A name that resolves but is no longer called reads 0 in
the trace, so the streaming layers are also driven under the installed
tracer.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "apibench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("apibench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_entry_resolves():
    tracing = _load_tracing()
    assert tracing.PATCHES
    missing = []
    for module_name, path, name in tracing.PATCHES:
        try:
            owner, attr = tracing._resolve(module_name, path)
            # Methods come from the class __dict__, as Tracer.install takes
            # them: an inherited method would be patched on the wrong class.
            target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, ImportError, KeyError) as error:
            missing.append(f"{module_name}:{path} ({name}): {error!r}")
            continue
        if not callable(target):
            missing.append(f"{module_name}:{path} ({name}) is not callable")
    assert not missing, "\n".join(missing)


def test_trace_sees_the_streaming_layers():
    """Fit a small streaming miner, push twice and poll once under the
    tracer: the delta pass, cache lookups, the TSF pass and both window
    updates each record calls."""
    from repro.core.miner import HOSMiner
    from repro.core.stream import StreamEngine

    tracer = _load_tracing().Tracer()
    rng = np.random.default_rng(4)
    warm = rng.normal(size=(60, 4))
    tracer.install()
    try:
        miner = HOSMiner(k=3, sample_size=3, threshold_quantile=0.9, stream_window=60)
        engine = StreamEngine(miner.fit(warm))
        engine.push(rng.normal(size=(5, 4)))
        engine.push(rng.normal(size=(5, 4)))
        engine.query_batch([55, 56, 57, 58, 59, warm[0] + 0.01])
    finally:
        tracer.remove()
    calls = {name: rec[0] for name, rec in tracer.acc.items()}
    for name in ("od.delta", "od.cache_get", "savings.tsf", "stream.insert", "stream.expire"):
        assert calls.get(name, 0) > 0, name


def test_trace_attributes_replayed_polls():
    """Poll the same targets twice under the tracer: the second poll is
    an ``api.query_batch`` span answered from stored outcomes, with no
    cache lookups and no result filtering of its own."""
    from repro.core.miner import HOSMiner

    tracer = _load_tracing().Tracer()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    X[0, :2] += 6.0
    targets = [0, 1, 2, X[0] + 0.01, 1]
    tracer.install()
    try:
        miner = HOSMiner(k=3, sample_size=3, threshold_quantile=0.9).fit(X)
        miner.query_batch(targets)
        first = tracer.snapshot()
        spans = len(tracer.spans)
        second = miner.query_batch(targets)
    finally:
        tracer.remove()
    assert second.replayed == len(targets)
    calls = {name: rec[0] for name, rec in tracer.acc.items()}
    for name in ("od.cache_get", "filtering.minimal"):
        assert first[name][0] > 0, name
        assert calls[name] == first[name][0], name
    assert [span[3] for span in tracer.spans[spans:]] == ["api.query_batch"]
