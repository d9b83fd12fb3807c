"""The API benchmark's patch table still resolves against the package.

``apibench/tracing.py`` wraps package functions by name for its per-layer
trace and raises on a name that no longer exists. This loads the table by
path and resolves every entry the way ``Tracer.install`` does, so a
rename or a moved method fails tier-1 rather than only the traced
benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
