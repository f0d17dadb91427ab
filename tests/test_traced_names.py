"""Every name the benchmark's tracer wraps still exists in the package."""

import importlib.util
from pathlib import Path

import ramify
import ramify.cli  # noqa: F401  (the tracer resolves its names after this import)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_resolves_every_target_and_leaf():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, path, _ in tracer.TARGETS + tracer.LEAVES:
        _, _, raw = tracer._resolve(getattr(ramify, mod_name), path)
        assert callable(raw) or isinstance(raw, classmethod), (mod_name, path)
