"""The benchmark's tracer wraps lmisolve module attributes by name."""

from pathlib import Path


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracing.TARGETS
               if not hasattr(mod, attr)]
    assert missing == []
