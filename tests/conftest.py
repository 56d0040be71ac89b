import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the calls of module.name, which still runs."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
