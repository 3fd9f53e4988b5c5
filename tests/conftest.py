import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def engine_calls(monkeypatch):
    """``engine_calls(name)`` wraps the ``_WindowEngine`` method ``name``
    and returns a list that gets the number of rows of each call, or 0 for
    a method without rows."""
    from curvperm.permutations import _WindowEngine

    def wrap(name):
        calls, real = [], getattr(_WindowEngine, name)

        def counted(engine, *args):
            calls.append(args[0].size if args else 0)
            return real(engine, *args)

        monkeypatch.setattr(_WindowEngine, name, counted)
        return calls

    return wrap
