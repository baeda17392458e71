"""Every exported name resolves, so a stale entry in ``__all__`` fails in the test suite."""
import cyldla
from cyldla import dla


def test_all_exports_resolve():
    for module in (cyldla, dla):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
        assert len(set(module.__all__)) == len(module.__all__)
