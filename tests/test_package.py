import importlib
import pkgutil

import qrgt


def test_every_exported_name_exists():
    # Importing qrgt resolves every name its root re-exports; each module's
    # __all__ names only what the module defines.
    modules = [m.name for m in pkgutil.iter_modules(qrgt.__path__)]
    assert {"cli", "config", "engine", "metrics", "stiefel"} <= set(modules)
    for module in modules:
        mod = importlib.import_module(f"qrgt.{module}")
        missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
        assert not missing, (module, missing)
