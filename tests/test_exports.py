import importlib
import pkgutil

import permpat

LIBRARY_MODULES = {"core", "textio", "matcher", "reduction", "folog", "verify"}


def test_every_exported_name_resolves():
    modules = [permpat] + [
        importlib.import_module(f"permpat.{info.name}")
        for info in pkgutil.iter_modules(permpat.__path__)
        if not info.name.startswith("_")
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {f"permpat.{name}" for name in LIBRARY_MODULES} | {"permpat"} <= {
        m.__name__ for m in exporting
    }
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
