import importlib
import pkgutil

import flagcka


def test_every_exported_name_resolves():
    modules = [flagcka] + [
        importlib.import_module(f"flagcka.{info.name}") for info in pkgutil.iter_modules(flagcka.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        names = getattr(module, "__all__", ())
        assert len(names) == len(set(names)), f"{module.__name__}.__all__ lists a name twice"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
