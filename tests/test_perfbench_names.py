"""Every emovox name the benchmark harness uses still exists.

perfbench traces the functions named in ``perfbench/layers.py`` and imports
helpers from emovox; a rename or deletion in ``src/`` should fail here, not
half-way through a benchmark run.  This module only reads perfbench.
"""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def perfbench_sources():
    return sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py"))


def emovox_uses():
    """(file, module, dotted name) of each emovox import in perfbench, and of
    each attribute read off an imported name (``modelio.save_tv``); the name
    is None for a plain ``import emovox.x``."""
    out = []
    for filename in perfbench_sources():
        with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "emovox":
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
                    out.append((filename, node.module, alias.name))
            elif isinstance(node, ast.Import):
                out += [(filename, alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "emovox"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                module_name, name = bound[node.value.id]
                out.append((filename, module_name, f"{name}.{node.attr}"))
    return sorted(set(out), key=str)


def test_layer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  os.path.join(PERFBENCH, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for metric, module_name, attr in layers.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{metric}: {module_name}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{metric}: {module_name}.{attr} is not callable"


@pytest.mark.parametrize("filename, module_name, name", emovox_uses())
def test_perfbench_imports_resolve(filename, module_name, name):
    obj = importlib.import_module(module_name)
    for part in name.split(".") if name else ():
        if not hasattr(obj, part):
            # ``from package import submodule`` binds a module not yet imported
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
