"""Every heic name the benchmark scripts in perfbench/ use, or heic exports, still resolves.

perfbench/run.py imports heic from the checkout it measures, so a name the
library drops breaks the benchmark only when it runs; here it fails at once.
The scripts are parsed, not imported or run.  Likewise a name left in
heic.__all__ after its definition goes breaks ``from heic import *``.
"""

import ast
import importlib
from pathlib import Path

import heic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _references(tree):
    """(line, dotted name) for each ``import heic.x``, ``from heic... import y`` and ``heic.a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "heic")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "heic":
            yield from ((node.lineno, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.insert(0, value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "heic":
                yield node.lineno, ".".join(["heic", *chain])


def _resolves(dotted: str) -> bool:
    """True when dotted is a heic module, or an attribute path from one."""
    parts = dotted.split(".")
    obj = heic
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and hasattr(obj, "__path__"):  # a submodule not yet imported
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_perfbench_heic_names_resolve():
    scripts = sorted(PERFBENCH.glob("*.py"))
    refs = [
        (path.name, line, dotted)
        for path in scripts
        for line, dotted in _references(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert any(name == "run.py" for name, _, _ in refs), "no heic reference found in perfbench/run.py"
    missing = [f"{name}:{line}: {dotted}" for name, line, dotted in refs if not _resolves(dotted)]
    assert not missing, "perfbench uses names heic no longer has:\n" + "\n".join(missing)


def test_public_names_resolve():
    assert len(set(heic.__all__)) == len(heic.__all__)
    missing = [name for name in heic.__all__ if not hasattr(heic, name)]
    assert not missing, f"heic.__all__ names what heic does not define: {missing}"
