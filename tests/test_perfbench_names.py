"""Every heic name the benchmark scripts in perfbench/ use, or heic exports, still resolves.

perfbench/run.py imports heic from the checkout it measures, so a name the
library drops, or a call shape it stops accepting, breaks the benchmark only
when it runs; here it fails at once.  The scripts are parsed, not imported
or run.  Likewise a name left in heic.__all__ after its definition goes
breaks ``from heic import *``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import heic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node):
    """The dotted name of an attribute chain ``heic.a.b``, else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    if chain and isinstance(node, ast.Name) and node.id == "heic":
        return ".".join(["heic", *chain])
    return None


def _references(tree):
    """(line, dotted name) for each ``import heic.x``, ``from heic... import y`` and ``heic.a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "heic")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "heic":
            yield from ((node.lineno, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Attribute) and (dotted := _dotted(node)):
            yield node.lineno, dotted


def _calls(tree):
    """(line, dotted name, positional count, keyword names) for each call of a heic function.

    ``heic.f(...)`` passes f its own arguments; ``stage(name, heic.f, *args)``
    passes f the arguments after it.  Calls with ``*`` or ``**`` splats are skipped.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, keywords = node.func, node.args, node.keywords
        if isinstance(func, ast.Name) and func.id == "stage" and len(args) >= 2:
            func, args, keywords = args[1], args[2:], []
        splat = any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in keywords)
        if (dotted := _dotted(func)) and not splat:
            yield node.lineno, dotted, len(args), [k.arg for k in keywords]


def _lookup(dotted: str):
    """The object a dotted heic name resolves to, importing submodules; None when it does not."""
    parts = dotted.split(".")
    obj = heic
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and hasattr(obj, "__path__"):  # a submodule not yet imported
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return None
        if not hasattr(obj, part):
            return None
        obj = getattr(obj, part)
    return obj


def _scripts():
    """(file name, parsed tree) for each script in perfbench/."""
    paths = sorted(PERFBENCH.glob("*.py"))
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_perfbench_heic_names_resolve():
    refs = [(name, line, dotted) for name, tree in _scripts() for line, dotted in _references(tree)]
    assert any(name == "run.py" for name, _, _ in refs), "no heic reference found in perfbench/run.py"
    missing = [f"{name}:{line}: {dotted}" for name, line, dotted in refs if _lookup(dotted) is None]
    assert not missing, "perfbench uses names heic no longer has:\n" + "\n".join(missing)


def test_perfbench_heic_calls_bind():
    calls = [(name, *call) for name, tree in _scripts() for call in _calls(tree)]
    assert len(calls) >= 30, f"only {len(calls)} heic calls found in perfbench"
    unbound = []
    for name, line, dotted, positional, keywords in calls:
        try:
            inspect.signature(_lookup(dotted)).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{name}:{line}: {dotted}: {exc}")
    assert not unbound, "perfbench calls heic in shapes it no longer accepts:\n" + "\n".join(unbound)


def test_public_names_resolve():
    assert len(set(heic.__all__)) == len(heic.__all__)
    missing = [name for name in heic.__all__ if not hasattr(heic, name)]
    assert not missing, f"heic.__all__ names what heic does not define: {missing}"
