"""Package-wide structural checks on the source files."""

import ast
from pathlib import Path

import germtrace

SOURCES = sorted(Path(germtrace.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"mealy.py", "convalg.py", "cli.py"}


def test_no_global_statements():
    """Caps and settings are scoped (context variables, arguments), never
    process-global variables rebound through `global`."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


# constructors of containers and of per-process state holders
STATEFUL_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
                  "Counter", "deque", "WeakValueDictionary", "WeakKeyDictionary",
                  "WeakSet", "Lock", "RLock", "ContextVar"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_stateful(value) -> bool:
    if isinstance(value, CONTAINER_NODES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in STATEFUL_CALLS
    return False


def test_module_level_state_is_the_intern_table_alone():
    """Memos live on machines and caps in a context variable: the only
    module-level mutable objects are the intern table, its lock, the
    cap's context variable and the package's __all__."""
    found = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_stateful(value):
                found += [(path.name, t.id) for t in targets if isinstance(t, ast.Name)]
    assert sorted(found) == [("__init__.py", "__all__"), ("mealy.py", "_intern_lock"),
                             ("mealy.py", "_interned"), ("mealy.py", "_state_cap")]
