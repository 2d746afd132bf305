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


def _cached_functions(path) -> list[str]:
    """Names of the module-level functions of a source file decorated with
    functools.cache or functools.lru_cache, by any spelling."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                deco = deco.func
            name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None)
            if name in ("cache", "lru_cache"):
                found.append(node.name)
    return found


def test_module_level_state_is_the_intern_table_alone():
    """Memos live on machines and caps in a context variable: the only
    module-level mutable objects are the intern table, the cap's context
    variable and the package's __all__ (the intern table takes no lock:
    it stores through dict.setdefault).  The only cached functions are
    the CLI's argument parser and its bundled machines, with their memos,
    kept for the whole process."""
    found = []
    cached = []
    for path in SOURCES:
        cached += [(path.name, name) for name in _cached_functions(path)]
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_stateful(value):
                found += [(path.name, t.id) for t in targets if isinstance(t, ast.Name)]
    assert sorted(found) == [("__init__.py", "__all__"), ("mealy.py", "_interned"),
                             ("mealy.py", "_scope")]
    assert sorted(cached) == [("cli.py", "_build_parser"), ("cli.py", "_bundled_machine")]


# the layer stack: each module may import only the modules below it
ALLOWED_IMPORTS = {
    "errors": set(),
    "mealy": {"errors"},
    "points": {"errors", "mealy"},
    "fixedpoints": {"errors", "mealy", "points"},
    "germs": {"errors", "mealy", "points"},
    "convalg": {"errors", "mealy", "points", "germs"},
    "traces": {"errors", "mealy", "points", "germs", "convalg", "fixedpoints"},
}


def _package_imports(path) -> set[str]:
    """The package modules a source file imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("germtrace."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("germtrace."))
    return found


def test_layers_import_only_the_layers_below():
    """mealy -> points -> fixedpoints, germs -> convalg -> traces; cli and
    the package __init__ may import any module."""
    modules = {p.stem for p in SOURCES} - {"__init__", "cli"}
    assert modules == set(ALLOWED_IMPORTS)
    wrong = {path.stem: sorted(_package_imports(path) - ALLOWED_IMPORTS[path.stem])
             for path in SOURCES if path.stem in ALLOWED_IMPORTS}
    assert wrong == {name: [] for name in ALLOWED_IMPORTS}


def _unused_imports(path) -> list[str]:
    """Names a source file imports (from __future__ aside) that it never
    reads: no Name node, and no name inside a string annotation."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(((a.asname or a.name).split(".")[0], node.lineno)
                            for a in node.names)
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)]
    read = set()
    for node in [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                          if isinstance(a, ast.Constant) and isinstance(a.value, str)]:
        read.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_every_import_is_used():
    """Every module but the package __init__, which re-exports, reads each
    name it imports, so a name left behind by a move fails here."""
    assert [entry for path in SOURCES if path.stem != "__init__"
            for entry in _unused_imports(path)] == []


def test_no_hash_reads_an_address():
    """No __hash__ in the package calls id(): an address-based hash makes
    set and dict order differ between runs, and the CLI's output must be
    byte-identical under any hash seed."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, ast.FunctionDef) and func.name == "__hash__"
             for node in ast.walk(func)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"]
    assert found == []
    hashes = [f"{path.name}:{func.lineno}"
              for path in SOURCES
              for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(func, ast.FunctionDef) and func.name == "__hash__"]
    assert len(hashes) >= 4, hashes  # Aut, PartialMap, Point, Germ, ...


# the public API, sorted; a change to the exports has to change this list too
PUBLIC_API = [
    "AlgebraElement", "Aut", "BOUNDARY", "CapExceededError", "DecayCertificate",
    "DomainError", "ElementParseError", "F_eval", "FixCounts", "FreenessReport", "Germ",
    "GermTraceError", "INTERIOR", "MOVED", "Machine", "MachineParseError", "PATTERN_CAP",
    "ParseError", "PartialMap", "PatternCapError", "Point", "PointParseError", "RepMatrix",
    "STATE_CAP", "Scalar", "SingularSystemError", "StateCapError", "Word",
    "apply_to_point", "as_scalar", "bisection_product", "boundary_null_certificate",
    "canonical_trace", "check_word", "compose_labels", "convalg", "distinguishing_depth",
    "errors", "essential_freeness_report", "fixed_counts", "fixed_counts_csv",
    "fixed_walk", "fixedpoints", "format_element", "format_machine", "format_point",
    "format_scalar", "germs", "hausdorff_witness", "identity_aut", "indicator",
    "interiorizable", "invert_label", "is_dangerous", "isotropy_defect",
    "isotropy_germs_at", "isotropy_trace", "mealy", "minimize", "mu_fix_exact",
    "parse_element", "parse_machine", "parse_point", "parse_scalar", "parse_shift",
    "parse_state_expr", "parse_word", "points", "rep_matrix", "restrict_label",
    "state_cap", "traces", "unit_element", "unit_germ", "word_text",
]


def test_public_api_is_pinned():
    """germtrace.__all__ is exactly PUBLIC_API, so adding or dropping an
    export is a deliberate edit here."""
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert germtrace.__all__ == PUBLIC_API


# every kind of per-machine memo entry, where a str key is its own kind
# and a tuple key's kind is its first item; a new per-state or
# per-machine cache has to be a deliberate edit here
MEMO_KINDS = {"index", "closures", "minimize", "shift", "word", "mu", "depth",
              "boundary_null", "least_state", "unit", "compose", "inverse", "times",
              "germ", "after", "hash"}


def _machine_text(rng, n) -> str:
    """n binary states s0..s{n-1} and the identity e, successors drawn at
    random, so some states are equal automorphisms."""
    targets = [f"s{i}" for i in range(n)] + ["e"]
    rows = [f"state s{i} perm {rng.choice(['0 1', '1 0'])} to "
            f"{rng.choice(targets)} {rng.choice(targets)}" for i in range(n)]
    return "\n".join(["alphabet 2", *rows, "state e perm 0 1 to e e"])


def test_memo_kinds_are_pinned():
    """One seeded session through every layer (products, inverses, state
    expressions, shifts, germ keys, representation matrices, F_eval,
    traces, fixed-point reports and formatting) leaves memo entries of
    the kinds in MEMO_KINDS only, on its parsed machines, their
    quotients and every interned machine, and reaches every kind.  Every
    parsed shift's entry is None or (explored, PartialMap)."""
    import random
    from importlib import resources

    from germtrace import (F_eval, PartialMap, boundary_null_certificate, canonical_trace,
                           essential_freeness_report, fixed_counts, format_element,
                           hausdorff_witness, interiorizable, is_dangerous, isotropy_defect,
                           isotropy_trace, mealy, mu_fix_exact, parse_element,
                           parse_machine, parse_point, parse_shift, parse_state_expr,
                           rep_matrix, unit_germ)

    rng = random.Random(3705)
    data = resources.files("germtrace.data")
    machines = [parse_machine(data.joinpath(f"{name}.gt").read_text())
                for name in ("grigorchuk", "lamplighter")]
    machines.append(parse_machine(_machine_text(rng, 6)))
    x = parse_point("0(1)", 2)
    for m in machines:
        names = [n for n in m.names if n != "e"]
        basis = [unit_germ(2, x)] + [PartialMap(m.state(n), (), (), label=n).germ_at(x)
                                     for n in names[:3]]
        for _ in range(6):
            a, b = rng.choice(names), rng.choice(names)
            g = parse_state_expr(m, f"{a}*{b}^-1|{rng.randrange(2)}")
            h = (m.state(a) * g).inverse()
            assert (h * (m.state(a) * g)).is_identity()
            assert parse_shift(m, f"{b}:0>1").state == m.state(b)
            elem = parse_element(m, f"1 {a}:0>1 ; 1/2 {b}*{a}:> ; -1 {a}^-1:1>1")
            prod = elem * elem.adjoint()
            prod.is_zero()
            prod.is_singular()
            hash(PartialMap(h, (1,), (0,)).germ_at(x))
            rep_matrix(elem, x, basis)
            F_eval(prod, x)
            canonical_trace(prod)
            isotropy_trace(prod)
            isotropy_defect(prod, x)
            mu_fix_exact(g)
            boundary_null_certificate(g)
            fixed_counts(g, 4)
            interiorizable(g)
            format_element(prod)
        essential_freeness_report(m)
        hausdorff_witness(m)
        is_dangerous(m, x)
    quotients = [m._memo["minimize"][0] for m in machines]
    kinds = {key if isinstance(key, str) else key[0]
             for m in [*machines, *quotients, *mealy._interned.values()]
             for key in m._memo}
    assert kinds <= MEMO_KINDS, kinds - MEMO_KINDS
    assert kinds == MEMO_KINDS
    # a shift seen once keeps a None placeholder, one seen again its entry
    shifts = [entry for m in machines for entry in m._memo.get("shift", {}).values()]
    assert None in shifts and any(entry is not None for entry in shifts)
    assert all(entry is None or (type(entry[0]) is int and type(entry[1]) is PartialMap
                                 and len(entry) == 2) for entry in shifts), shifts
