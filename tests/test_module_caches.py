"""No module-global caches in src/qiso: a cache lives on the object that
owns what it caches (`FinDimCStarAlgebra.trace_matrix`, `unit_vector`,
`CoAction.exact_block`, ...), never in a module."""

import ast
import pathlib
from typing import List

import qiso

# functools' memoizing decorators, whose table is module state
_MEMOIZERS = {"cache", "lru_cache"}
# constructors of a mutable container, besides its displays
_CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
# the methods of dict, list, set and deque that change the container
_MUTATORS = {"append", "appendleft", "extend", "extendleft", "insert", "remove", "pop",
             "popleft", "popitem", "clear", "add", "discard", "update", "setdefault",
             "sort", "reverse", "rotate", "difference_update", "intersection_update",
             "symmetric_difference_update", "__setitem__", "__delitem__"}


def _is_container(value) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                          ast.SetComp)):
        return True
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
        and value.func.id in _CONTAINERS


def _bound_names(func) -> set:
    """The names a function binds itself: its parameters and assignment
    targets, which shadow a module name of the same spelling."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    names |= {node.id for node in ast.walk(func)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return names


def module_cache_faults(source: str) -> List[str]:
    """Every module-global cache in a module's source: a use of
    functools.cache or lru_cache, a `global` statement, and every change
    a function makes to a module-level dict, list or set (item
    assignment, augmented or not, item deletion, or a mutating method).
    Rebinding the name itself needs `global`, which is flagged."""
    tree = ast.parse(source)
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            faults += [f"imports functools.{alias.name}" for alias in node.names
                       if alias.name in _MEMOIZERS]
        elif isinstance(node, ast.Attribute) and node.attr in _MEMOIZERS \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            faults.append(f"uses functools.{node.attr}")
    containers = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_container(stmt.value):
            containers |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        elif isinstance(stmt, ast.AnnAssign) and _is_container(stmt.value) \
                and isinstance(stmt.target, ast.Name):
            containers.add(stmt.target.id)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        shared = containers - _bound_names(func)
        where = getattr(func, "name", "lambda")

        def module_container(node) -> bool:
            return isinstance(node, ast.Name) and node.id in shared

        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                faults.append(f"{where} declares global {', '.join(node.names)}")
            elif isinstance(node, ast.Subscript) and module_container(node.value) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                faults.append(f"{where} sets an item of {node.value.id}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS and module_container(node.func.value):
                faults.append(f"{where} calls {node.func.value.id}.{node.func.attr}")
    return faults


def test_module_cache_faults_finds_each_kind():
    """The checker flags every kind of module-global cache it looks for,
    and neither a read of a module table nor a parameter that shadows
    one, nor an owner cache."""
    flagged = {
        "from functools import lru_cache\n@lru_cache\ndef f(x):\n    return x\n":
            ["imports functools.lru_cache"],
        "import functools\n@functools.cache\ndef f(x):\n    return x\n":
            ["uses functools.cache"],
        "_MEMO = {}\ndef f(x):\n    _MEMO[x] = 1\n": ["f sets an item of _MEMO"],
        "_MEMO = dict()\ndef f(x):\n    del _MEMO[x]\n": ["f sets an item of _MEMO"],
        "_SEEN = set()\ndef f(x):\n    _SEEN.add(x)\n": ["f calls _SEEN.add"],
        "_LOG = []\nclass A:\n    def f(self, x):\n        _LOG.append(x)\n":
            ["f calls _LOG.append"],
        "_COUNT: dict = {}\ndef f(x):\n    _COUNT[x] += 1\n": ["f sets an item of _COUNT"],
        "_SEEN = set()\ncheck = lambda x: _SEEN.discard(x)\n": ["lambda calls _SEEN.discard"],
        "_N = 0\ndef f():\n    global _N\n    _N = 1\n": ["f declares global _N"],
    }
    for source, want in flagged.items():
        assert module_cache_faults(source) == want, source
    clean = [
        "_TABLE = {1: 2}\ndef f(x):\n    return _TABLE.get(x)\n",
        "_TABLE = {}\ndef f(_TABLE):\n    _TABLE[1] = 2\n",
        "_TABLE = {}\ndef f():\n    _TABLE = {}\n    _TABLE[1] = 2\n",
        "_TABLE = {}\n_TABLE[1] = 2\n",
        "from functools import cached_property\nclass A:\n"
        "    @cached_property\n    def f(self):\n        return 1\n",
    ]
    for source in clean:
        assert module_cache_faults(source) == [], source


def test_src_has_no_module_global_caches():
    """No module of src/qiso memoizes through functools, declares a
    global or changes a module-level container from a function."""
    root = pathlib.Path(qiso.__file__).parent
    faults = {path.name: module_cache_faults(path.read_text())
              for path in sorted(root.glob("*.py"))}
    assert len(faults) >= 10
    assert {name: found for name, found in faults.items() if found} == {}
