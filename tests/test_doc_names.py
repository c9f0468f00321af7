"""The names the docs give resolve: every backticked `module.name` or
`Class.name` whose head is a `qiso` module or class, in README.md and in
the docstrings of src/qiso, is an attribute of that module or class, so a
renamed or retired name cannot linger in the docs."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import qiso

REPO = pathlib.Path(__file__).resolve().parents[1]
# a backticked dotted name, with a call's arguments after it if any
_NAME = re.compile(r"(?<![`\w])`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\([^`\n]*\))?`")


def _heads() -> dict:
    """Each `qiso` module, by its short name and as `qiso`, and each class
    that a `qiso` module defines, by its name."""
    heads = {"qiso": qiso}
    for info in pkgutil.iter_modules(qiso.__path__):
        heads[info.name] = importlib.import_module(f"qiso.{info.name}")
    heads.update({name: obj for module in list(heads.values())
                  for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__.startswith("qiso")})
    return heads


def _docs() -> dict:
    """README.md and every docstring of src/qiso, by where they are."""
    docs = {"README.md": (REPO / "README.md").read_text()}
    for path in sorted((REPO / "src" / "qiso").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    docs[f"{path.name}:{getattr(node, 'name', '')}"] = doc
    return docs


def _resolves(dotted: str, heads: dict) -> bool:
    """Whether each part after the head of `dotted` is an attribute of the
    one before it; a dataclass field without a default counts, though
    the class itself lacks it."""
    head, *rest = dotted.split(".")
    obj = heads[head]
    for attr in rest:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif attr in getattr(obj, "__dataclass_fields__", {}):
            obj = None
        else:
            return False
    return True


def _unresolved(docs: dict, heads: dict) -> list:
    return [(where, m.group(1)) for where, text in docs.items()
            for m in _NAME.finditer(text)
            if m.group(1).split(".")[0] in heads and not _resolves(m.group(1), heads)]


def test_unresolved_finds_a_stale_name():
    heads = _heads()
    doc = {"doc": "`reports.TOWER`, `qiso.reports.TOWER`, `HaarResult.residual`, "
                  "`CoAction.exact_block(k)`, `space.tol`, `reports.RUN_KINDS` and "
                  "`CoAction.no_such_map(x)`"}
    assert _unresolved(doc, heads) == [("doc", "reports.RUN_KINDS"),
                                       ("doc", "CoAction.no_such_map")]


def test_docs_name_only_what_exists():
    heads, docs = _heads(), _docs()
    named = [m.group(1) for text in docs.values() for m in _NAME.finditer(text)
             if m.group(1).split(".")[0] in heads]
    assert len(named) >= 30, named
    assert _unresolved(docs, heads) == []
