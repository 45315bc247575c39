"""The package namespace: which names `bcd` exports and what `import bcd` loads.

`bcd/__init__` imports no submodule and resolves every public name on first
use, so these checks look at fresh processes, where no earlier test has
loaded a submodule yet.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bcd

SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"
MODULE_NAMES = {p.stem for p in Path(SRC, "bcd").glob("*.py")} - {"__init__"}

PUBLIC_NAMES = [
    "ARROW_SOURCE", "ARROW_TARGET", "ASSO", "ASSO_INV", "Arrow", "Atom", "COMM", "DIST",
    "DecisionCache", "Expr", "Factor", "IDEM", "INFINITE_DEPTH", "InvalidPosition",
    "LimitExceeded", "MEET_LEFT", "MEET_RIGHT", "Meet", "MissingParameter", "Model",
    "NotARedex", "ParseError", "Rule", "SubtypeMatrix", "TRUNCATION_ATOM", "Trace",
    "TraceStep", "UnknownAtom", "Verdict", "absp", "apply", "arrow_depth", "atoms_of",
    "build_model", "convertible_bounded", "dept", "dept_normal_form", "dist_normal_form",
    "equiv", "explain", "factors", "meet_members", "meet_of", "node_count", "parse",
    "redexes", "render", "satisfies_eq", "slat_canonical", "stack_of_twos",
    "subexpressions", "subseteq", "subtype_matrix",
]


def fresh(code: str):
    """Run `code` in a new interpreter with ./src on the path; its JSON stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestPublicNamespace:
    def test_dir_lists_exactly_the_public_names(self):
        assert [n for n in dir(bcd) if not n.startswith("_")] == PUBLIC_NAMES

    def test_star_import_binds_exactly_the_public_names(self):
        ns = {}
        exec("from bcd import *", ns)
        assert sorted(n for n in ns if n != "__builtins__") == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_every_name_resolves_to_its_submodule_object(self, name):
        value = getattr(bcd, name)
        module = sys.modules[f"bcd.{bcd._EXPORTS[name]}"]
        assert value is getattr(module, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bcd.no_such_name
        assert not hasattr(bcd, "StackOfTwos")
        with pytest.raises(ImportError):
            exec("from bcd import StackOfTwos", {})

    def test_bare_import_loads_no_submodule(self):
        loaded = fresh(
            "import json, sys, bcd; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('bcd', 'dataclasses'))))"
        )
        assert loaded == ["bcd"]

    def test_no_public_name_is_a_module_name(self):
        # importing a submodule binds it on the package, so a module named
        # like a public name would replace that name
        assert MODULE_NAMES and not MODULE_NAMES & set(bcd._EXPORTS)


class TestFactorsNameClash:
    """`bcd.factors` is the function whatever loads first: no submodule has
    its name."""

    @pytest.mark.parametrize(
        "first", ["import bcd.decide", "from bcd.model import build_model"]
    )
    def test_function_survives_a_later_submodule_import(self, first):
        kind = fresh(
            f"import importlib.util, json, types; {first}; import bcd; "
            "print(json.dumps([callable(bcd.factors), "
            "isinstance(bcd.factors, types.ModuleType), bcd.factors.__module__, "
            "importlib.util.find_spec('bcd.factors') is None]))"
        )
        assert kind == [True, False, "bcd.decide", True]


class TestModuleHomes:
    """The depth truncation lives in `bcd.syntax` and satisfies_eq in
    `bcd.decide`; `bcd.model` imports the truncation for class_index."""

    def test_old_paths_give_the_same_objects(self):
        import bcd.model
        import bcd.syntax

        assert bcd.model.dept_normal_form is bcd.syntax.dept_normal_form

    def test_exports_point_at_the_new_homes(self):
        assert bcd._EXPORTS["INFINITE_DEPTH"] == "syntax"
        assert bcd._EXPORTS["dept_normal_form"] == "syntax"
        assert bcd._EXPORTS["satisfies_eq"] == "decide"
        assert bcd._EXPORTS["dist_normal_form"] == "decide"
        assert sorted(bcd._EXPORTS) == PUBLIC_NAMES

    def test_readme_module_table_lists_every_module(self):
        # "What is in the box" has one row per module under src/bcd
        section = README.read_text().split("## What is in the box\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `bcd\.(\w+)` \|", section, re.M)
        assert sorted(rows) == sorted(MODULE_NAMES)

    def test_bare_import_loads_no_json(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, bcd; print('json' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def _cap_mentions(tree):
    """(enclosing function or None, use) for each MATRIX_CAP_BYTES in tree, as
    a name, an attribute or an imported alias."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if "MATRIX_CAP_BYTES" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append((fn, type(node.ctx).__name__))
        elif isinstance(node, ast.alias) and "MATRIX_CAP_BYTES" in (node.name, node.asname):
            found.append((fn, "import"))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


class TestByteCapInOnePlace:
    def test_only_check_bytes_reads_the_cap(self):
        # every byte refusal goes through decide._check_bytes, so the cap is
        # decided in one place
        for path in sorted(Path(SRC, "bcd").glob("*.py")):
            found = _cap_mentions(ast.parse(path.read_text()))
            if path.name == "decide.py":
                assert found == [(None, "Store"), ("_check_bytes", "Load"), ("_check_bytes", "Load")]
            else:
                assert found == [], path.name


def _cache_writes(tree, key):
    """The enclosing function (or None) of each place in tree that may write
    the node cache key: every mention of the string key, or store to an
    attribute of that name, except a subscript load and the key argument of
    a get or getattr call."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            reads.add(id(node.slice))
        elif isinstance(node, ast.Call):
            if getattr(node.func, "attr", None) == "get" and node.args:
                reads.add(id(node.args[0]))
            elif getattr(node.func, "id", None) == "getattr" and len(node.args) > 1:
                reads.add(id(node.args[1]))
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Constant) and node.value == key and id(node) not in reads:
            found.append(fn)
        elif isinstance(node, ast.Attribute) and node.attr == key and not isinstance(
            node.ctx, ast.Load
        ):
            found.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


class TestNodeCachesHaveOneWriter:
    @pytest.mark.parametrize(
        "key, home, writer",
        [("_groups", "decide.py", "_group"), ("_dept", "syntax.py", "dept_normal_form")],
    )
    def test_one_writer_per_key(self, key, home, writer):
        # each node cache is written in one place, so one function decides
        # what it holds
        writes = {}
        for path in sorted(Path(SRC, "bcd").glob("*.py")):
            found = _cache_writes(ast.parse(path.read_text()), key)
            if found:
                writes[path.name] = found
        assert writes == {home: [writer]}

    def test_factor_groups_and_the_cache_keep_nothing_of_their_own(self):
        from bcd.decide import DecisionCache, factor_groups

        assert DecisionCache.__slots__ == ("_sub",)
        e = bcd.parse("nc_a -> (nc_b & (nc_c -> nc_a))")
        factor_groups(e)
        assert "_groups" not in e.__dict__
        assert DecisionCache().subseteq(e, bcd.parse("nc_a -> nc_b"))
        assert e.__dict__["_groups"] == factor_groups(e)


PERFBENCH = Path(SRC).parent / "perfbench"
# Trace has no reader yet: prune's trace (ROADMAP item 16) is to be its first
UNREAD_BY_DESIGN = {"Trace"}


def _loads(tree) -> list:
    """(name, the top-level def or class it is in, or None) for each name
    that tree loads: as a name, as an attribute, or by an import."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            found.append((getattr(node, "id", None) or node.attr, owner))
        elif isinstance(node, ast.alias):
            found.append((node.asname or node.name.split(".")[-1], owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in tree.body:
        visit(top, getattr(top, "name", None))
    return found


class TestEveryPublicNameHasAReader:
    def test_exports_and_public_defs_are_read_outside_their_own_body(self):
        # a name stays public only while the package or the benchmark reads
        # it: tests alone keep no name, and bcd/__init__ only lists them
        readers = [p for p in Path(SRC, "bcd").glob("*.py") if p.name != "__init__.py"]
        readers += PERFBENCH.glob("*.py")
        reads = {}
        for path in readers:
            for name, owner in _loads(ast.parse(path.read_text())):
                reads.setdefault(name, set()).add((path.stem, owner))
        public = {(module, name) for name, module in bcd._EXPORTS.items()}
        for path in Path(SRC, "bcd").glob("*.py"):
            for top in ast.parse(path.read_text()).body:
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name[0] != "_":
                    public.add((path.stem, top.name))
        unread = sorted(
            name for module, name in public
            if not reads.get(name, set()) - {(module, name)}
        )
        assert unread == sorted(UNREAD_BY_DESIGN)


# The private names that one src/bcd module imports from another, by
# (importer, home).  A new private read across modules is a decision about
# where a name lives, so it takes an edit here.
PRIVATE_IMPORTS = {
    ("cli", "decide"): ["_check_bytes"],
    ("gen", "rewrite"): ["_is_redex"],
    ("gen", "syntax"): ["_preorder"],
    ("model", "decide"): ["_check_bytes"],
    ("model", "syntax"): ["_ATOM_NAME"],
    ("rewrite", "syntax"): ["_AT", "_path", "_preorder", "_rebuild"],
}


class TestPrivateImportsAcrossModules:
    def test_the_private_names_each_module_imports_are_pinned(self):
        found = {}
        for path in sorted(Path(SRC, "bcd").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        if alias.name.startswith("_"):
                            found.setdefault((path.stem, node.module), []).append(alias.name)
        assert {key: sorted(names) for key, names in found.items()} == PRIVATE_IMPORTS
