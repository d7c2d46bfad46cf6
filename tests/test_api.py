"""The public API is frozen: a change to ``npvset.__all__`` must be deliberate."""

import ast
import subprocess
import sys
from pathlib import Path

import npvset
from npvset.parsing import parse_map

PUBLIC_API = [
    "AssociatedSequence", "BiPoly", "Caps", "ConcreteBranch", "ExpansionNode",
    "LeadingData", "MapPair", "ParamSeries", "RootIndexData", "SampleReport",
    "Scalar", "SeriesClass", "Theorem1Certificate", "Theorem2Certificate",
    "UniPoly", "ValueSetComponent", "algebra", "associated_sequence", "bipoly",
    "branch_limit_sample", "check_eq4", "check_eq9", "check_lemma2",
    "check_lemma3", "check_lemma4", "check_newton_factorization",
    "check_section5_identity", "classify", "curve_branches", "delta",
    "dicritical_series", "errors", "expansion", "expansion_tree",
    "is_refinement", "jacobian", "leading_data", "nonproper_value_set",
    "normalize_monic", "oracle", "properness_probe", "puiseux", "refine",
    "root_index_data", "run_all_checks", "series", "substitute", "valueset",
    "verify_theorem1", "verify_theorem2",
]


def test_public_api_is_frozen():
    assert len(PUBLIC_API) == 50
    assert sorted(npvset.__all__) == PUBLIC_API


def test_leading_data_fields_and_constructor():
    # LeadingData is no longer a tuple, but keeps the seven fields in order,
    # the positional constructor and value equality
    fields = ("p_lead", "p_exp", "q_lead", "q_exp", "jac_lead", "jac_exp", "mult")
    assert npvset.LeadingData._fields == fields
    f = npvset.normalize_monic(*parse_map("x*y+y^2+y; x+y"))
    for phi in (npvset.puiseux.ROOT_WINDOW, npvset.series(1, [], 2)):
        lead = npvset.leading_data(f, phi)
        built = npvset.LeadingData(*[getattr(lead, name) for name in fields])
        assert built == lead and lead == built and repr(built) == repr(lead)
        assert repr(lead).startswith("LeadingData(p_lead=UniPoly(")
        assert built != npvset.LeadingData(*[getattr(lead, n) for n in fields[:-1]], 2)


def test_import_loads_no_dataclasses():
    # records are NamedTuples and slotted classes; dataclasses costs memory
    # and start-up time in every process that imports the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import npvset; "
        "print('dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def unused_imports(source: str) -> list:
    """Names a module imports and never reads (``from __future__`` aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_no_unused_imports():
    # the package's __init__.py imports only to re-export
    package = Path(npvset.__file__).parent
    paths = [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    found = {
        f"{path.parent.name}/{path.name}": unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(paths)
        if path != package / "__init__.py"
    }
    assert "tests/conftest.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def names_read(trees) -> set:
    """Loaded names and attribute names anywhere in the given syntax trees."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def definitions_never_read(sources: dict, private: bool, exported=()) -> list:
    """Module-level functions and classes that no module reads.

    Only names starting with ``_`` are looked at when ``private``, and only
    the others when not; a name in ``exported`` counts as read.  A read is a
    loaded name or an attribute of that name anywhere in the given sources;
    the definition itself is not one.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = names_read(trees.values()) | set(exported)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs)
        and node.name.startswith("_") == private
        and node.name not in read
    )


def package_sources() -> dict:
    package = Path(npvset.__file__).parent
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
    }


def test_no_unread_private_helpers():
    assert definitions_never_read(package_sources(), private=True) == []
    # the guard only means something if it sees the helpers
    assert definitions_never_read({"m.py": "def _f(): pass"}, private=True) == ["m.py:_f"]


def test_no_unread_public_definitions():
    # every public function and class is re-exported or read by the package
    found = definitions_never_read(package_sources(), False, npvset.__all__)
    assert found == []
    # the guard only means something if it sees the definitions
    synthetic = {"m.py": "def f(): pass\ndef g(): pass\nclass C: pass\n"}
    assert definitions_never_read(synthetic, False, ["g"]) == ["m.py:C", "m.py:f"]


def methods_never_read(sources: dict, readers: dict) -> list:
    """Non-dunder methods of the module-level classes in ``sources`` that no
    module of ``sources`` or ``readers`` reads, as a name or an attribute.
    An attribute taken on the name of one of those classes, ``Cls.name``,
    reads that class's method only."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    classes = [
        (name, cls)
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
    ]
    class_names = {cls.name for _, cls in classes}
    read, read_on_class = set(), set()
    for tree in [*trees.values(), *map(ast.parse, readers.values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in class_names:
                    read_on_class.add((node.value.id, node.attr))
                else:
                    read.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted(
        f"{name}:{cls.name}.{node.name}"
        for name, cls in classes
        for node in cls.body
        if isinstance(node, defs)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
        and (cls.name, node.name) not in read_on_class
    )


def test_no_unread_methods():
    # every method of a package class is read by the package itself; a
    # method only tests call belongs in the tests.  A read is matched by
    # name alone, so ConcreteBranch.coeff_at went unseen while
    # ParamSeries.coeff_at was read, and BiPoly.zero while UniPoly.zero was
    assert methods_never_read(package_sources(), {}) == []
    # the guard only means something if it sees the methods, and a test
    # that calls one makes it read only when passed as a reader
    synthetic = {
        "m.py": "class C:\n    def __eq__(self, o): pass\n"
        "    def used(self): pass\n    def tested(self): pass\n"
        "    @property\n    def gone(self): pass\nC().used()\n"
    }
    assert methods_never_read(synthetic, {}) == ["m.py:C.gone", "m.py:C.tested"]
    readers = {"t.py": "C().tested()\n"}
    assert methods_never_read(synthetic, readers) == ["m.py:C.gone"]
    # a read on a class name reads that class's method alone, so
    # UniPoly.zero() cannot hide an unread BiPoly.zero
    twins = {
        "m.py": "class A:\n    @staticmethod\n    def zero(): pass\n"
        "class B:\n    @staticmethod\n    def zero(): pass\nB.zero()\n"
    }
    assert methods_never_read(twins, {}) == ["m.py:A.zero"]
    assert methods_never_read(twins, {"t.py": "A().zero()\n"}) == []


KERNEL = {"prefix_expansion"}


def kernel_uses_outside_route(sources: dict) -> list:
    """Imports and reads of the expansion kernel outside its one route.

    The route is ``puiseux.expansion_points``; the kernel's own definitions
    in ``puiseux`` are not uses.
    """
    found = []
    for name, text in sources.items():
        for node in ast.parse(text).body:
            if (
                name == "puiseux.py"
                and isinstance(node, ast.FunctionDef)
                and node.name in KERNEL | {"expansion_points"}
            ):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    names = [a.name for a in sub.names]
                elif isinstance(sub, ast.Name):
                    names = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                else:
                    continue
                found += [f"{name}:{n}" for n in names if n in KERNEL]
    return sorted(found)


def test_one_route_to_the_expansion_kernel():
    # every expansion is read through the per-curve support-point table
    assert kernel_uses_outside_route(package_sources()) == []
    # the guard only means something if it sees a call and an import
    bypass = {
        "expansion.py": "from .puiseux import prefix_expansion\n",
        "puiseux.py": "def leads(f, p):\n    return prefix_expansion(f, p)\n",
    }
    assert kernel_uses_outside_route(bypass) == [
        "expansion.py:prefix_expansion",
        "puiseux.py:prefix_expansion",
    ]
