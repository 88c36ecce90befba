"""Every command keeps its GF(2) bits in one form: packed ints.

The numpy entry points of `f2linalg` (`rank_f2`, `pivot_columns_f2`,
`kernel_basis_f2`, `solve_f2`, `image_basis_f2`) take a dense uint8
matrix and pack it for `reduce_columns`.  The commands hold their bits
packed already (tower rows, the odd rows of simplicial boundaries, the
block systems of a homotopy solve) and call `reduce_columns` or
`_solve_packed` themselves, so only `f2linalg` and `graded`, the
degree-window reference that no command builds, name those entry points.
No module gives an integer matrix a dense mod-2 copy (`mod2`).
`simplicial` holds each mod-2 cochain as one packed int, as its boundary
rows are: it imports no numpy and names none of the numpy converters
(`f2`, `_pack_rows`, `_unpack_rows`) or `_solve_packed`.  `equivariant`
holds each finite-part matrix of a tower model as packed rows only, so it
imports no numpy and names none of the converters either.  `involutive`
takes every product on packed columns in slot order, so it imports no
numpy and names none of the converters or the dense products (`f2_mul`,
`f2_eye`, `f2_zeros`).  The one packed product, `_apply`, is defined in
`f2linalg` alone.  Each module of the package is read from its source.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homcob"
NUMPY_ENTRY_POINTS = {"rank_f2", "pivot_columns_f2", "kernel_basis_f2", "solve_f2",
                      "image_basis_f2"}
ALLOWED = {"f2linalg", "graded"}


def _names(path: Path) -> set[str]:
    """Every name a module defines, imports, reads or reads as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_numpy_entry_points_are_named_only_in_f2linalg_and_graded():
    named = {path.stem: sorted(NUMPY_ENTRY_POINTS & _names(path))
             for path in sorted(SRC.glob("*.py")) if path.stem not in ALLOWED}
    assert {module: names for module, names in named.items() if names} == {}


def test_no_dense_mod2_copy():
    assert [path.stem for path in sorted(SRC.glob("*.py")) if "mod2" in _names(path)] == []


def _imports(path: Path) -> set[str]:
    """The top-level package of every module a module imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_simplicial_keeps_its_cochains_packed():
    path = SRC / "simplicial.py"
    assert "numpy" not in _imports(path)
    assert {"f2", "_pack_rows", "_unpack_rows", "_solve_packed"} & _names(path) == set()


def test_equivariant_keeps_its_model_matrices_packed():
    path = SRC / "equivariant.py"
    assert "numpy" not in _imports(path)
    assert {"f2", "_pack_rows", "_unpack_rows"} & _names(path) == set()


def test_involutive_takes_every_product_packed():
    path = SRC / "involutive.py"
    assert "numpy" not in _imports(path)
    dense = {"f2", "f2_mul", "f2_eye", "f2_zeros", "_pack_rows", "_unpack_rows"}
    assert dense & _names(path) == set()


def _defines(path: Path) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def test_one_module_defines_the_packed_product():
    assert [path.stem for path in sorted(SRC.glob("*.py")) if "_apply" in _defines(path)] == [
        "f2linalg"]
