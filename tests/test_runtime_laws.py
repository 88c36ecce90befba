"""Every runtime law of `src/homcob` is broken by a named test.

A `raise InternalError(...)` in the package is a law checked at run time:
it can fail only through a bug.  Each one is read here from the source,
keyed by its module and its message (`{}` for each formatted field), and
the set of keys must equal LAWS, which names the test that breaks each
law.  A new runtime check without a break test, or a deleted one left in
the table, fails here.  Laws that hold by construction (d d = 0 of the
face rule, the hfi mod-2 congruences, D(1) = 1) are not checked at run
time; the tests check them.  `graded`, the degree-window reference that
no command builds, is not read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homcob"
TESTS = Path(__file__).resolve().parent
SKIPPED = {"graded"}

LAWS = {
    ("equivariant", "alpha >= beta >= gamma violated: {}"):
        "test_equivariant::test_each_broken_abc_law_raises_internal_error",
    ("f2linalg", "SNF verification failed: U*m*V != D"):
        "test_f2linalg::test_snf_certificate_holds_and_catches_each_changed_q",
    ("f2linalg", "SNF verification failed: divisibility chain broken"):
        "test_f2linalg::test_snf_certificate_rejects_a_wrong_diagonal",
    ("f2linalg", "SNF verification failed: transform not unimodular"):
        "test_f2linalg::test_snf_certificate_rejects_an_op_with_dst_equal_to_src",
    ("involutive", "cone has {} stabilized towers, expected 2"):
        "test_involutive::test_each_broken_involutive_law_raises_internal_error",
    ("involutive", "homotopy solve returned H with dH + Hd != rhs"):
        "test_involutive::test_homotopy_solve_certifies_h",
    ("involutive", "ordering d_under <= d <= d_bar fails: {}"):
        "test_involutive::test_each_broken_involutive_law_raises_internal_error",
    ("knot", "Alexander determinant cannot be symmetrized"):
        "test_knot::test_each_broken_seifert_law_raises_internal_error",
    ("knot", "Alexander determinant is not symmetric after centering"):
        "test_knot::test_each_broken_seifert_law_raises_internal_error",
    ("knot", "Alexander value {} at -1 is even, but the value at 1 is 1"):
        "test_knot::test_each_broken_seifert_law_raises_internal_error",
    ("knot", "Descartes' count finds {} positive and {} negative eigenvalues"
             " of V + V^T of size {}, but det(V + V^T) is odd"):
        "test_knot::test_each_broken_seifert_law_raises_internal_error",
    ("knot", "{} interpolation disagrees with the determinant at t = {}"):
        "test_knot::test_interpolation_check_catches_one_wrong_sample",
    ("knot", "{} interpolation has non-integer coefficients"):
        "test_knot::test_interpolation_check_catches_one_wrong_sample",
    ("simplicial", "integral coboundary of a mod-2 cocycle is odd"):
        "test_simplicial::test_bockstein_of_a_replaced_non_cocycle_raises",
}


def _message(node: ast.expr) -> str:
    """The message of a raise: a string, or an f-string read with `{}`
    for each formatted field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    assert isinstance(node, ast.JoinedStr), ast.dump(node)
    return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                   for part in node.values)


def runtime_laws() -> list[tuple[str, str]]:
    """(module, message) of every `raise InternalError(...)` in the package."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in SKIPPED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "InternalError"):
                assert len(node.exc.args) == 1, f"{path.stem}: {ast.dump(node.exc)}"
                sites.append((path.stem, _message(node.exc.args[0])))
    return sites


def _test_functions(module: str) -> set[str]:
    tree = ast.parse((TESTS / f"{module}.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_runtime_law_has_a_break_test():
    sites = runtime_laws()
    assert len(sites) == len(set(sites)), "two raises share one message"
    assert set(sites) == set(LAWS)


def test_each_named_break_test_exists():
    for test in set(LAWS.values()):
        module, name = test.split("::")
        assert name in _test_functions(module), test

