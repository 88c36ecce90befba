import random

import pytest

from homcob import cli
from homcob import f2linalg as la
from homcob import knot
from homcob.cli import main
from homcob.errors import InputError, InternalError
from homcob.knot import (
    LaurentPoly,
    OBSTRUCTED,
    UNKNOWN,
    SeifertMatrix,
    alexander,
    arf,
    corollary_predicate,
    fox_milnor_obstruction,
    signature,
)

from helpers import alexander_oracle, signature_oracle

UNKNOT = SeifertMatrix([])
TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIG8 = SeifertMatrix([[1, 1], [0, -1]])


def test_validation_rejects_odd_size():
    with pytest.raises(InputError):
        SeifertMatrix([[1]])


def test_validation_rejects_degenerate_pairing():
    with pytest.raises(InputError):
        SeifertMatrix([[1, 0], [0, 1]])


def test_empty_matrix_loads():
    # the unimodularity check needs no size guard: the 0x0 determinant is 1
    assert la.int_det([]) == 1
    v = SeifertMatrix.from_json({"kind": "seifert", "matrix": []})
    assert v.size == 0 and v.to_json() == UNKNOT.to_json() == {"kind": "seifert", "matrix": []}


def test_signature_unknot():
    assert signature(UNKNOT) == 0


def test_signature_trefoil():
    assert signature(TREFOIL) == -2


def test_signature_figure_eight():
    # V + V^T = [[2, 1], [1, -2]] is indefinite
    assert signature(FIG8) == 0


def test_signature_degenerate_block():
    # symmetrization [[0, 1], [1, 0]] contributes a hyperbolic (+1, -1)
    v = SeifertMatrix([[0, 1], [0, 0]])
    assert signature(v) == 0


def test_alexander_unknot():
    assert alexander(UNKNOT) == LaurentPoly.one()


def test_alexander_trefoil():
    assert alexander(TREFOIL) == LaurentPoly({1: 1, 0: -1, -1: 1})


def test_alexander_figure_eight():
    poly = alexander(FIG8)
    assert poly == LaurentPoly({1: -1, 0: 3, -1: -1})
    assert poly(1) == 1 and poly(-1) == 5


def test_arf_values():
    assert arf(alexander(UNKNOT)) == 0   # |Delta(-1)| = 1
    assert arf(alexander(TREFOIL)) == 1  # |Delta(-1)| = 3
    assert arf(alexander(FIG8)) == 1     # |Delta(-1)| = 5 = -3 mod 8
    granny = SeifertMatrix(
        [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
    )
    assert arf(alexander(granny)) == 0   # |Delta(-1)| = 9


def test_fox_milnor():
    assert fox_milnor_obstruction(alexander(FIG8)) == OBSTRUCTED
    assert fox_milnor_obstruction(alexander(UNKNOT)) == UNKNOWN
    square = alexander(TREFOIL) * alexander(TREFOIL)
    assert fox_milnor_obstruction(square) == UNKNOWN  # 9 = 3^2


def test_corollary_predicate():
    assert corollary_predicate(0, 1) is True      # figure-eight
    assert corollary_predicate(0, 0) is False     # unknot
    assert corollary_predicate(-2, 1) is False    # trefoil


def test_symmetry_and_unit_value():
    """D is symmetric, D(1) = 1 and so D != 0, on the fixtures, random
    Seifert matrices and random block sums of them, up to genus 12."""
    rng = random.Random(10)
    cases = [UNKNOT, TREFOIL, FIG8, _random_seifert(rng, 4)]
    for genus in (2, 3, 5, 8, 12):
        blocks = [rng.choice(GENUS_ONE) for _ in range(genus - 2)] + [_random_seifert(rng, 4).v]
        rng.shuffle(blocks)
        cases.append(SeifertMatrix(_dense_congruence(rng, _block_sum(blocks))))
    for v in cases:
        poly = alexander(v)
        assert poly.coeffs and poly.is_symmetric()
        assert poly(1) == 1


def test_signature_is_even():
    rng = random.Random(20)
    for _ in range(15):
        v = _random_seifert(rng, rng.choice([2, 4]))
        assert signature(v) % 2 == 0


def test_unimodular_congruence_invariance():
    rng = random.Random(30)
    for base in (TREFOIL, FIG8):
        sig0, poly0 = signature(base), alexander(base)
        for _ in range(10):
            s = _random_unimodular(rng, 2)
            st = [[s[j][i] for j in range(2)] for i in range(2)]
            conj = SeifertMatrix(_mat_mul(_mat_mul(s, base.v), st))
            assert signature(conj) == sig0
            assert arf(alexander(conj)) == arf(poly0)
            # Alexander polynomial is invariant up to the fixed normalization
            assert alexander(conj) == poly0


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def _random_unimodular(rng, n):
    # product of random elementary matrices
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
    return m


def _random_seifert(rng, size):
    # start from a block sum of trefoil-type blocks, then conjugate
    blocks = []
    for _ in range(size // 2):
        a = rng.choice([-1, 1])
        blocks.append([[a, 1], [0, a]])
    v = [[0] * size for _ in range(size)]
    for b, block in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                v[2 * b + i][2 * b + j] = block[i][j]
    s = _random_unimodular(rng, size)
    st = [[s[j][i] for j in range(size)] for i in range(size)]
    return SeifertMatrix(_mat_mul(_mat_mul(s, v), st))


def _block_sum(blocks):
    n = sum(len(b) for b in blocks)
    v = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            v[at + i][at:at + len(b)] = row
        at += len(b)
    return v


def _dense_congruence(rng, v):
    """P V P^T for P = L U, unit triangular factors with entries in {-1, 0, 1}."""
    n = len(v)
    lower = [[int(i == j) or (rng.choice((-1, 0, 1)) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) or (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)]
             for i in range(n)]
    p = _mat_mul(lower, upper)
    pt = [list(r) for r in zip(*p)]
    return _mat_mul(_mat_mul(p, v), pt)


def test_alexander_matches_laplace_oracle():
    rng = random.Random(61)
    for genus in range(1, 7):
        for _ in range(3 if genus < 6 else 1):
            v = _random_seifert(rng, 2 * genus)
            assert alexander(v) == alexander_oracle(v)
            conj = SeifertMatrix(_dense_congruence(rng, v.v))
            assert alexander(conj) == alexander_oracle(conj) == alexander(v)


GENUS_ONE = (TREFOIL.v, FIG8.v, [[1, 1], [0, 1]], [[0, 1], [0, 0]])


def test_block_sums_add_up_to_genus_twenty():
    rng = random.Random(67)
    for genus in (2, 7, 13, 20):
        blocks = [rng.choice(GENUS_ONE) for _ in range(genus)]
        blocks[:2] = [_random_seifert(rng, 4).v]  # one genus-2 block
        parts = [SeifertMatrix(b) for b in blocks]
        v = SeifertMatrix(_dense_congruence(rng, _block_sum(blocks)))
        want = LaurentPoly.one()
        for part in parts:
            want = want * alexander(part)
        assert alexander(v) == want
        assert signature(v) == sum(signature(part) for part in parts)
        assert arf(alexander(v)) == sum(arf(alexander(part)) for part in parts) % 2


def test_arf_reads_the_alexander_value_at_minus_one():
    rng = random.Random(71)
    for _ in range(20):
        v = _random_seifert(rng, 2 * rng.randint(1, 5))
        if rng.random() < 0.5:
            v = SeifertMatrix(_dense_congruence(rng, v.v))
        poly = alexander(v)
        at_minus1 = abs(int(poly(-1)))
        # |Delta(-1)| = |det(V + V^T)|: the value arf reads is this determinant
        assert abs(la.int_det(v.symmetrized())) == at_minus1
        assert arf(poly) == (0 if at_minus1 % 8 in (1, 7) else 1)


@pytest.mark.parametrize("v", [TREFOIL, SeifertMatrix(_block_sum([FIG8.v, TREFOIL.v, FIG8.v]))])
def test_interpolation_check_catches_one_wrong_sample(monkeypatch, v):
    exact = la.int_det
    # the determinants: signature's samples t = 0..n and its check at
    # n + 1; alexander's the same but t = 1, which is det(V - V^T) = 1
    for invariant, what, dets in ((alexander, "Alexander", v.size + 1),
                                  (signature, "characteristic polynomial", v.size + 2)):
        for wrong in [*range(dets), None]:  # None: every sample right
            calls = []

            def int_det(a):
                calls.append(a)
                return exact(a) + (len(calls) - 1 == wrong)

            monkeypatch.setattr(la, "int_det", int_det)
            if wrong is None:
                invariant(v)
                assert len(calls) == dets
            else:
                with pytest.raises(InternalError, match=f"{what} interpolation"):
                    invariant(v)
                assert len(calls) > wrong
            monkeypatch.setattr(la, "int_det", exact)


HYPERBOLIC = [[0, 1], [0, 0]]  # V + V^T has a zero diagonal


def test_signature_matches_congruence_oracle():
    rng = random.Random(73)
    cases = []
    for genus in range(1, 8):
        for _ in range(4 if genus < 6 else 2):
            v = _random_seifert(rng, 2 * genus)
            cases += [v, SeifertMatrix(_dense_congruence(rng, v.v))]
    for blocks in ([HYPERBOLIC], [HYPERBOLIC] * 3, [HYPERBOLIC, TREFOIL.v, HYPERBOLIC, FIG8.v]):
        v = SeifertMatrix(_block_sum(blocks))
        cases += [v, SeifertMatrix(_dense_congruence(rng, v.v))]
    # chi(t) = t^4 + 6t^3 + 9t^2 - 3: one sign change, and chi(-t) has
    # three, one of them across the zero coefficient of t
    zero_gap = SeifertMatrix([[-1, 1, -1, 0], [0, 0, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]])
    s = zero_gap.symmetrized()
    chi = knot._det_poly(lambda t: [[t * (i == j) - s[i][j] for j in range(4)] for i in range(4)],
                         4, "characteristic polynomial")
    assert chi == LaurentPoly({4: 1, 3: 6, 2: 9, 0: -3})
    assert signature(zero_gap) == -2
    # chi(t) = (t^2 - 5)^2: only even powers
    cases += [zero_gap, SeifertMatrix(_block_sum([FIG8.v, FIG8.v]))]
    for v in cases:
        assert signature(v) == signature_oracle(v)


def _det_poly_returning(what, poly):
    """Patch knot._det_poly to return `poly` for the determinant named `what`."""
    def patch(monkeypatch):
        exact = knot._det_poly
        monkeypatch.setattr(knot, "_det_poly",
                            lambda at, n, name, **known: poly if name == what
                            else exact(at, n, name, **known))
    return patch


def _even_alexander_value_at_minus_one(monkeypatch):
    """Hand arf, in the tests and in the CLI, an Alexander polynomial whose
    value at -1 is even (-2)."""
    even = LaurentPoly({-1: 1, 1: 1})
    monkeypatch.setattr(knot, "alexander", lambda v: even)
    monkeypatch.setattr(cli, "alexander", lambda v: even)


def _arf_of_alexander(v):
    return arf(knot.alexander(v))


@pytest.mark.parametrize("invariant, message, patch", [
    (alexander, "cannot be symmetrized",
     _det_poly_returning("Alexander", LaurentPoly({0: 1, 1: 1}))),
    (alexander, "not symmetric after centering",
     _det_poly_returning("Alexander", LaurentPoly({0: 1, 1: 2, 2: 3}))),
    (signature, "Descartes' count",
     _det_poly_returning("characteristic polynomial", LaurentPoly({0: 1, 2: 1}))),
    (_arf_of_alexander, "is even", _even_alexander_value_at_minus_one),
], ids=["odd-span", "asymmetric", "descartes", "even-det"])
def test_each_broken_seifert_law_raises_internal_error(monkeypatch, capsys, invariant, message,
                                                       patch):
    """Each checked law that det(V - V^T) = 1 implies, broken on the
    trefoil.  D(1) = 1 is no check: the t = 1 sample is that value
    (test_symmetry_and_unit_value)."""
    patch(monkeypatch)
    with pytest.raises(InternalError, match=message):
        invariant(TREFOIL)
    assert main(["knot", "fixtures:trefoil"]) == 3
    assert "InternalError" in capsys.readouterr().err
