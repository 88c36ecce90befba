import random
from functools import reduce
from itertools import combinations, product
from operator import xor

import numpy as np
import pytest

from homcob import cli, fixtures
from homcob import f2linalg as la
from homcob.errors import InputError, InternalError
from homcob.involutive import UComplex, cone_iota
from homcob.simplicial import ChainComplexZ

from helpers import (
    check_snf_oracle,
    coboundary_oracle,
    d_matrix_of,
    dense_int_mul,
    int_dense,
    int_transpose,
    mod2_oracle,
    random_complex,
    snf_diagonal_oracle,
    snf_transforms,
)


def test_rank_empty_and_identity():
    assert la.rank_f2(np.zeros((0, 0), dtype=np.uint8)) == 0
    assert la.rank_f2(la.f2_eye(3)) == 3


def test_rank_dependent_rows():
    assert la.rank_f2([[1, 1], [1, 1]]) == 1


def test_kernel_identity_empty():
    assert la.kernel_basis_f2(la.f2_eye(2)) == []


def test_kernel_zero_matrix():
    basis = la.kernel_basis_f2(la.f2_zeros(2, 3))
    assert len(basis) == 3


def test_kernel_example_vector():
    basis = la.kernel_basis_f2([[1, 1, 0], [0, 1, 1]])
    assert len(basis) == 1
    assert basis[0].tolist() == [1, 1, 1]
    # exhaustive check over GF(2)^3
    m = la.f2([[1, 1, 0], [0, 1, 1]])
    null = [
        v
        for v in ([a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1))
        if not la.f2_mul(m, np.array(v).reshape(-1, 1)).any()
    ]
    assert null == [[0, 0, 0], [1, 1, 1]]


def test_solve_identity():
    x = la.solve_f2(la.f2_eye(2), [1, 0])
    assert x.tolist() == [1, 0]


def test_solve_inconsistent():
    assert la.solve_f2(la.f2_zeros(2, 2), [1, 0]) is None


def test_solve_upper_triangular():
    x = la.solve_f2([[1, 1], [0, 1]], [0, 1])
    assert x.tolist() == [1, 1]


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        la.solve_f2([[1, 0]], [1, 0])


@pytest.mark.parametrize("inner", [1, 7, 15, 16, 17, 255, 256, 257, 300, 301])
def test_f2_mul_matches_int64_product(inner):
    # uint8 sums wrap mod 256; an all-ones row and column sum to `inner`.
    # The all-ones 3 x inner x 4 product stays below the BLAS cutoff up to
    # inner 341 and the 64 x inner x 64 one is above it from inner 1, so
    # both paths see sums of 256 and more.  A uint8 operand is not reduced
    # before the product, so entries 2-255 must give the parity of the
    # integer product on both paths; other dtypes and lists are reduced
    # mod 2 first
    rng = np.random.default_rng(inner)
    for rows, cols in ((3, 4), (64, 64)):
        ones_a, ones_b = np.ones((rows, inner), np.uint8), np.ones((inner, cols), np.uint8)
        wide_a = rng.integers(0, 256, (rows, inner)).astype(np.uint8)
        wide_b = rng.integers(0, 256, (inner, cols)).astype(np.uint8)
        signed = rng.integers(-300, 300, (inner, cols))
        cases = [(ones_a, ones_b),
                 (rng.integers(0, 2, (rows + 2, inner)), rng.integers(0, 2, (inner, cols + 2))),
                 (ones_a, rng.integers(0, 2, (inner, cols))),
                 (wide_a, wide_b),
                 (np.full((rows, inner), 255, np.uint8), wide_b),
                 (wide_a.T.copy().T, ones_b),  # a non-contiguous view
                 (wide_a, signed),
                 (wide_a.astype(np.int64), wide_b.astype(bool)),
                 (wide_a.tolist(), wide_b.tolist())]
        for a, b in cases:
            got = la.f2_mul(a, b)
            want = np.asarray(a, np.int64) @ np.asarray(b, np.int64) % 2
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert (la.f2_mul(ones_a, ones_b) == inner % 2).all()
        # every entry 255: each product is odd, so the sum has the parity of
        # inner; from inner 259 the sum is above 2^24, where float32 holds
        # only even integers, so the BLAS path must mask before its cast
        full_a, full_b = np.full_like(ones_a, 255), np.full_like(ones_b, 255)
        assert (la.f2_mul(full_a, full_b) == inner % 2).all()
        assert (la.f2_mul(full_a, ones_b * 2) == 0).all()
    assert 3 * 301 * 4 < la._BLAS_MIN_WORK <= 64 * 1 * 64
    with pytest.raises(InputError, match="shape mismatch"):
        la.f2_mul(ones_a, ones_a)


def test_packed_products_match_the_dense_product():
    # column t of A B is _apply(A, B[t]) on packed columns, and row i of
    # A B is _apply(B, A[i]) on packed rows
    rng = np.random.default_rng(34)
    for rows, inner, cols in ((0, 0, 0), (1, 1, 1), (3, 5, 4), (40, 70, 9), (70, 9, 40)):
        a, b = rng.integers(0, 2, (rows, inner)), rng.integers(0, 2, (inner, cols))
        want = la.f2_mul(a, b)
        a_cols, b_cols = la._pack_rows(la.f2(a).T), la._pack_rows(la.f2(b).T)
        assert [la._apply(a_cols, col) for col in b_cols] == la._pack_rows(want.T)
        a_rows, b_rows = la._pack_rows(la.f2(a)), la._pack_rows(la.f2(b))
        assert [la._apply(b_rows, row) for row in a_rows] == la._pack_rows(want)
    assert la._apply([], 0) == 0


class _SaturatingCast(np.ndarray):
    """An array whose float -> uint8 casts saturate at 255, as they do on
    some platforms (the C cast is undefined for values of 256 or more)."""

    def astype(self, dtype, *args, **kwargs):
        if np.dtype(dtype) == np.uint8 and self.dtype.kind == "f":
            return np.clip(np.asarray(self), 0, 255).astype(np.uint8).view(type(self))
        return super().astype(dtype, *args, **kwargs)


@pytest.mark.parametrize("inner", [256, 257, 300])
def test_f2_mul_blas_parity_does_not_rest_on_the_float_cast(inner):
    # sums of 256 or more must reach the parity through an integer type
    a = np.ones((64, inner), np.uint8).view(_SaturatingCast)
    b = np.ones((inner, 64), np.uint8).view(_SaturatingCast)
    assert (np.asarray(la.f2_mul(a, b)) == inner % 2).all()


def test_rank_plus_kernel_is_cols():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        m = la.f2(m) if rows and cols else la.f2_zeros(rows, cols)
        assert la.rank_f2(m) + len(la.kernel_basis_f2(m)) == cols


def test_solutions_satisfy_system():
    rng = random.Random(11)
    hits = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = la.f2([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)])
        b = np.array([rng.randint(0, 1) for _ in range(rows)], dtype=np.uint8)
        x = la.solve_f2(m, b)
        if x is not None:
            hits += 1
            assert (la.f2_mul(m, x.reshape(-1, 1)).reshape(-1) == b).all()
    assert hits > 0


def test_snf_diag_2_3():
    assert la.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_snf_identity():
    assert la.smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_snf_already_diagonal():
    assert la.smith_normal_form([[2, 0], [0, 0]]) == [2, 0]


def test_snf_known_torsion():
    # SNF of [[2,4],[6,8]]: determinant -8, gcd 2 -> diag(2, 4)
    assert la.smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_snf_random_verified():
    # smith_normal_form replays its log of elementary operations on m and
    # checks what is left and the divisibility chain; this exercises it
    # widely
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = la.smith_normal_form(m)
        assert len(diag) == min(rows, cols) and all(x >= 0 for x in diag)


def test_snf_entry_growth_matrix():
    # dense matrix with mixed magnitudes; arbitrary precision required
    m = [[(i * 37 + j * 101) % 25 - 12 for j in range(8)] for i in range(8)]
    diag = la.smith_normal_form(m)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0


def test_rank_mod2_two_ways():
    rng = random.Random(19)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m_int = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        m2 = la.f2(m_int)
        assert la.rank_f2(m2) == cols - len(la.kernel_basis_f2(m2))


def test_int_det_matches_snf_product():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        diag = la.smith_normal_form(m)
        prod = 1
        for x in diag:
            prod *= x
        assert abs(prod) == abs(la.int_det(m))


def _random_int_matrix(rng, rows, cols):
    """Dense, sparse, or of low rank (a product through fewer columns)."""
    kind = rng.choice(("dense", "sparse", "low rank"))
    if kind == "low rank":
        k = rng.randint(1, min(rows, cols))
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        return dense_int_mul(a, b)
    density = 1.0 if kind == "dense" else 0.3
    return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def _snf_certificate(monkeypatch, m):
    """(diagonal, row log, column log, pivots) of the SNF of m, the logs
    and pivots as smith_normal_form hands them to _check_snf."""
    seen = []
    check = la._check_snf
    with monkeypatch.context() as patch:
        patch.setattr(la, "_check_snf", lambda *args: seen.append(args) or check(*args))
        diag = la.smith_normal_form(m)
    source, row_log, col_log, pivots = seen[0]
    assert source == la.int_matrix(m)
    return diag, list(row_log), list(col_log), list(pivots)


def test_snf_diagonal_matches_determinantal_divisors(monkeypatch):
    rng = random.Random(47)
    for _ in range(150):
        m = _random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        diag, *log = _snf_certificate(monkeypatch, m)
        check_snf_oracle(m, *snf_transforms(m, *log, diag))
        assert diag == snf_diagonal_oracle(m)
        assert la.smith_normal_form(int_transpose(m)) == diag


def test_snf_of_boundary_matrices_passes_the_dense_check(monkeypatch):
    rng = random.Random(53)
    for _ in range(12):
        cc = ChainComplexZ.of(random_complex(rng, 8))
        for b in cc.boundaries:
            diag, *log = _snf_certificate(monkeypatch, b)
            m = int_dense(b)
            check_snf_oracle(m, *snf_transforms(m, *log, diag))


CERTIFIED = la.int_matrix([[2, 4, 0], [6, 8, 1], [0, 3, 5], [1, 0, 0]])


def test_snf_certificate_holds_and_catches_each_changed_q(monkeypatch):
    diag, row_log, col_log, pivots = _snf_certificate(monkeypatch, CERTIFIED)
    assert la._check_snf(CERTIFIED, row_log, col_log, pivots) == diag
    assert row_log and col_log
    for log in (row_log, col_log):
        for k, (dst, src, q) in enumerate(log):
            for dq in (-1, 1):
                log[k] = (dst, src, q + dq)
                with pytest.raises(InternalError, match="U\\*m\\*V != D"):
                    la._check_snf(CERTIFIED, row_log, col_log, pivots)
            log[k] = (dst, src, q)


def test_snf_certificate_rejects_an_op_with_dst_equal_to_src(monkeypatch):
    _, row_log, col_log, pivots = _snf_certificate(monkeypatch, CERTIFIED)
    for log in (row_log, col_log):
        for k, (dst, src, q) in enumerate(log):
            log[k] = (src, src, q)
            with pytest.raises(InternalError, match="transform not unimodular"):
                la._check_snf(CERTIFIED, row_log, col_log, pivots)
            log[k] = (dst, src, q)
    # row_0 -= -1 * row_0 turns (1) into (2), which is its own SNF, but the
    # operation doubles a row and has no inverse over Z
    with pytest.raises(InternalError, match="transform not unimodular"):
        la._check_snf(la.int_matrix([[1]]), [(0, 0, -1)], [], [(0, 0)])


def test_snf_certificate_rejects_a_wrong_diagonal(monkeypatch):
    _, row_log, col_log, pivots = _snf_certificate(monkeypatch, CERTIFIED)
    (p, c), rest = pivots[0], pivots[1:]
    free = next(i for i in range(4) if i not in {p for p, _ in pivots})
    for bad in ([(free, c), *rest],     # a pivot moved off its entry
                [*pivots, (free, c)],   # an extra pivot on a zero entry
                [*pivots, (p, c)],      # the same pivot twice
                rest):                  # a pivot left out
        with pytest.raises(InternalError, match="U\\*m\\*V != D"):
            la._check_snf(CERTIFIED, row_log, col_log, bad)
    for diag in ([2, 3], [4, 2], [-2, 3]):
        m = la.int_matrix([[diag[0], 0], [0, diag[1]]])
        with pytest.raises(InternalError, match="divisibility chain broken"):
            la._check_snf(m, [], [], [(0, 0), (1, 1)])


def test_snf_replay_takes_a_q0_step(monkeypatch):
    """clear logs row_i -= 0 * row_p when a remainder is smaller than the
    pivot; the replay passes over the entries of row_p that row_i lacks."""
    m = la.int_matrix([[2, 4], [2, 5]])
    diag, row_log, col_log, pivots = _snf_certificate(monkeypatch, m)
    assert (1, 0, 0) in row_log and diag == [1, 2]
    assert la._check_snf(m, row_log, col_log, pivots) == diag
    assert la._check_snf(la.int_matrix([[1, 0], [0, 2]]), [(1, 0, 0)], [(0, 1, 0)],
                         [(0, 0), (1, 1)]) == [1, 2]


def test_snf_replay_cancels_entries_to_zero():
    """Entries that cancel to zero leave the replay, so the pivot alone is
    left; an entry the logs do not cancel (a log cut short, or a q that
    overshoots) is caught."""
    m = la.int_matrix([[1, 1], [1, 1]])
    assert la._check_snf(m, [(1, 0, 1)], [(1, 0, 1)], [(0, 0)]) == [1, 0]
    for row_log, col_log in (([(1, 0, 1)], []), ([], [(1, 0, 1)]), ([(1, 0, 2)], [(1, 0, 1)])):
        with pytest.raises(InternalError, match="U\\*m\\*V != D"):
            la._check_snf(m, row_log, col_log, [(0, 0)])


SHAPE_ROWS = (0, 1, 2, 5, 9, 40)
SHAPE_COLS = (0, 1, 7, 8, 9, 63, 64, 65, 130)


def random_f2(rng, rows, cols, density):
    return la.f2([[rng.random() < density for _ in range(cols)] for _ in range(rows)]) \
        if rows and cols else la.f2_zeros(rows, cols)


def complex_matrices():
    """The mod-2 boundary and coboundary matrices of every simplicial
    fixture, and d in falling-degree order (as the tower read takes it) of
    every u_complex fixture and of its cone."""
    out = []
    for name in fixtures.fixture_names():
        kind = fixtures.describe(name)
        if kind == "simplicial":
            cc = ChainComplexZ.of(cli.parse_input(fixtures.load(name)[0]))
            for d in range(len(cc.generators)):
                out += [mod2_oracle(cc.boundaries[d]), coboundary_oracle(cc, d)]
        elif kind == "u_complex":
            c = UComplex.from_json(fixtures.load(name)[0])
            for x in (c, cone_iota(c)):
                degs = x.degrees()
                order = sorted(range(len(degs)), key=lambda g: (-degs[g], g))
                out.append(d_matrix_of(x)[np.ix_(order, order)])
    return out


def test_packed_echelon_matches_scalar_oracle():
    from helpers import row_echelon_oracle

    rng = random.Random(29)
    randoms = [random_f2(rng, rows, cols, density)
               for rows in SHAPE_ROWS for cols in SHAPE_COLS for density in (0.05, 0.5, 0.95)]
    for m in randoms + complex_matrices():
        _, want_piv = row_echelon_oracle(m.copy())
        assert la.pivot_columns_f2(m) == want_piv
        assert la.rank_f2(m) == len(want_piv)
        # the image basis is the pivot columns of m
        assert np.array_equal(la.image_basis_f2(m), m[:, want_piv])


def test_kernel_basis_matches_back_substitution():
    from helpers import row_echelon_oracle

    rng = random.Random(31)
    randoms = [random_f2(rng, rows, cols, 0.3) for rows in SHAPE_ROWS for cols in SHAPE_COLS]
    for m in randoms + complex_matrices():
        cols = m.shape[1]
        red, pivots = row_echelon_oracle(m.copy())
        free = [c for c in range(cols) if c not in pivots]
        basis = la.kernel_basis_f2(m)
        assert len(basis) == len(free)
        for x, fc in zip(basis, free):
            want = np.zeros(cols, dtype=np.uint8)
            want[fc] = 1
            for i, pc in enumerate(pivots):
                want[pc] = red[i, fc]
            assert np.array_equal(x, want)


def test_solve_with_matrix_rhs_matches_column_solves():
    rng = random.Random(37)
    for rows in SHAPE_ROWS:
        for cols in SHAPE_COLS:
            m = random_f2(rng, rows, cols, 0.4)
            # right-hand sides in the column space, so every column solves
            xs = random_f2(rng, cols, 3, 0.5)
            b = la.f2_mul(m, xs) if rows else la.f2_zeros(0, 3)
            x = la.solve_f2(m, b)
            assert x.shape == (cols, 3)
            # free variables are 0: x lives on the pivot columns
            free = [c for c in range(cols) if c not in la.pivot_columns_f2(m)]
            assert not x[free].any()
            for j in range(3):
                assert np.array_equal(x[:, j], la.solve_f2(m, b[:, j]))
            assert np.array_equal(la.f2_mul(m, x), b)
            if rows and la.rank_f2(m) < rows:
                bad = np.concatenate([b, la.f2_eye(rows)], axis=1)
                assert la.solve_f2(m, bad) is None
                # an inconsistent column first: the columns after it still fail
                bad = np.concatenate([la.f2_eye(rows), b], axis=1)
                assert la.solve_f2(m, bad) is None


def test_packed_solve_matches_brute_force_on_every_small_system():
    """Every system of at most 4 equations in at most 4 unknowns whose
    columns have at most two 1s (the block systems of a homotopy solve),
    with every right-hand side: _solve_packed is None exactly when no x
    solves it, and otherwise gives the x that solves it and is 0 at every
    column in the span of the columns before it (a free column)."""
    systems = 0
    for rows in range(5):
        columns = [sum(1 << r for r in bits)
                   for k in range(3) for bits in combinations(range(rows), k)]
        for unknowns in range(5):
            for cols in product(columns, repeat=unknowns):
                systems += 1
                span, free = {0}, 0  # the sums of the columns so far
                for t, col in enumerate(cols):
                    if col in span:
                        free |= 1 << t
                    span |= {x ^ col for x in span}
                solvable = []
                for rhs in range(1 << rows):
                    x = la._solve_packed(list(cols), [rhs])
                    if rhs not in span:
                        assert x is None
                        continue
                    (x,) = x
                    assert x >> unknowns == 0 and not x & free
                    assert reduce(xor, (c for t, c in enumerate(cols) if x >> t & 1), 0) == rhs
                    solvable.append((rhs, x))
                # one reduction serves every consistent right-hand side at
                # once, and one inconsistent among them makes it None
                assert la._solve_packed(list(cols), [b for b, _ in solvable]) == [
                    x for _, x in solvable]
                if len(solvable) < 1 << rows:
                    assert la._solve_packed(list(cols), list(range(1 << rows))) is None
    assert systems == 19_283


def test_reduce_after_continues_the_one_reduction():
    """Columns reduced against a finished reduction are reduced as the
    same columns appended to it would be, and the reduction is left as it
    was."""
    rng = random.Random(47)
    for m in [random_f2(rng, rows, cols, density)
              for rows in SHAPE_ROWS for cols in SHAPE_COLS for density in (0.05, 0.5, 0.95)]:
        packed = la._pack_rows(m.T)
        for cut in {0, len(packed) // 2, len(packed)}:
            red, _, owner = la.reduce_columns(packed[:cut])
            kept = (list(red), dict(owner))
            assert la._reduce_after(red, owner, packed[cut:]) == la.reduce_columns(packed)[0][cut:]
            assert (red, owner) == kept


def test_reduce_columns_invariants():
    from helpers import row_echelon_oracle

    rng = random.Random(41)
    randoms = [random_f2(rng, rows, cols, density)
               for rows in SHAPE_ROWS for cols in SHAPE_COLS for density in (0.05, 0.5, 0.95)]
    for m in randoms + complex_matrices():
        cols = m.shape[1]
        packed = la._pack_rows(m.T)  # column s of m, bit r: entry (r, s)
        red, ops, owner = la.reduce_columns(packed)
        assert packed == la._pack_rows(m.T)  # the input is not modified
        nonzero = [t for t in range(cols) if red[t]]
        for t in range(cols):
            summed = 0
            for s in range(cols):
                if ops[t] >> s & 1:
                    summed ^= packed[s]
            assert summed == red[t]
            # t itself, otherwise only earlier pivot columns
            assert ops[t] >> t & 1 and ops[t] >> cols == 0
            assert all(s in nonzero and s < t
                       for s in range(cols) if s != t and ops[t] >> s & 1)
        assert len(owner) == len(nonzero)
        assert owner == {red[t].bit_length() - 1: t for t in nonzero}
        assert nonzero == row_echelon_oracle(m.copy())[1]
