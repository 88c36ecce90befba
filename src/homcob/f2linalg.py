"""Exact linear algebra over GF(2) and over the integers.

GF(2) matrices are dense numpy uint8 arrays with entries in {0, 1}.  For
elimination each row is packed (np.packbits) into one Python int whose
bit c is the entry in column c, so a row operation is a single XOR of two
ints; rank, kernel, solve and image all read the reduced row echelon form
(RREF), which is unique, so the packing changes no result.  Integer
matrices are plain lists of lists of Python ints so that Smith normal
form never overflows (entry growth is real even on small inputs).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, InternalError

# ---------------------------------------------------------------------------
# GF(2)


def f2(m) -> np.ndarray:
    """Coerce an array-like to a new 2-d uint8 matrix reduced mod 2."""
    if isinstance(m, np.ndarray) and m.dtype == np.uint8:
        a = m & 1
    else:
        a = (np.asarray(m, dtype=np.int64) % 2).astype(np.uint8)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def f2_zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def f2_eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def f2_mul(a, b) -> np.ndarray:
    """Matrix product over GF(2)."""
    a, b = f2(a), f2(b)
    if a.shape[1] != b.shape[0]:
        raise InputError(f"shape mismatch {a.shape} x {b.shape}")
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def _pack_rows(m: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as Python ints: bit c of row i is entry (i, c)."""
    packed = np.packbits(m, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(m.shape[0])]


def _unpack_rows(rows: list[int], cols: int) -> np.ndarray:
    """Inverse of _pack_rows: a len(rows) x cols uint8 matrix."""
    width = (cols + 7) // 8
    data = b"".join(r.to_bytes(width, "little") for r in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def _rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of packed rows.

    Returns (nonzero rows of the RREF, their pivot columns), both in
    pivot order.  Each row is reduced against the pivot rows kept so far;
    a row that survives becomes a new pivot row and is cleared from the
    others, so the kept rows stay fully reduced and a row operation is
    one XOR of two ints.
    """
    piv: dict[int, int] = {}  # pivot bit (1 << column) -> row
    mask = 0
    for x in rows:
        hit = x & mask
        while hit:
            low = hit & -hit
            x ^= piv[low]
            hit ^= low
        if x:
            low = x & -x
            for b in piv:
                if piv[b] & low:
                    piv[b] ^= x
            piv[low] = x
            mask |= low
    order = sorted(piv)
    return [piv[b] for b in order], [b.bit_length() - 1 for b in order]


def _row_echelon(m: np.ndarray):
    """Reduced row echelon form: (matrix of m's shape, pivot_cols)."""
    rows, pivots = _rref(_pack_rows(m))
    out = np.zeros(m.shape, dtype=np.uint8)
    out[: len(rows)] = _unpack_rows(rows, m.shape[1])
    return out, pivots


def rank_f2(m) -> int:
    """GF(2) rank."""
    return len(_rref(_pack_rows(f2(m)))[1])


def pivot_columns_f2(m) -> list[int]:
    """Indices of the columns of m outside the span of the columns before them."""
    return _rref(_pack_rows(f2(m)))[1]


def kernel_basis_f2(m) -> list[np.ndarray]:
    """Basis of the right null space over GF(2).

    Returns cols - rank vectors x with m @ x = 0 (mod 2), one per non-pivot
    column fc of the RREF: x[fc] = 1 and x[pc] = RREF[i, fc] for the row i
    with pivot pc.
    """
    a = f2(m)
    cols = a.shape[1]
    rows, pivots = _rref(_pack_rows(a))
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = _unpack_rows(rows, cols)[:, free].T
    return list(basis)


def solve_f2(m, b):
    """One solution of m @ x = b over GF(2), or None if inconsistent.

    b is a vector, giving a vector x, or a matrix whose columns are
    right-hand sides, giving a matrix x column by column (None if any
    column is inconsistent); one elimination of [m | b] serves all of
    them.  Free variables are 0.
    """
    a = f2(m)
    rows, cols = a.shape
    bv = (np.asarray(b, dtype=np.int64) % 2).astype(np.uint8)
    vector = bv.ndim != 2
    if vector:
        bv = bv.reshape(-1, 1)
    if bv.shape[0] != rows:
        raise InputError(f"rhs length {bv.shape[0]} != rows {rows}")
    red, pivots = _rref(_pack_rows(np.concatenate([a, bv], axis=1)))
    # inconsistent iff a pivot lands in an augmented column
    if pivots and pivots[-1] >= cols:
        return None
    x = np.zeros((cols, bv.shape[1]), dtype=np.uint8)
    x[pivots] = _unpack_rows(red, cols + bv.shape[1])[:, cols:]
    return x[:, 0] if vector else x


def image_basis_f2(m) -> np.ndarray:
    """Matrix whose columns are a basis of the column space of m over GF(2).

    The basis is the nonzero rows of the RREF of m transposed.
    """
    a = f2(m)
    rows, _ = _rref(_pack_rows(a.T))
    return _unpack_rows(rows, a.shape[0]).T.copy()


# ---------------------------------------------------------------------------
# Integer matrices (lists of lists of Python ints)


def int_mat(m) -> list[list[int]]:
    out = [[int(x) for x in row] for row in m]
    if out and any(len(r) != len(out[0]) for r in out):
        raise InputError("ragged integer matrix")
    return out


def int_eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mul(a, b) -> list[list[int]]:
    if not a or not b:
        ra = len(a)
        cb = len(b[0]) if b else 0
        return [[0] * cb for _ in range(ra)]
    if len(a[0]) != len(b):
        raise InputError("shape mismatch in integer product")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def int_transpose(a) -> list[list[int]]:
    return [list(r) for r in zip(*a)] if a else []


def int_det(a) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise InputError("determinant of a non-square matrix")
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), -1)
            if swap < 0:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a) -> bool:
    return abs(int_det(a)) == 1


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (U, D, V) with U @ m @ V = D, U and V unimodular, D diagonal
    with nonnegative entries d1 | d2 | ...  Pivoting picks the minimal
    nonzero absolute value to limit entry growth.
    """
    a = [row[:] for row in int_mat(m)]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = int_eye(rows)
    v = int_eye(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while True:
        # minimal absolute value nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)

        # clear row/column t; restart when a remainder shrinks the pivot
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:  # nonzero remainder becomes new pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break

        # divisibility: fold any non-multiple into the pivot's row
        while True:
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            while True:
                dirty = False
                for j in range(t + 1, cols):
                    if a[t][j] != 0:
                        q = a[t][j] // a[t][t]
                        col_op(j, t, q)
                        if a[t][j] != 0:
                            swap_cols(t, j)
                            dirty = True
                for i in range(t + 1, rows):
                    if a[i][t] != 0:
                        q = a[i][t] // a[t][t]
                        row_op(i, t, q)
                        if a[i][t] != 0:
                            swap_rows(t, i)
                            dirty = True
                if not dirty:
                    break

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(rows, cols):
            break

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    _check_snf(m, u, d, v)
    return u, d, v


def _check_snf(m, u, d, v):
    m = int_mat(m)
    if int_mul(int_mul(u, m), v) != d:
        raise InternalError("SNF verification failed: U*m*V != D")
    if not is_unimodular(u) or not is_unimodular(v):
        raise InternalError("SNF verification failed: transform not unimodular")
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for x, y in zip(diag, diag[1:]):
        if x < 0 or (x == 0 and y != 0) or (x != 0 and y % x != 0):
            raise InternalError("SNF verification failed: divisibility chain broken")


def snf_diagonal(m) -> list[int]:
    """Just the diagonal of the Smith normal form."""
    _, d, _ = smith_normal_form(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
