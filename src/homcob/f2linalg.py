"""Exact linear algebra over GF(2) and over the integers.

Every command holds its GF(2) matrices as packed columns (or rows):
Python ints whose bit r is the entry in row r.  The one GF(2)
elimination is `reduce_columns`, the left-to-right column reduction of
persistence, on packed columns, so a column operation is a single XOR of
two ints.  Every command passes its columns in packed (the rows of d_fin
of a tower model, the odd rows of simplicial boundaries, the
coboundaries that `sq1` reduces once per degree, the block systems of a
homotopy solve).  The one product is `_apply`, a map applied to a packed
vector: column t of A B is A applied to column t of B, and row i of a
product of packed rows is B applied to row i of A.  `_reduce_after`
reduces more columns against a finished reduction without redoing it:
`sq1` chooses its cocycles and tests every class that way, and the tower
read tests the arrows from each degree.  The numpy entry points
(`rank_f2`, `pivot_columns_f2`, `kernel_basis_f2`, `solve_f2`,
`image_basis_f2`), called only by the window reference `graded`, pack
their matrix once (np.packbits).  While an earlier column owns the
highest set bit of a column, that earlier column is added to it.  A
column ends zero exactly when it lies in the span of the columns before
it, so the nonzero reduced columns are the pivot columns: their number
is the rank and they are a basis of the image.  The columns summed into
column t are t itself and otherwise pivot columns, so the kernel vector
read at a free column fc is 1 at fc and 0 at every other free column,
and the solution read from [m | b] (`_solve_packed`, the one solve) is 0
at every free column.  Each is the only vector with that pattern, so it
is the one the reduced row echelon form gives.

The numpy side (`f2`, `f2_mul` and the entry points above) takes dense
uint8 arrays with entries in {0, 1}; no command calls it.  Its product
`f2_mul`, used by `graded` and the tests, takes one of two paths.  A
small one multiplies the uint8 arrays, whose sums wrap mod 256 and keep
their parity.  A large one makes one float32 BLAS call, exact while the
inner dimension is below 2^24, and reads the parity of its sums through
int32.  The crossover, _BLAS_MIN_WORK, was measured.

Integer matrices are sparse rows of Python ints (`IntMatrix`), so that
Smith normal form never overflows (entry growth is real even on small
inputs) and costs what the nonzeros cost; a dense list of lists is
coerced at the door by `int_matrix`.

Every Smith normal form carries its certificate.  The elimination logs
each elementary operation, and _check_snf replays the logs on a copy of
the source rows, visiting only the nonzeros of each source row (column):
every operation adds a multiple of one row (column) to another, so U and
V are unimodular without being built; what the replay leaves must be the
pivots alone, at most one in each row and column; and their absolute
values, which are the result, must form a divisibility chain.
"""

from __future__ import annotations

from typing import NamedTuple

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


# Products of at least this many multiply-adds (rows x inner x columns) go
# through BLAS.  numpy multiplies uint8 matrices in a plain loop, about
# 1.2 ns per multiply-add, while the float32 path costs 5-9 us of
# conversions and call overhead; on one core of a 2-core x86-64 host
# (numpy 2.4, OpenBLAS 0.3.31) a sweep of shapes from 8^3 to 100x10x100 put
# the crossover at 3 000-4 500 multiply-adds (16^3 is 4 096).
_BLAS_MIN_WORK = 16 ** 3
# float32 holds every integer up to 2^24 exactly, so sums of fewer 0/1
# products are exact
_FLOAT32_EXACT = 1 << 24


def f2_mul(a, b) -> np.ndarray:
    """Matrix product over GF(2): the uint8 product below _BLAS_MIN_WORK
    multiply-adds, otherwise one float32 BLAS call (module docstring).  A
    2-d uint8 operand is used as it is, whatever its entries: the uint8
    sums wrap mod 256 and keep their parity, and the BLAS path masks each
    operand with & 1 before the float cast so that its sums stay exact.
    The float sums go through int32 before the parity is taken, because a
    float -> uint8 cast of 256 or more is undefined (it saturates on some
    platforms)."""
    a, b = _f2_operand(a), _f2_operand(b)
    (rows, inner), cols = a.shape, b.shape[1]
    if inner != b.shape[0]:
        raise InputError(f"shape mismatch {a.shape} x {b.shape}")
    if rows * inner * cols < _BLAS_MIN_WORK or inner >= _FLOAT32_EXACT:
        return (a @ b) & 1
    prod = (a & 1).astype(np.float32) @ (b & 1).astype(np.float32)
    return (prod.astype(np.int32) & 1).astype(np.uint8)


def _f2_operand(m) -> np.ndarray:
    """m itself when it is a 2-d uint8 array, else f2(m)."""
    if isinstance(m, np.ndarray) and m.dtype == np.uint8 and m.ndim == 2:
        return m
    return f2(m)


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


def _apply(cols: list[int], x: int) -> int:
    """The image of the packed vector x under the map with packed columns
    cols: the XOR of cols[r] over the bits r of x.  Column t of a product
    A B of packed columns is _apply(A, B[t]); row i of a product of packed
    rows is _apply(B, A[i])."""
    y = 0
    while x:
        top = x.bit_length() - 1
        y ^= cols[top]
        x ^= 1 << top
    return y


def reduce_columns(cols: list[int]) -> tuple[list[int], list[int], dict[int, int]]:
    """Column reduction over GF(2), left to right, of the packed columns
    cols (bit r of cols[t]: entry (r, t)): (red, ops, owner).

    red[t] is column t after adding the earlier column that owns its
    highest set bit, until no earlier column owns it; ops[t] records the
    columns summed (bit s: column s), so red[t] is the XOR of cols[s] over
    the bits s of ops[t].  owner maps the highest bit of each nonzero
    red[t] to t.  cols is not modified.
    """
    red = list(cols)
    ops = [1 << t for t in range(len(red))]
    owner: dict[int, int] = {}
    for t, col in enumerate(red):
        while col and (s := owner.get(col.bit_length() - 1)) is not None:
            col ^= red[s]
            ops[t] ^= ops[s]
        if col:
            owner[col.bit_length() - 1] = t
        red[t] = col
    return red, ops, owner


def _reduce_after(red: list[int], owner: dict[int, int], cols: list[int]) -> list[int]:
    """The columns cols reduced as if appended to the columns whose
    reduction is (red, _, owner) of reduce_columns: while a reduced
    column of red or an earlier column of cols owns the highest set bit
    of a column, it is added.  A column ends zero exactly when it lies in
    the span of red and the cols before it.  red and owner are not
    modified, so one reduction serves every later set of columns."""
    new: dict[int, int] = {}  # the highest bit of each nonzero reduced column of cols
    out = []
    for col in cols:
        while col:
            top = col.bit_length() - 1
            s = owner.get(top)
            if s is None and top not in new:
                new[top] = col
                break
            col ^= red[s] if s is not None else new[top]
        out.append(col)
    return out


def rank_f2(m) -> int:
    """GF(2) rank: the rows of m (the columns of m^T) that the column
    reduction leaves nonzero."""
    return len(reduce_columns(_pack_rows(f2(m)))[2])


def pivot_columns_f2(m) -> list[int]:
    """Indices of the columns of m outside the span of the columns before them."""
    return [t for t, col in enumerate(reduce_columns(_pack_rows(f2(m).T))[0]) if col]


def kernel_basis_f2(m) -> list[np.ndarray]:
    """Basis of the right null space over GF(2).

    Returns cols - rank vectors x with m @ x = 0 (mod 2), one per non-pivot
    column fc: x[fc] = 1, and x is 0 at every other non-pivot column.
    """
    a = f2(m)
    red, ops, _ = reduce_columns(_pack_rows(a.T))
    return list(_unpack_rows([op for col, op in zip(red, ops) if not col], a.shape[1]))


def _solve_packed(cols: list[int], rhs: list[int]) -> list[int] | None:
    """The packed core of solve_f2: for each packed right-hand side rhs[k]
    (bit r: row r), the packed x (bit s: unknown s) whose columns cols[s]
    sum to it, free variables 0; None if any is inconsistent.  One column
    reduction of [cols | rhs] serves them all."""
    k = len(cols)
    red, ops, _ = reduce_columns(cols + rhs)
    # an inconsistent rhs column owns a bit that later rhs columns reduce
    # against, so every rhs column is tested before any ops is read
    if any(red[k:]):
        return None
    mask = (1 << k) - 1
    return [op & mask for op in ops[k:]]


def solve_f2(m, b):
    """One solution of m @ x = b over GF(2), or None if inconsistent.

    b is a vector, giving a vector x, or a matrix whose columns are
    right-hand sides, giving a matrix x column by column (None if any
    column is inconsistent); one reduction of [m | b] serves all of
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
    x = _solve_packed(_pack_rows(a.T), _pack_rows(bv.T))
    if x is None:
        return None
    x = _unpack_rows(x, cols)
    return x[0] if vector else np.ascontiguousarray(x.T)


def image_basis_f2(m) -> np.ndarray:
    """Matrix whose columns are a basis of the column space of m over GF(2):
    the pivot columns of m."""
    a = f2(m)
    return a[:, pivot_columns_f2(a)]


# ---------------------------------------------------------------------------
# Integer matrices (sparse rows of Python ints)


class IntMatrix(NamedTuple):
    """An integer matrix as sparse rows: rows[i] maps the column of each
    nonzero entry of row i to that entry; shape is (rows, columns).  Over
    GF(2) it is its odd entries, packed rows (`simplicial._odd_bits`)."""

    rows: list[dict[int, int]]
    shape: tuple[int, int]


def int_matrix(m) -> IntMatrix:
    """m itself when it is an IntMatrix, else the sparse rows of a dense
    list of lists."""
    if isinstance(m, IntMatrix):
        return m
    dense = [[int(x) for x in row] for row in m]
    cols = len(dense[0]) if dense else 0
    if any(len(r) != cols for r in dense):
        raise InputError("ragged integer matrix")
    return IntMatrix([{j: x for j, x in enumerate(row) if x} for row in dense],
                     (len(dense), cols))


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


def _axpy(major, minor, dst, src, q) -> None:
    """major[dst] -= q * major[src] on sparse rows {index: entry}; minor
    holds the same matrix by the other index and is kept equal."""
    row = major[dst]
    for k, x in major[src].items():
        y = row.get(k, 0) - q * x
        if y:
            row[k] = minor[k][dst] = y
        else:
            row.pop(k, None)
            minor[k].pop(dst, None)


def smith_normal_form(m) -> list[int]:
    """Invariant factors of an integer matrix (an IntMatrix, or a dense
    list of lists coerced by int_matrix): the diagonal of its Smith normal
    form, nonnegative, d1 | d2 | ..., padded with zeros to min(rows, cols).

    The matrix is eliminated sparsely, by rows and by columns at once: each
    pivot has the minimal nonzero absolute value (units first, as in
    Dumas-Saunders-Villard, "On efficient sparse integer matrix Smith
    normal form computations", JSC 2001), ties broken by the Markowitz
    count to limit fill-in, and its row and column are cleared in place,
    the pivot moving to any smaller remainder.  Pivots that break the
    divisibility chain are then replaced pairwise by their gcd and lcm with
    the same clearing step.  Every elementary operation is logged, and the
    factors are read from the replay of the logs on m (see _check_snf).
    """
    a = int_matrix(m)
    rows, cols = a.shape
    arow = [dict(row) for row in a.rows]
    acol: list[dict[int, int]] = [{} for _ in range(cols)]
    for i, row in enumerate(arow):
        for j, x in row.items():
            acol[j][i] = x
    row_log: list[tuple[int, int, int]] = []
    col_log: list[tuple[int, int, int]] = []

    def row_op(i, p, q):  # row_i -= q * row_p
        _axpy(arow, acol, i, p, q)
        row_log.append((i, p, q))

    def col_op(j, c, q):  # col_j -= q * col_c
        _axpy(acol, arow, j, c, q)
        col_log.append((j, c, q))

    def clear(p, c):
        """Clear row p and column c but for one pivot; returns its place."""
        while True:
            piv = arow[p][c]
            i = next((i for i in acol[c] if i != p), None)
            if i is not None:
                row_op(i, p, arow[i][c] // piv)
                if c in arow[i]:  # a smaller remainder becomes the pivot
                    p = i
                continue
            j = next((j for j in arow[p] if j != c), None)
            if j is None:
                return p, c
            col_op(j, c, arow[p][j] // piv)
            if j in arow[p]:
                c = j

    pivots: list[tuple[int, int]] = []
    free = set(range(rows))
    while True:
        # the first entry, in scan order, that minimizes (|x|, Markowitz
        # count); the count is only taken for an |x| that can still win
        size = cost = p = c = 0  # size 0: no entry seen yet
        for i in free:
            row = arow[i]
            fill = len(row) - 1
            for j, x in row.items():
                if x < 0:
                    x = -x
                if x < size or not size:
                    size, cost, p, c = x, fill * (len(acol[j]) - 1), i, j
                elif x == size and (k := fill * (len(acol[j]) - 1)) < cost:
                    cost, p, c = k, i, j
            if size == 1 and cost == 0:
                break
        if not size:
            break
        p, c = clear(p, c)
        pivots.append((p, c))
        free.discard(p)

    # gcd/lcm pairs until d_s | d_t for all s < t
    for s in range(len(pivots)):
        for t in range(s + 1, len(pivots)):
            (ps, cs), (pt, ct) = pivots[s], pivots[t]
            if arow[pt][ct] % arow[ps][cs]:
                col_op(cs, ct, -1)
                p, c = clear(ps, cs)
                pivots[s], pivots[t] = (p, c), (ps + pt - p, cs + ct - c)

    return _check_snf(a, row_log, col_log, pivots)


def _replay(lines, log) -> None:
    """lines[dst] -= q * lines[src] for each logged (dst, src, q), on
    sparse lines {index: entry}, visiting the nonzeros of lines[src]."""
    for dst, src, q in log:
        line = lines[dst]
        for k, y in lines[src].items():
            x = line.get(k, 0) - q * y
            if x:
                line[k] = x
            else:  # a cancelled entry, or an absent one under q = 0
                line.pop(k, None)


def _check_snf(a: IntMatrix, row_log, col_log, pivots) -> list[int]:
    """Certificate of an SNF, read back from a: each logged (dst, src, q)
    subtracts q times one row (column) from another, so it is elementary
    and unimodular; replaying the row log and then the column log on a
    (left and right multiplications commute) leaves exactly the pivots, at
    most one in each row and column; and their absolute values form a
    divisibility chain.  Returns those values padded with zeros.  The
    replay runs on a copy of a's rows and then on its columns, and it is
    written apart from the elimination's _axpy, which also keeps the other
    index, so a slip in that bookkeeping cannot hide."""
    rows, cols = a.shape
    for log, n in ((row_log, rows), (col_log, cols)):
        if any(dst == src or not (0 <= dst < n and 0 <= src < n) for dst, src, _ in log):
            raise InternalError("SNF verification failed: transform not unimodular")
    lines = [dict(row) for row in a.rows]
    _replay(lines, row_log)
    at: list[dict[int, int]] = [{} for _ in range(cols)]  # columns as rows
    for i, row in enumerate(lines):
        for j, x in row.items():
            at[j][i] = x
    _replay(at, col_log)
    left = {(i, j): x for j, col in enumerate(at) for i, x in col.items()}
    if (set(pivots) != set(left) or len({p for p, _ in pivots}) < len(pivots)
            or len({c for _, c in pivots}) < len(pivots)):
        raise InternalError("SNF verification failed: U*m*V != D")
    diag = [abs(left[p]) for p in pivots]
    if any(y % x for x, y in zip(diag, diag[1:])):
        raise InternalError("SNF verification failed: divisibility chain broken")
    return diag + [0] * (min(rows, cols) - len(diag))
