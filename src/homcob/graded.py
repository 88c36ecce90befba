"""Finite windows of graded GF(2) chain complexes with operators.

The engine under the windowed tower reads of the equivariant models
(`abc`, `tate`, `dual`, `delta`) and under the plus-flavor window that
the involutive module keeps for its cone laws and as a test reference
(its U-towers are read by elimination, without a window).  A complex is a
family of degree-indexed basis lists, a degree -1 differential, and named
degree-homogeneous operators (q, v, U, Q).  Homology is computed per
degree with explicit representatives, chosen by one elimination of
[boundaries | cycles], so module actions can be pushed to homology: an
operator's matrix on H_d comes from one multi-right-hand-side solve
against the cycle basis [boundaries | representatives] kept for the
target degree.  Ranks of stabilized operator powers are read for a whole
degree range by one downward sweep per residue class.
"""

from __future__ import annotations

import numpy as np

from . import f2linalg as la
from .errors import InputError, InternalError


class GradedComplex:
    """Chain data on a degree window.

    basis[d] is a list of hashable labels; diff[d] and ops[name][d] are
    GF(2) matrices acting by columns (column j = image of basis[d][j]).
    Degrees absent from `basis` are zero.
    """

    def __init__(self, basis: dict[int, list], diff: dict[int, np.ndarray],
                 ops: dict[str, tuple[int, dict[int, np.ndarray]]]):
        self.basis = {d: list(b) for d, b in basis.items() if b}
        self.diff = diff
        self.ops = ops
        self.index = {
            d: {lab: i for i, lab in enumerate(b)} for d, b in self.basis.items()
        }

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def d_matrix(self, d: int) -> np.ndarray:
        m = self.diff.get(d)
        if m is None:
            return la.f2_zeros(self.dim(d - 1), self.dim(d))
        return m

    def op_matrix(self, name: str, d: int) -> np.ndarray:
        shift, mats = self.ops[name]
        m = mats.get(d)
        if m is None:
            return la.f2_zeros(self.dim(d + shift), self.dim(d))
        return m

    def op_shift(self, name: str) -> int:
        return self.ops[name][0]

    # -- consistency ----------------------------------------------------

    def check_differential(self):
        for d in self.degrees():
            dd = la.f2_mul(self.d_matrix(d - 1), self.d_matrix(d))
            if dd.any():
                raise InternalError(f"differential does not square to zero at degree {d}")

    def check_op_commutes(self, name: str, lo_safe: int | None = None):
        """D . op = op . D wherever every intermediate degree is in-window.

        lo_safe: lowest degree at which the identity is enforced (both
        compositions must land at degrees >= the window bottom).
        """
        shift = self.op_shift(name)
        for d in self.degrees():
            if lo_safe is not None and d + shift - 1 < lo_safe:
                continue
            left = la.f2_mul(self.d_matrix(d + shift), self.op_matrix(name, d))
            right = la.f2_mul(self.op_matrix(name, d - 1), self.d_matrix(d))
            if left.shape == right.shape and (left ^ right).any():
                raise InternalError(f"operator {name} does not commute with D at degree {d}")


class Homology:
    """Per-degree homology of a GradedComplex with chosen representatives.

    In each degree the boundaries img (a column basis) come first and the
    kernel basis Z of the differential second; the representatives are
    the columns of Z that are pivot columns of [img | Z], i.e. the kernel
    vectors outside the span of the boundaries and the kernel vectors
    before them.  [img | reps] is kept per degree: every cycle has unique
    coordinates against it, and the last dim(H_d) of them are its class.
    """

    def __init__(self, cx: GradedComplex):
        self.complex = cx
        self._basis = {}  # degree -> [img | reps], columns a basis of the cycles
        self._reps = {}   # degree -> chain-level matrix, columns = class reps
        self._op_cache: dict[tuple[str, int], np.ndarray] = {}
        self._stable_cache: dict[tuple[str, int, int], dict[int, int]] = {}
        for d in cx.degrees():
            img = la.image_basis_f2(cx.d_matrix(d + 1))
            ker = la.kernel_basis_f2(cx.d_matrix(d))
            nimg = img.shape[1]
            if len(ker) == nimg:
                # the boundaries span the cycles (d o d = 0, which every
                # materializer checks): H_d = 0
                reps = la.f2_zeros(cx.dim(d), 0)
            else:
                # with no boundaries every kernel vector is kept
                reps = np.stack(ker, axis=1)
                if nimg:
                    both = np.concatenate([img, reps], axis=1)
                    reps = both[:, [j for j in la.pivot_columns_f2(both) if j >= nimg]]
            self._basis[d] = np.concatenate([img, reps], axis=1)
            self._reps[d] = reps

    def dim(self, d: int) -> int:
        return self._reps.get(d, la.f2_zeros(0, 0)).shape[1]

    def dims(self) -> dict[int, int]:
        return {d: self.dim(d) for d in self.complex.degrees() if self.dim(d)}

    def reps(self, d: int) -> np.ndarray:
        if d not in self._reps:
            return la.f2_zeros(self.complex.dim(d), 0)
        return self._reps[d]

    def classify(self, d: int, v: np.ndarray) -> np.ndarray:
        """Coordinates in the chosen basis of H_d of each cycle in v.

        v is one chain (giving a vector) or a matrix of chains as columns
        (giving a matrix of coordinates, one column each).
        """
        basis = self._basis.get(d)
        if basis is None:
            if np.asarray(v).any():
                raise InternalError("nonzero chain in an empty degree")
            return np.zeros((0,) + np.shape(v)[1:], dtype=np.uint8)
        x = la.solve_f2(basis, v)
        if x is None:
            raise InternalError("vector is not a cycle: cannot classify")
        return x[basis.shape[1] - self.dim(d):]

    def induced_op(self, name: str, d: int) -> np.ndarray:
        """Matrix of the operator on homology, H_d -> H_{d+shift}."""
        key = (name, d)
        if key in self._op_cache:
            return self._op_cache[key]
        cx = self.complex
        shift = cx.op_shift(name)
        images = la.f2_mul(cx.op_matrix(name, d), self.reps(d))
        out = self.classify(d + shift, images)
        self._op_cache[key] = out
        return out

    def op_power(self, name: str, d: int, k: int) -> np.ndarray:
        """Matrix of op^k on homology, from H_d down to H_{d + k*shift}."""
        shift = self.complex.op_shift(name)
        n = self.dim(d)
        m = la.f2_eye(n)
        cur = d
        for _ in range(k):
            m = la.f2_mul(self.induced_op(name, cur), m)
            cur += shift
        return m

    def stable_rank(self, name: str, d: int, k: int) -> int:
        """Rank of op^k : H_{d - k*shift} -> H_d (the k-step stable image)."""
        shift = self.complex.op_shift(name)
        return la.rank_f2(self.op_power(name, d - k * shift, k))

    def stable_ranks(self, name: str, lo: int, cut: int) -> dict[int, int]:
        """{d: stable_rank(name, d, (cut - d) // step)} for lo <= d <= cut - step,
        in increasing d.

        step = -shift > 0.  Each residue class mod step is swept once from
        its top degree t <= cut downwards: the power of the operator from
        H_t to H_d is induced(d + step) composed with the one from H_t to
        H_{d + step}, so every degree costs one product and one rank.
        """
        key = (name, lo, cut)
        if key in self._stable_cache:
            return self._stable_cache[key]
        step = -self.complex.op_shift(name)
        out = {}
        for top in range(cut - step + 1, cut + 1):
            m = la.f2_eye(self.dim(top))
            for d in range(top - step, lo - 1, -step):
                # once the power is zero it stays zero further down
                if m.any():
                    m = la.f2_mul(self.induced_op(name, d + step), m)
                out[d] = la.rank_f2(m) if m.any() else 0
        out = self._stable_cache[key] = dict(sorted(out.items()))
        return out
