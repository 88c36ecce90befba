import random

import numpy as np
import pytest

from homcob import f2linalg as la
from homcob.errors import InternalError
from homcob.graded import Homology
from homcob.involutive import cone_iota

from helpers import (
    cone_plus_window,
    dual_ucomplex,
    greedy_homology_reps,
    random_pin_model,
    random_s1_model,
    random_ucomplex_with_iota,
)


def cone_windows(seed, count):
    """(complex, window) of random cones and of their orientation reverses."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = random_ucomplex_with_iota(rng, max_pairs=3)
        for base in (c, dual_ucomplex(c)):
            lo, hi = cone_iota(base).default_window()
            out.append((cone_plus_window(base, lo, hi), (lo, hi)))
    return out


def model_windows(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = random_pin_model(rng)
        lo, hi = m.default_window()
        out.append((m.materialize(lo, hi), (lo, hi)))
        s = random_s1_model(rng)
        lo, hi = s.default_window()
        out.append((s.materialize(lo, hi), (lo, hi)))
    return out


@pytest.mark.parametrize("windows", [cone_windows(5, 6), model_windows(9, 5)])
def test_reps_and_induced_ops_match_greedy_choice(windows):
    for cx, _ in windows:
        h = Homology(cx)
        for d in cx.degrees():
            assert np.array_equal(h.reps(d), greedy_homology_reps(cx, d))
        for name, (shift, _) in cx.ops.items():
            for d in cx.degrees():
                # oracle: classify each image column against [img | reps]
                basis = np.concatenate(
                    [la.image_basis_f2(cx.d_matrix(d + shift + 1)), h.reps(d + shift)],
                    axis=1,
                )
                images = la.f2_mul(cx.op_matrix(name, d), h.reps(d))
                cols = [la.solve_f2(basis, images[:, j]) for j in range(images.shape[1])]
                want = (
                    np.stack([x[basis.shape[1] - h.dim(d + shift):] for x in cols], axis=1)
                    if cols else la.f2_zeros(h.dim(d + shift), 0)
                )
                assert np.array_equal(h.induced_op(name, d), want)


def test_stable_ranks_match_per_degree_stable_rank():
    for cx, (lo, hi) in cone_windows(13, 6) + model_windows(17, 5):
        h = Homology(cx)
        for name, (shift, _) in cx.ops.items():
            step = -shift
            # the cuts of the S1 and Pin(2) reads, and one past the top
            for cut in (hi - 4, hi - 8, hi + step):
                ranks = h.stable_ranks(name, lo, cut)
                want = {
                    d: h.stable_rank(name, d, (cut - d) // step)
                    for d in range(lo, cut - step + 1)
                }
                assert ranks == want and list(ranks) == sorted(ranks)
                assert h.stable_ranks(name, lo, cut) is ranks


def test_classify_rejects_non_cycles():
    windows = cone_windows(21, 1)
    cx, _ = windows[0]
    h = Homology(cx)
    d = next(d for d in cx.degrees() if cx.d_matrix(d).any())
    col = int(np.flatnonzero(cx.d_matrix(d).any(axis=0))[0])
    v = la.f2_zeros(cx.dim(d), 1)
    v[col, 0] = 1
    with pytest.raises(InternalError, match="not a cycle"):
        h.classify(d, v)
