import json
import random
from fractions import Fraction
from math import factorial

import pytest

from homcob import fixtures
from homcob.cli import main, parse_input
from homcob.errors import InputError
from homcob.simplicial import GroupPresentation, link_manifold_scan, suspension
from homcob.toddcoxeter import (
    EXCEEDED,
    MAX_COSETS,
    _enumerate,
    check_coset_limit,
    coset_enumeration,
)

from helpers import (
    coset_enumeration_oracle,
    coxeter_sn,
    random_presentation,
    scramble_presentation,
)


def test_order_two():
    assert coset_enumeration(GroupPresentation(1, [[1, 1]]), 10) == 2


def test_cyclic_five():
    assert coset_enumeration(GroupPresentation(1, [[1] * 5]), 20) == 5


def test_trivial_group():
    assert coset_enumeration(GroupPresentation(1, [[1]]), 10) == 1


def test_symmetric_group_three():
    p = GroupPresentation(2, [[1, 1], [2, 2], [1, 2, 1, 2, 1, 2]])
    assert coset_enumeration(p, 50) == 6


def test_quaternion_group():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    p = GroupPresentation(2, [[1, 1, 1, 1], [1, 1, -2, -2], [-2, 1, 2, 1]])
    assert coset_enumeration(p, 64) == 8


def test_free_abelian_exceeds():
    p = GroupPresentation(2, [[1, 2, -1, -2]])
    assert coset_enumeration(p, 100) == EXCEEDED


def test_free_group_exceeds():
    assert coset_enumeration(GroupPresentation(2, []), 50) == EXCEEDED


def test_limit_validation():
    with pytest.raises(InputError):
        coset_enumeration(GroupPresentation(1, [[1]]), 0)


# -- binary icosahedral group -------------------------------------------------
#
# <s, t | s^3 = t^5 = (st)^2> presents the order-120 group of unit
# icosians; the enumeration is cross-checked by closing the generator
# set inside the quaternions with exact Q(sqrt 5) arithmetic.

BINARY_ICOSAHEDRAL = GroupPresentation(
    2,
    [
        [1, 1, 1, -2, -2, -2, -2, -2],          # s^3 t^-5
        [1, 1, 1, -1, -2, -1, -2],              # s^3 (st)^-2 = s^2 t^-1 s^-1 t^-1
    ],
)


class Root5:
    """Exact x + y*sqrt(5) with rational x, y."""

    __slots__ = ("x", "y")

    def __init__(self, x, y=0):
        self.x = Fraction(x)
        self.y = Fraction(y)

    def __add__(self, o):
        return Root5(self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return Root5(self.x - o.x, self.y - o.y)

    def __mul__(self, o):
        return Root5(self.x * o.x + 5 * self.y * o.y, self.x * o.y + self.y * o.x)

    def __neg__(self):
        return Root5(-self.x, -self.y)

    def __eq__(self, o):
        return self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.x, self.y))


def quat_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def test_binary_icosahedral_order_120():
    assert coset_enumeration(BINARY_ICOSAHEDRAL, 500) == 120


def test_binary_icosahedral_is_perfect():
    ab = BINARY_ICOSAHEDRAL.abelianization()
    assert ab.free_rank == 0 and ab.torsion == []


def test_binary_icosahedral_quaternion_oracle():
    half = Fraction(1, 2)
    phi = Root5(half, half)            # golden ratio
    phi_inv = Root5(-half, half)       # 1/phi = phi - 1
    zero, one = Root5(0), Root5(1)
    s = (Root5(half), Root5(half), Root5(half), Root5(half))
    t = (phi * Root5(half), phi_inv * Root5(half), Root5(half), zero)

    minus_one = (-one, zero, zero, zero)
    s3 = quat_mul(quat_mul(s, s), s)
    t5 = t
    for _ in range(4):
        t5 = quat_mul(t5, t)
    st = quat_mul(s, t)
    assert s3 == minus_one
    assert t5 == minus_one
    assert quat_mul(st, st) == minus_one

    # close the generated subgroup
    elements = {s, t}
    frontier = [s, t]
    while frontier:
        g = frontier.pop()
        for h in (s, t):
            w = quat_mul(g, h)
            if w not in elements:
                elements.add(w)
                frontier.append(w)
        assert len(elements) <= 120
    assert len(elements) == 120


# -- the clean table against the union-find oracle ------------------------------


def _named_presentations():
    rng = random.Random(2005)
    out = []
    for n in (5, 6, 7):
        for k in range(2 if n < 7 else 1):
            out.append((f"S{n}/{k}", scramble_presentation(rng, coxeter_sn(n)), factorial(n)))
    for k in range(3):
        out.append((f"2I/{k}", scramble_presentation(rng, BINARY_ICOSAHEDRAL), 120))
    return out


def _random_presentations(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = random_presentation(rng)
        if i % 4 == 0:  # a one-letter relator kills a generator
            p = GroupPresentation(p.ngens, p.relators + [[rng.choice((1, -1)) * p.ngens]])
        if i % 4 == 1:  # a relator that is not freely reduced
            g = rng.randint(1, p.ngens)
            p = GroupPresentation(p.ngens, [[g, -g, g, -g, g]] + p.relators)
        out.append(p)
    return out


@pytest.mark.parametrize(
    "p,order", [pytest.param(p, order, id=name) for name, p, order in _named_presentations()]
)
def test_named_groups_match_oracle(p, order):
    assert coset_enumeration(p, 20000) == order
    oracle_order, created = coset_enumeration_oracle(p, 20000)
    assert oracle_order == order
    # the same HLT definitions: the cap falls at the oracle's coset count
    assert coset_enumeration(p, created) == order
    assert coset_enumeration(p, created - 1) == EXCEEDED
    assert coset_enumeration_oracle(p, created - 1)[0] == EXCEEDED


def test_random_presentations_match_oracle():
    one_letter = not_reduced = 0
    for i, p in enumerate(_random_presentations(1200, 41)):
        one_letter += any(len(w) == 1 for w in p.relators)
        not_reduced += any(a == -b for w in p.relators for a, b in zip(w, w[1:]))
        limit = (5, 40, 300)[i % 3]
        assert coset_enumeration(p, limit) == coset_enumeration_oracle(p, limit)[0], (p, limit)
    assert one_letter >= 300 and not_reduced >= 300


def _smallest_closing_limit(p, hi):
    """Least limit at which the enumeration closes (bisection)."""
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if coset_enumeration(p, mid) == EXCEEDED:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_created_count_matches_oracle_by_bisection():
    checked = 0
    for p in _random_presentations(240, 43):
        order, created = coset_enumeration_oracle(p, 300)
        if order == EXCEEDED:
            assert coset_enumeration(p, 300) == EXCEEDED
            continue
        assert _smallest_closing_limit(p, 300) == created, p
        checked += 1
    assert checked >= 100


def _check_closed_table(p, limit):
    cols, fwd = _enumerate(p, limit)
    live = [c for c, f in enumerate(fwd) if c == f]
    for x, col in enumerate(cols):
        inv = cols[x ^ 1]
        for c in live:
            d = col[c]
            assert d >= 0 and fwd[d] == d, (x, c, d)  # complete, live -> live
            assert inv[d] == c  # c.x = d  <=>  d.x^-1 = c
    for w in p.relators:
        for c in live:
            d = c
            for letter in w:
                d = cols[2 * (abs(letter) - 1) + (letter < 0)][d]
            assert d == c, (w, c)
    return len(live)


def test_closed_tables_are_consistent():
    for name, p, order in _named_presentations():
        if not name.startswith("S7"):
            assert _check_closed_table(p, 20000) == order
    closed = 0
    for p in _random_presentations(300, 47):
        if coset_enumeration_oracle(p, 300)[0] != EXCEEDED:
            assert _check_closed_table(p, 300) == coset_enumeration(p, 300)
            closed += 1
    assert closed >= 100


def test_limit_cap_refuses_without_enumerating(monkeypatch):
    def boom(*args):
        raise AssertionError("enumerated above the cap")

    monkeypatch.setattr("homcob.toddcoxeter._enumerate", boom)
    with pytest.raises(InputError, match="1000000"):
        coset_enumeration(GroupPresentation(2, []), MAX_COSETS + 1)


def test_limit_cap_admits_the_cap():
    assert MAX_COSETS == 1_000_000
    assert coset_enumeration(GroupPresentation(1, [[1]]), MAX_COSETS) == 1


def test_cli_limit_above_cap_exits_one(tmp_path, capsys):
    too_many = str(MAX_COSETS + 1)
    assert main(["pi1", "--limit", too_many, "fixtures:torus7"]) == 1
    # the suspension of S^3 has 3-dimensional vertex links to certify
    s4 = tmp_path / "s4.json"
    s4.write_text(json.dumps(suspension(parse_input(fixtures.load("boundary_delta4")[0])).to_json()))
    assert main(["scan-links", "--certify-pi1", "--limit", too_many, str(s4)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("limit", [0, MAX_COSETS + 1])
def test_scan_links_checks_the_limit_up_front(capsys, limit):
    # boundary_delta4 has no 3-dimensional link, so nothing is enumerated
    k = parse_input(fixtures.load("boundary_delta4")[0])
    with pytest.raises(InputError, match="coset limit must be"):
        link_manifold_scan(k, True, limit)
    with pytest.raises(InputError, match="coset limit must be"):
        link_manifold_scan(k, False, limit)
    argv = ["scan-links", "--certify-pi1", "--limit", str(limit), "fixtures:boundary_delta4"]
    assert main(argv) == 1
    assert "error: InputError: coset limit must be" in capsys.readouterr().err


@pytest.mark.parametrize("limit", [2.5, True, "10"])
def test_coset_limit_must_be_an_integer(limit):
    # 2.5 and True passed the range check, and "10" raised TypeError
    with pytest.raises(InputError, match="limit must be an integer"):
        check_coset_limit(limit)
    with pytest.raises(InputError, match="limit must be an integer"):
        coset_enumeration(GroupPresentation(1, [[1, 1]]), limit)
    assert check_coset_limit(10) == 10


@pytest.mark.parametrize(
    "ngens, relators, message",
    [
        (-1, [], "a presentation needs ngens >= 0, got -1"),
        (True, [[1]], "malformed presentation input: ngens must be an integer, got True"),
        (2.0, [], "malformed presentation input: ngens must be an integer, got 2.0"),
        (1, [[1, 1.0]], "relator letter 1.0 is not one of +-1, ..., +-1"),
        (1, [[True]], "relator letter True is not one of +-1, ..., +-1"),
        (2, [[1, -3]], "relator letter -3 is not one of +-1, ..., +-2"),
        (2, [[0]], "relator letter 0 is not one of +-1, ..., +-2"),
        (1, [[10 ** 5000]],
         "relator letter <int past Python's integer digit limit> is not one of +-1, ..., +-1"),
    ],
    ids=["negative-ngens", "bool-ngens", "float-ngens", "float-letter", "bool-letter",
         "letter-past-ngens", "zero-letter", "letter-past-the-digit-limit"],
)
def test_presentation_refuses_a_count_or_letter_that_is_not_an_integer(ngens, relators, message):
    """GroupPresentation reads ngens with as_int and each letter by its
    type; a letter of 5 000 digits is named without printing it, where its
    message raised ValueError."""
    with pytest.raises(InputError) as err:
        GroupPresentation(ngens, relators)
    assert str(err.value) == message
