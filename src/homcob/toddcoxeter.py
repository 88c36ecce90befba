"""Todd-Coxeter coset enumeration (HLT strategy) with a hard coset cap.

Enumerates cosets of the trivial subgroup, so a closed table gives the
exact group order.

Table layout: one flat list per column, `cols[x][c]` (column 2g is
generator g, column 2g + 1 its inverse, so `x ^ 1` is the inverse
column), with -1 for an undefined entry, and a forwarding array `fwd`:
`fwd[c] == c` for a live coset, else a smaller coset it was merged into.

Coincidences are processed by the queue-based COINCIDENCE procedure of
Holt, Eick and O'Brien (Handbook of Computational Group Theory, 2005,
Sections 5.1-5.2): MERGE keeps the smaller coset as the representative
and queues the larger; each queued coset e then hands its edges to the
representatives, first undefining the back-entry of each edge, and either
re-enters the edge or queues a further MERGE.  Once the queue is empty no
live coset points at a dead one, so relator scans read the table
directly, without following `fwd`.

Processing is HLT and deterministic: cosets are scanned FIFO in creation
order and relators in input order; a coset merged away mid-scan stops
its scan, and a coset that survives its scans gets every undefined
column filled with a fresh coset.  Every edge goes through the
conflict-checking `put` (a relator that is not freely reduced can make a
fresh coset's inverse entry already defined).  The final table after a
coincidence is fixed by the coincidence, not by the order its
consequences are processed in, so the definitions made, the cap test and
every answer are those of a union-find table with the same HLT order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InputError, as_int

if TYPE_CHECKING:
    from .simplicial import GroupPresentation

EXCEEDED = "exceeded"
MAX_COSETS = 1_000_000
COSET_LIMIT = 2000  # the default cap of `pi1` and `scan-links --certify-pi1`


class _CapHit(Exception):
    pass


def _column(letter: int) -> int:
    g = abs(letter) - 1
    return 2 * g + (0 if letter > 0 else 1)


def _enumerate(p: GroupPresentation, limit: int):
    """The closed coset table (cols, fwd); raises _CapHit when more than
    `limit` cosets would be defined."""
    width = 2 * p.ngens
    cols: list[list[int]] = [[-1] for _ in range(width)]
    fwd = [0]

    def define() -> int:
        c = len(fwd)
        if c >= limit:
            raise _CapHit()
        fwd.append(c)
        for col in cols:
            col.append(-1)
        return c

    def rep(c: int) -> int:
        r = c
        while fwd[r] != r:
            r = fwd[r]
        while fwd[c] != r:
            fwd[c], c = r, fwd[c]
        return r

    def merge(a: int, b: int, queue: list[int]):
        a, b = rep(a), rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            fwd[b] = a
            queue.append(b)

    def coincidence(a: int, b: int):
        queue: list[int] = []
        merge(a, b, queue)
        for e in queue:  # grows while it is read
            for x in range(width):
                cx = cols[x]
                d = cx[e]
                if d < 0:
                    continue
                ix = cols[x ^ 1]
                ix[d] = -1
                m, n = rep(e), rep(d)
                if cx[m] >= 0:
                    merge(n, cx[m], queue)
                elif ix[n] >= 0:
                    merge(m, ix[n], queue)
                else:
                    cx[m] = n
                    ix[n] = m

    def put(c: int, x: int, d: int):
        """Enter c.x = d for live c and d, or process the coincidence a
        conflicting entry forces."""
        cx, ix = cols[x], cols[x ^ 1]
        e = cx[c]
        if e >= 0:
            if e != d:
                coincidence(e, d)
        elif ix[d] >= 0:
            coincidence(ix[d], c)
        else:
            cx[c] = d
            ix[d] = c

    # per relator: its columns, and the inverse columns read backwards
    scans = []
    for w in p.relators:
        xs = [_column(letter) for letter in w]
        if xs:
            scans.append((xs, [cols[x] for x in xs], [cols[x ^ 1] for x in reversed(xs)]))

    def scan_and_fill(cos: int, xs: list[int], fw: list, bw: list):
        """Trace a relator that does not close at `cos` yet, defining
        cosets between its forward and backward scans."""
        front, i = cos, 0
        while fw[i][front] >= 0:
            front = fw[i][front]
            i += 1
        n = len(xs)
        back, j = cos, n
        while j - 1 > i:
            prv = bw[n - j][back]
            if prv < 0:
                break
            back = prv
            j -= 1
        while i < j - 1:
            fresh = define()
            put(front, xs[i], fresh)
            front = rep(fresh)
            i += 1
        put(front, xs[i], rep(back))  # closing deduction (may coincide)

    idx = 0
    while idx < len(fwd):
        if fwd[idx] == idx:
            for xs, fw, bw in scans:
                if fwd[idx] != idx:
                    break  # merged away mid-scan; survivor saw these edges
                front = idx
                for col in fw:
                    front = col[front]
                    if front < 0:
                        scan_and_fill(idx, xs, fw, bw)
                        break
                else:
                    if front != idx:
                        coincidence(front, idx)  # full scan must close up
            if fwd[idx] == idx:
                for x in range(width):
                    if cols[x][idx] < 0:
                        put(idx, x, define())
        idx += 1
    return cols, fwd


def check_coset_limit(limit) -> int:
    """The integer limit, or InputError unless it is one with
    1 <= limit <= MAX_COSETS."""
    limit = as_int(limit, "coset", "limit")
    if limit < 1:
        raise InputError("coset limit must be >= 1")
    if limit > MAX_COSETS:
        raise InputError(f"coset limit must be <= {MAX_COSETS}")
    return limit


def coset_enumeration(p: GroupPresentation, limit: int):
    """Order of the presented group, or "exceeded" when more than `limit`
    cosets would be needed."""
    limit = check_coset_limit(limit)
    try:
        _, fwd = _enumerate(p, limit)
    except _CapHit:
        return EXCEEDED
    return sum(1 for c, f in enumerate(fwd) if c == f)
