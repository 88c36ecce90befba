"""Exact calculators for homology-cobordism style invariants.

Subpackages:

* f2linalg     -- GF(2) rank/kernel/solve and integer Smith normal form
* simplicial   -- abstract complexes, (co)homology, Bockstein, pi_1, links
* toddcoxeter  -- coset enumeration for finitely presented groups
* graded       -- degree windows of GF(2) complexes with operators; homology
* equivariant  -- tower models over F[q,v]/(q^3) and F[U]; alpha/beta/gamma, delta
* involutive   -- mapping cone of Q(1+iota); d, d_bar, d_under; V0 arithmetic
* knot         -- Seifert-matrix signature, Alexander polynomial, Arf
* cli          -- the `homcob` command
"""

__version__ = "0.1.0"
