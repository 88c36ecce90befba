"""Exact calculators for homology-cobordism style invariants.

Modules:

* f2linalg     -- packed GF(2) column reduction, products and solve; integer SNF
* simplicial   -- abstract complexes, (co)homology, Bockstein, pi_1, links
* toddcoxeter  -- coset enumeration for finitely presented groups
* graded       -- degree windows of GF(2) complexes with operators; homology
* equivariant  -- tower models over F[q,v]/(q^3) and F[U]; alpha/beta/gamma, delta
* involutive   -- mapping cone of Q(1+iota); d, d_bar, d_under; V0 arithmetic
* knot         -- Seifert-matrix signature, Alexander polynomial, Arf
* cli          -- the `homcob` command
"""

__version__ = "0.1.0"
