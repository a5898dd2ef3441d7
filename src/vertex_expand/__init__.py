"""Free-fermion expansion toolkit for staggered six-vertex models.

Exact enumeration and transfer-matrix oracles for finite lattices, the
dimer/Pfaffian representation at the solvable point, infinite-lattice
thermodynamic integrals, exact singular series in the staggered field, and
the renormalization-exponent cross-check.

The package re-exports nothing: import the module that holds a name, e.g.
``from vertex_expand import dimer``, so a caller loads only what it uses.
"""

__version__ = "1.0.0"
