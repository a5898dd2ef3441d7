"""Free-fermion expansion toolkit for staggered six-vertex models.

Exact enumeration and transfer-matrix oracles for finite lattices, the
dimer/Pfaffian representation at the solvable point, infinite-lattice
thermodynamic integrals, exact singular series in the staggered field, and
the renormalization-exponent cross-check.

The package re-exports nothing: import the module that holds a name, e.g.
``from vertex_expand import dimer``, so a caller loads only what it uses.
It holds one constant, ``FREE_FERMION_BETA_EPS``, which ``model`` and
``coulomb`` both name and read from here, so neither loads the other for it.
"""

import math

__version__ = "1.0.0"

#: the solvable coupling ln(2)/2, where the model maps onto free fermions
FREE_FERMION_BETA_EPS = 0.5 * math.log(2.0)
