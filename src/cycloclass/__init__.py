"""Exact computational algebra for cyclotomic class groups, involutive
modules, and the classification of simple homotopy manifold sets of
products of a circle with a lens space.

The layers, bottom up:

- ``record``: the base of every immutable value of the layers above, from
  the matrices and groups of ``abelian`` to the reports of ``manifoldset``.
- ``abelian``: finite abelian groups presented by integer matrices, Smith
  normal form, kernels/cokernels/subgroups, all exact.
- ``involutive``: groups with involution and their C2 Tate cohomology.
- ``residue``: unit groups of F_p[zeta_n] and their norm-one tori, the
  unit cokernels vtilde read off one relation row per prime, and their
  divisor bounds.
- ``classnumber``: exact minus class numbers from the Galois orbits of odd
  Dirichlet characters, stored parity and class-group facts.
- ``ktheory``: tri-state assembly of the involutive class-group data.
- ``manifoldset``: the classifier and its independent verification pass.
- ``cli``: the ``cycloclass`` command-line tool.

The modules are the API: import each name from the module that defines
it, as in ``from cycloclass.classnumber import hminus``.  The package
itself holds only ``__version__``, so importing it loads no layer.
"""

__version__ = "0.1.0"
