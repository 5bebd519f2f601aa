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
"""

from .abelian import (
    AbHom,
    FinAbGroup,
    IntMatrix,
    cokernel,
    image,
    kernel,
    snf,
    subgroup_generated,
    subquotient,
)
from .involutive import InvModule, Sign, eigen_set, norm_image_set, tate
from .residue import (
    ResidueRingUnits,
    UnitQuotient,
    UnsupportedModulusError,
    c_bound,
    residue_units,
    unit_quotient,
    vtilde,
)
from .classnumber import hminus, hp_is_odd, known_class_group, odd_part
from .ktheory import (
    Knowledge,
    ScopeError,
    WhStructure,
    a_m,
    d_divisibility_bound,
    km_v_module,
    nk1_vanishes,
    stored_d_group,
    wh_rank,
    wh_structure,
)
from .manifoldset import ManifoldSetReport, a2k_order, classify, sweep, verify

__version__ = "0.1.0"
