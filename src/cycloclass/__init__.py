"""Exact computational algebra for cyclotomic class groups, involutive
modules, and the classification of simple homotopy manifold sets of
products of a circle with a lens space.

The layers, bottom up:

- ``record``: the base of the immutable value records of the layers above.
- ``abelian``: finite abelian groups presented by integer matrices, Smith
  normal form, kernels/cokernels/subgroups, all exact.
- ``involutive``: groups with involution and their C2 Tate cohomology.
- ``residue``: unit groups of F_p[zeta_n] and their norm-one tori, the
  reduction-of-units presentations, their cokernels and divisor bounds.
- ``classnumber``: Dirichlet characters, generalized Bernoulli values,
  exact minus class numbers, stored parity and class-group facts.
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
from .involutive import InvModule, Sign, direct_sum, eigen_set, \
    norm_image_set, tate
from .residue import (
    ResidueRingUnits,
    UnitQuotient,
    UnsupportedModulusError,
    c_bound,
    psi_plus_presentation,
    residue_units,
    unit_quotient,
    vtilde,
)
from .classnumber import (
    DirichletCharacter,
    characters,
    class_record,
    hminus,
    hp_is_odd,
    odd_part,
)
from .ktheory import (
    K0Description,
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
