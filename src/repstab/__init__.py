"""repstab: exact symmetric-group stability and configuration-space cohomology.

Partition calculus, Murnaghan-Nakayama characters, explicit Specht and
induced tabloid modules, monotonicity/stability checkers for consistent
sequences, the graded algebras of Euclidean configuration spaces, and the
Leray-page machinery that turns a finite presentation of H^*(M;Q) into
Betti numbers of unordered and colored configuration spaces.
"""

from .arnold import poincare_polynomial, straighten, top_character
from .characters import (
    ClassFunction,
    MultiplicityVector,
    NotACharacter,
    character_table,
    count_partition_chains,
    decompose,
    induced_character,
    irreducible_character,
    young_invariants_dim,
)
from .configspaces import (
    NotComputable,
    betti_unordered,
    colored_betti,
    e2_page,
    graded_invariants_dim,
    load_manifold,
    stable_range_report,
    tensor_power_invariants_dim,
)
from .manifolds import DescriptorError, ManifoldDescriptor
from .partitions import (
    Partition,
    angle_pad,
    curly_pad,
    dim_irrep,
    leadsto,
    lex_compare,
    pad,
)
from .specht import (
    iota,
    monotonicity_witness,
    pi_mu,
    polytabloid,
    specht_module,
    verify_claims,
    w_element,
)
from .stability import (
    RangeParams,
    check_monotone,
    check_uniform_stability,
    propagate_ranges,
    property_suite,
)
from .tabloids import PseudoTableau, PseudoTabloid

__version__ = "0.1.0"
