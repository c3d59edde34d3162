"""qtop: exact quantum-topology invariants and embedding obstructions.

Everything is exact: cyclotomic ring elements are integer coefficient
vectors with a p-power denominator, ideals are Hermite-form integer
lattices, probabilities are rationals.  Floating point is used only in
rendered reports and for F_q products on BLAS, whose integer sums are
exact on the float32/float64 tiers of linalg._product_dtype.
"""

from .cyclotomic import (  # noqa: F401
    CycElem,
    CycIdeal,
    ResidueSpec,
    elem_A,
    elem_i,
    elem_u,
    eta,
    gauss_sqrt_minus_p,
    residue_primes,
)
from .groups import FiniteGroupTable, builtin_group  # noqa: F401
from .manifolds import (  # noqa: F401
    BoundedHeegaard,
    ConnectedSum,
    Double,
    GroupPresentation,
    HeegaardGluing,
    LensSurgery,
    MappingTorus,
    S3,
    boundary_vector,
    dw_invariant,
    dw_invariant_tqft,
    homology_of,
    murakami_check,
    parse_desc,
    rt_closed,
)
from .mcg import TwistWord, h1_action, is_torelli, parse_word, word_in_subgroup  # noqa: F401
from .obstruct import (  # noqa: F401
    fkb_ideal_closed,
    fkb_ideal_inner,
    obstruct_embedding,
    twist_search,
)
from .pmatrix import PMatrix  # noqa: F401
from .rep import algebra_span_dim, hermitian_check, rep_dim, rho, rho_mod  # noqa: F401
from .skein import s_matrix, t_matrix  # noqa: F401
from .walks import (  # noqa: F401
    WalkSpec,
    enumerate_group,
    hyperplane_prob,
    montecarlo_vanishing,
    tv_to_uniform,
)

__version__ = "0.1.0"
