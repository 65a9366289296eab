"""Stratification calculator for compatible almost complex structures on
the rational ruled surfaces: exact homology arithmetic, stable-map stratum
enumeration, gluing-bundle and plumbing calculus for normal links, and
numeric verification of the explicit projective models.
"""

from .homology import (
    NONTRIVIAL,
    TRIVIAL,
    H2Class,
    RuledSurface,
    SymplecticForm,
    admissible_strata,
    area,
    chern_pairing,
    codim_cross_check,
    intersect,
    link_dimension,
    strata_codim,
    stratum_curve_class,
)
from .bundles import (
    LineBundleExpr,
    OrbiLineBundle,
    Rank2BundleExpr,
    gluing_bundle,
    ly_bundle,
    o,
    pullback_by_degree,
    tensor,
    v2_bundle,
)
from .stable_trees import (
    FiberDecomposition,
    StableTree,
    StratumDescriptor,
    TreeComponent,
    branch_moduli_dim,
    combinatorial_isotropy,
    enumerate_decompositions,
    enumerate_strata,
    is_stable,
    top_stratum_dimension,
)
from .plumbing import (
    Space,
    UnsupportedPlumbingError,
    blow_down,
    blow_down_fully,
    chain_to_lens,
    collapse_exceptional,
    identify_pullback_over_blowdown,
    lens_equivalent,
    lens_space,
    link20_pipeline,
    link_adjacent,
    link_nontrivial,
    plumb_with_canonical,
    plumb_with_ly,
    twist_by_attaching,
)
from .projective_maps import (
    ProjPoint,
    RationalMapDeg2,
    count_preimages,
    critical_values,
    eval_h,
    eval_phi30,
    eval_phi32,
    map_from_critical_values,
    on_y,
    orbit_space_map,
    quadric_q,
    s5_identification,
    weighted_circle_orbit,
)

__version__ = "0.1.0"
