"""coxlow: based root systems, small roots, reduced-word automata, and low
elements of Coxeter groups, with empirical verification of the bijection
between low elements and small inversion sets in rank 3."""

__version__ = "0.1.0"

from .automaton import (
    Automaton,
    build_automaton,
    build_shortlex_automaton,
    count_elements,
    export_dot,
    growth_series,
    is_reduced,
)
from .conjecture import (
    BATTERY,
    BipGraph,
    PolytopeReport,
    battery_root_system,
    build_gbip,
    check_acyclic,
    check_gbip,
    check_simplex_edge_condition,
    construct_low_from_lambda,
    source_generators,
    verify_bijection,
    verify_inversion_polytopes,
)
from .core import (
    BasedRootSystem,
    CoxeterMatrix,
    DEFAULT_EPS,
    INF,
    Root,
    build_root_system,
    dihedral_matrix,
    roots_up_to_depth,
    triangle_matrix,
)
from .elements import (
    BijectionReport,
    Element,
    IDENTITY,
    cone_membership,
    elements_by_length,
    elements_up_to_length,
    enumerate_low,
    enumerate_low_stable,
    inversion_set,
    is_low,
    left_descents,
    normalize,
    small_inversion_mask,
)
from .errors import *  # noqa: F401,F403 (small, explicit error module)
from .groupfile import group_to_json, load_root_system, parse_group_file
from .projective import (
    convex_hull_2d,
    hulls_equal,
    normalize_projective,
    projective_hull,
)
from .render import RenderOptions, render_svg
from .smallroots import (
    DominanceVerdict,
    SmallRootSet,
    dominates,
    is_bipodal,
    small_roots,
    small_roots_by_dominance,
)
