"""Exact computation with Engel elements and Engel graphs of finite groups.

Build a finite group (family constructors, generator closure, or parsed
specs), classify its left Engel elements, verify Baer's identification of
that set with the Fitting subgroup, construct the Engel graph on the
remaining elements, and measure it exactly: components, diameter, clique
number, planarity with Kuratowski witnesses, isomorphism.  A survey layer
replays these checks over a catalog of small groups.
"""

from .engel import (
    EngelOutcome,
    engel_adjacent,
    engel_depths,
    engel_reaches_identity,
    fitting_subgroup,
    is_engel_group,
    is_engel_set,
    is_left_engel,
    is_left_k_engel,
    is_randomly_engel_conjugates,
    is_randomly_engel_set,
    iterated_commutator,
    lcm_power_engel_check,
    left_engel_set,
)
from .errors import (
    BaerViolation,
    ClosureTooLarge,
    EmptyGraphError,
    EngelGraphError,
    EngelGroupError,
    InvalidParameter,
    LabelMismatch,
    NotASubgroup,
    ParseError,
    PreconditionFailed,
    SameVertex,
    UnknownVertex,
)
from .families import (
    alternating_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
)
from .graphs import (
    GraphMetrics,
    SimpleGraph,
    build_engel_graph,
    clique_number,
    compute_metrics,
    connected_components,
    diameter,
    find_isomorphism,
    graphs_isomorphic,
    induced_subgraph,
    is_planar,
    isolated_vertices,
    kuratowski_witness,
    verify_kuratowski_witness,
)
from .groups import (
    Group,
    centralizer,
    closure,
    conjugacy_class,
    conjugacy_classes,
    derived_subgroup,
    is_abelian,
    is_nilpotent,
    is_subgroup,
    lower_central_series,
    normal_closure,
    subgroup_generated,
)
from .io import (
    FamilySpec,
    FileSpec,
    GroupSpec,
    ProductSpec,
    build_group,
    parse_cycles,
    parse_group_spec,
    read_generator_file,
    render_group_spec,
    write_dot,
    write_report,
)
from .permutations import IDENTITY, Permutation
from .survey import (
    CheckResult,
    GroupEvaluation,
    GroupReport,
    SurveyResult,
    TheoremVerdict,
    catalog_plans,
    evaluate_group,
    report,
    summary_json,
    survey,
    verify_theorems,
)

__version__ = "0.1.0"
