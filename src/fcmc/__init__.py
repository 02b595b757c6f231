"""Exact verification tools for fc-multicategories and A-infinity structures.

The package splits into six layers, each usable on its own:

* :mod:`fcmc.graphs`   — directed graphs, composable paths, profile-loops,
  endpoint-closed subgraphs, and the preset graph constructions.
* :mod:`fcmc.labels`   — additive monoid labels with truncation and the
  label fibers of the free constructions.
* :mod:`fcmc.multicat` — finite fc-multicategory instances (loop
  instances, unlabeled or labeled, and hand-built tables), their axioms,
  and factor-closedness.
* :mod:`fcmc.freedg`   — free differential graded structures: planar-tree
  cells, the splitting differential, and the A-infinity presets.
* :mod:`fcmc.chain`    — finite cochain complexes and the differential
  graded structure on multilinear maps between them.
* :mod:`fcmc.algebra`  — certifying that candidate structure maps satisfy
  a preset's relations, by two independent routes.

All arithmetic is exact (integers and fractions); nothing here floats.
The ``fcmc`` command line (see :mod:`fcmc.cli`) drives the same checkers
from JSON descriptions.
"""

from .graphs import (
    CompositionError,
    DirectedGraph,
    Edge,
    EdgePath,
    GraphError,
    ProfileLoop,
    Vertex,
    build_bimodule_graph,
    build_module_graph,
    build_pair_graph,
    build_partition_subgraph,
    concatenate,
    empty_path,
    endpoint_violation,
    enumerate_paths,
    enumerate_profile_loops,
    is_endpoint_closed,
    is_loop_of,
    is_subgraph,
    make_graph,
    make_path,
    partition_subgraph,
    profile_loop,
    subgraph,
    validate_graph,
)
from .labels import (
    TRIVIAL_MONOID,
    LabelError,
    LabelMonoid,
    LabelingFc,
    MonoidElem,
    add,
    decompose,
    fiber,
    label,
)
from .multicat import (
    AxiomReport,
    FactorReport,
    FcInstance,
    FullSub,
    LoopInstance,
    OutOfBound,
    TableInstance,
    TwoCell,
    check_axioms,
    gamma,
    is_factor_closed,
)
from .freedg import (
    CompTree,
    Delta2Report,
    FreeCell,
    FreeDgFc,
    GeneratorSpec,
    build_Ainf_bimodule,
    build_Ainf_category,
    build_Ainf_operad,
    build_preset,
    compose_cells,
    delta_squared_report,
    free_cell,
    generator_cell,
    graft,
    signed_graft,
)
from .chain import (
    ChainError,
    CochainComplex,
    EndDgReport,
    EndX,
    GradedBasis,
    MultiMap,
    check_end_dg,
    compose_end,
    hat_d,
    identity_map,
    make_complex,
    multimap,
    zero_map,
)
from .algebra import (
    AlgebraData,
    AlgebraError,
    RelationFailure,
    RelationReport,
    algebra_residue,
    check_algebra,
    check_both_routes,
    check_direct,
    evaluate_alpha,
    lift_dga,
    random_assignment,
    random_endx,
    route_disagreement,
)

__version__ = "0.1.0"
