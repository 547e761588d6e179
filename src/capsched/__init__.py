"""Capacity planning on scaling surfaces plus contention-aware scheduling.

The pipeline: synthesize workloads with known scaling surfaces and
interference footprints, observe their system indexes, select features
and cluster the surfaces, classify new workloads onto a cluster
centroid, plan the cheapest spec meeting a performance target,
quantify pressure and sensitivity with probe sweeps, place tenants by
contention risk, and check the outcome in a closed-form degradation
model.
"""

from .core import (
    CapacityExhaustedError,
    ConfigRegion,
    DEFAULT_CORE_LEVELS,
    DEFAULT_MEMORY_LEVELS,
    InfeasibleError,
    InterferenceProfile,
    NodeConstants,
    OutOfRegionError,
    PressureSensitivity,
    ResourceSpec,
    ScalingSurface,
    SharedResource,
    SystemIndexVector,
    round_half_up,
)
from .estimator import (
    ReferenceTracks,
    ResourceFootprint,
    SimulatedProbe,
    build_profile,
    stress_reference_tracks,
)
from .experiment import (
    ExperimentConfig,
    build_workload_set,
    evaluate_validation,
    run_colocation,
    run_hyperparam_sweep,
    run_loocv,
    run_scenario1,
    run_scenario2,
    split_train_val,
    train_bundle,
)
from .planner import (
    FeatureSelection,
    ModelBundle,
    PlanningRequest,
    SurfaceClassifier,
    SurfaceClustering,
    cluster_surfaces,
    plan_capacity,
    predict_surface,
    select_features,
    select_features_cv,
    spec_cost,
    surface_error,
    train_classifier,
)
from .scheduler import (
    NodeState,
    Placement,
    ScheduleConfig,
    contention_risk,
    place,
    score_node,
)
from .simulator import (
    ClusterSpec,
    SlowdownReport,
    compute_metrics,
    simulate_colocated,
)
from .workload_synth import (
    Workload,
    WorkloadArchetype,
    WorkloadSet,
    generate_archetypes,
    generate_workloads,
    make_workload,
    observe_indexes,
    probe_for,
    tps_at,
    true_profile_at,
)

__version__ = "0.1.0"
