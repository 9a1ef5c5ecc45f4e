"""Expected Force graph analytics: centrality computation and SIR-based evaluation."""

from .graph import (
    Graph,
    RmatParams,
    build_graph,
    cluster_count,
    generate_rmat,
    load_edge_list,
    write_edge_list,
)
from .expected_force import (
    EFResult,
    ef,
    ef_cluster_centric,
    ef_vertex_centric,
    write_ef_csv,
)
from .epidemic import (
    SimOutcome,
    SirParams,
    calibrate,
    is_global_outbreak,
    outcome_record,
    run_replicates,
    run_scenarios,
    run_sir,
    time_to_peak,
)
from .centrality import (
    CentralityScores,
    betweenness,
    degree_centrality,
    pagerank,
    write_scores_csv,
)
from .analysis import (
    EFBin,
    ExperimentReport,
    SpreadingSums,
    correlation_report,
    ef_bins,
    immunization_experiment,
    merge_sums,
    pearson,
    seeding_experiment,
    spreading_sums,
    timing_report,
    write_report_csv,
    write_report_ndjson,
)

__version__ = "0.1.0"
