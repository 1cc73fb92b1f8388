"""hampack: sample sparse random digraphs with min in/out-degree >= k+1
and pack k edge-disjoint directed Hamilton cycles into them."""

__version__ = "0.1.0"

from .cover import PermutationDigraph, PhaseTwoBudget, eliminate_small_cycles
from .errors import (ConditioningFailureError, EdgeListFormatError,
                     HampackError, InfeasibleDegreeError, OracleSizeError,
                     PhaseFailure, RejectionStallError, TailUnderflowError)
from .harness import TrialRecord, run_pipeline, run_sweep, run_trial
from .matching import build_k_matchings, matching_to_cycle_cover, maximum_matching
from .model import (ModelParams, SimpleDigraph, read_edge_list,
                    sample_erased_digraph, sample_simple_digraph, solve_z,
                    write_edge_list)
from .partition import EdgePartition, compute_small, split_edges
from .patch import count_r_phi, merge_patch
from .rng import derive_seed, rng_stream
from .verify import (PackingCertificate, brute_force_packing,
                     certificate_from_covers, degree_census, expansion_check,
                     verify_hamilton, verify_packing)

__all__ = [
    "__version__", "ModelParams", "SimpleDigraph", "solve_z",
    "sample_simple_digraph", "sample_erased_digraph",
    "read_edge_list", "write_edge_list",
    "EdgePartition", "split_edges", "compute_small",
    "maximum_matching", "build_k_matchings", "matching_to_cycle_cover",
    "PermutationDigraph", "PhaseTwoBudget", "eliminate_small_cycles",
    "merge_patch", "count_r_phi",
    "PackingCertificate", "verify_hamilton", "verify_packing",
    "certificate_from_covers", "degree_census", "expansion_check",
    "brute_force_packing",
    "run_pipeline", "run_trial", "run_sweep", "TrialRecord",
    "rng_stream", "derive_seed",
    "HampackError", "TailUnderflowError", "InfeasibleDegreeError",
    "ConditioningFailureError", "RejectionStallError",
    "EdgeListFormatError", "OracleSizeError", "PhaseFailure",
]
