"""Node-disjoint subgraph homeomorphism matching for vertex-labeled graphs.

Decides whether a pattern graph is an (l, h)-topological minor of a
data graph, i.e. whether the pattern's vertices map injectively onto
equally labeled data vertices and each pattern edge onto a simple data
path of length l..h such that all mapped paths are pairwise
independent.  Ships two backtracking strategies that share one set of
pruning rules, exhaustive enumeration, a brute-force oracle, instance
generators and a benchmark harness.
"""

from .graph import (
    GraphFormatError,
    LabeledGraph,
    load_graph,
    parse_graph,
    plant_subdivision,
    random_labeled_graph,
    save_graph,
    serialize_graph,
)
from .mapping import Mapping
from .pathindex import (
    IndexTooLarge,
    PathStore,
    UndoToken,
    candidate_branch_nodes,
    enumerate_paths,
)
from .search import (
    CompatibleMatrix,
    MatchState,
    SearchStats,
    SearchTimeout,
    enumerate_all,
    ndshd1,
    ndshd2,
)
from .oracle import VerificationResult, bounded_simple_paths, brute_force_solve, verify_mapping

__version__ = "0.1.0"

__all__ = [
    "GraphFormatError",
    "LabeledGraph",
    "load_graph",
    "parse_graph",
    "plant_subdivision",
    "random_labeled_graph",
    "save_graph",
    "serialize_graph",
    "Mapping",
    "PathStore",
    "UndoToken",
    "candidate_branch_nodes",
    "enumerate_paths",
    "CompatibleMatrix",
    "MatchState",
    "SearchStats",
    "SearchTimeout",
    "IndexTooLarge",
    "enumerate_all",
    "ndshd1",
    "ndshd2",
    "VerificationResult",
    "bounded_simple_paths",
    "brute_force_solve",
    "verify_mapping",
    "__version__",
]
