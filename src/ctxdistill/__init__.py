"""ctxdistill: distill issue-resolution code contexts to minimal
sufficient subsets and compress contexts under a token budget."""

from .code_model import (
    CodeUnit,
    Level,
    SegmentKind,
    Span,
    UnitTree,
    build_tree,
    decompose,
    leaf_segments,
    upward_closure,
)
from .compressor import (
    CompressionBudget,
    HeuristicScorer,
    RemoteScorer,
    ScoredSegment,
    StructuredQuery,
    build_query,
    compress,
    heuristic_score,
    score_segments,
    select_greedy,
)
from .dataset import (
    CorpusStats,
    DistilledInstance,
    SemanticRole,
    TrainingTriple,
    classify_role,
    compute_stats,
    export_triples,
    fault_facts,
    load_corpus,
    save_corpus,
)
from .ga_search import GAConfig, Genome, GenomeSpace, run_ga
from .hdd import MinimizationResult, ddmin_level, minimize
from .instance import FaultLocation, Instance, load_instance
from .oracle import (
    LLMOracle,
    MockOracle,
    OracleConfig,
    OracleSession,
    OracleVerdict,
    verdict_cache_key,
)
from .priority import (
    CoverageReport,
    PatchInfo,
    PriorityWeights,
    parse_patch,
    priority,
    priority_map,
    sym_score,
)
from .render import RenderedContext, render, render_full

__version__ = "0.1.0"
