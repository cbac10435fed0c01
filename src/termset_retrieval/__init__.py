"""Generative document retrieval with unordered term-set identifiers.

Documents are identified by a set of N terms chosen by a trainable
importance model; retrieval runs a validity-constrained beam search that
may generate any permutation of an identifier, ranking documents by their
maximum generation likelihood.
"""

from .corpus import (
    Corpus,
    CorpusStats,
    Document,
    Judgments,
    Query,
    TrainingPair,
    ingest_corpus,
    load_corpus,
    load_judgments,
    load_queries,
    sample_negatives,
    tokenize,
)
from .decoder import (
    RankedDoc,
    SearchResult,
    brute_force_best_permutation,
    constrained_beam_search,
    rank_documents,
    search,
    write_run_file,
)
from .errors import DataError, InvariantError
from .evaluation import (
    AblationReport,
    CorpusSplit,
    EfficiencyReport,
    MetricsReport,
    SeenUnseenReport,
    ablate_identifier_scheme,
    benchmark_feasible_speedup,
    efficiency_report,
    evaluate_run,
    evaluate_seen_unseen,
    mrr_at_k,
    recall_at_k,
    seen_unseen_split,
)
from .importance import (
    IdentifierTable,
    ImportanceModel,
    TermDictionary,
    build_identifiers,
    load_model,
    read_identifier_file,
    save_model,
    score_terms,
    train_importance,
    write_identifier_file,
)
from .index import (
    Index,
    SequenceView,
    build_index,
    load_index,
    naive_feasible_terms,
    save_index,
)
from .learning import (
    IterationStats,
    LearningDataset,
    LearningPair,
    TrainingConfig,
    init_permutation,
    make_dataset,
    run_training,
)
from .scorer import (
    FeatureScorer,
    Scorer,
    UniformScorer,
    build_term_weights,
    check_compatible,
    load_scorer,
    save_scorer,
    sequence_logprob,
)

__version__ = "0.1.0"
