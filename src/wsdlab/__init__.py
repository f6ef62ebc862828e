"""wsdlab: systematic evaluation of word-sense-disambiguation criteria.

Pipeline: parse a vertical tagged corpus, extract contextual features per
criterion, train Naive Bayes or decision-list classifiers with m-estimate
smoothing, evaluate them under stratified k-fold cross-validation, and emit
the analysis report suite (evidence profiles, filter ablations, window
studies) as CSV.
"""

__version__ = "0.1.0"

from .classifiers import (
    DLEntry,
    DLModel,
    NBModel,
    Prediction,
    SmoothingParams,
    classify_dl,
    classify_nb,
    feature_strength,
    m_estimate,
    train_dl,
    train_nb,
)
from .corpus import (
    Corpus,
    CorpusParseError,
    Document,
    Occurrence,
    PseudowordConfig,
    Token,
    WordStats,
    category_averages,
    extract_occurrences,
    generate_pseudoword_corpus,
    mfs_baseline,
    parse_corpus,
    parse_pseudoword_config,
    parse_targets,
    sense_distribution,
    sense_entropy,
    serialize_corpus,
    word_stats,
)
from .criteria import (
    Criterion,
    CriterionGrid,
    CriterionParseError,
    combine_features,
    default_grid,
    enumerate_grid,
    extract_features,
    format_criterion,
    parse_criterion,
    parse_grid_config,
)
from .evaluation import (
    DecisionRecord,
    FoldPlan,
    GridResult,
    WordResult,
    cross_validate,
    grid_search,
    kfold_split,
    macro_average,
    write_grid_csv,
)
from .analysis import (
    ADJACENCY_CELLS,
    AblationReport,
    AdjacencyResult,
    ContextReport,
    EvidenceProfile,
    SelectionReport,
    ShiftReport,
    adjacency_experiment,
    content_ablation,
    context_report,
    evidence_profile,
    evidence_profiles,
    selection_comparison,
    selection_criteria,
    shift_criteria,
    shift_study,
    space_distribution_summary,
)
