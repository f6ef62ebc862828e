"""wsdlab: systematic evaluation of word-sense-disambiguation criteria.

Pipeline: parse a vertical tagged corpus, look up each target word's
occurrences (each carries its document's tokens), extract contextual features
per criterion from them, train Naive Bayes or decision-list classifiers with
m-estimate smoothing, evaluate them under stratified k-fold cross-validation,
and emit the analysis report suite (evidence profiles, filter ablations,
window studies) as CSV.
"""

__version__ = "0.1.0"

from .classifiers import (
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
    extract_occurrences,
    generate_pseudoword_corpus,
    parse_corpus,
    parse_pseudoword_config,
    parse_targets,
    serialize_corpus,
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
    CVParams,
    FoldPlan,
    GridResult,
    WordResult,
    cross_validate,
    grid_search,
    kfold_split,
)
from .analysis import (
    ADJACENCY_CELLS,
    adjacency_experiment,
    content_ablation,
    context_report,
    evidence_reports,
    grid_rows,
    selection_comparison,
    selection_criteria,
    shift_criteria,
    shift_study,
    stats_rows,
)
