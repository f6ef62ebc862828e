"""Independent reference implementations the tests check against.

These deliberately avoid the code paths under test: Naive Bayes is verified
with plain probability products (no logs), the decision list with a
brute-force scan over matched entries, occurrence lookup with a scan of the
whole corpus, and feature extraction by building the document's full left
and right context before the window is applied.
"""

from __future__ import annotations

import math

from wsdlab.corpus import CATEGORIES, Occurrence
from wsdlab.criteria import (
    CONTENT_MODES,
    CONTENT_TAGS,
    SELECTED_TAGS,
    Feature,
    FeatureVector,
    _consecutive_runs,
    _span_key,
)


def smoothed(event: int, condition: int, prior: float, m: float) -> float:
    if condition == 0 and m == 0:
        return 0.0
    return (event + m * prior) / (condition + m)


def nb_posterior_oracle(model, vector) -> tuple[str, bool]:
    """Exhaustive posterior computation: products over active features per
    sense, same prior convention and tie-breaks as the classifier contract.
    Returns (sense, used_fallback)."""
    active = sorted(k for k in vector.keys() if k in model.cond_counts)
    if not active:
        return model.fallback, True
    m = model.smoothing.m
    if model.smoothing.prior_mode == "feature-values":
        prior = 1.0 / max(model.vocab_size, 2)
    else:
        prior = 1.0 / max(len(model.senses), 2)
    best_sense = None
    best_key = None
    for sense in sorted(model.senses):
        posterior = model.priors[sense]
        for key in active:
            posterior *= smoothed(
                model.cond_counts[key].get(sense, 0),
                model.sense_totals[sense],
                prior,
                m,
            )
        log_posterior = math.log(posterior) if posterior > 0.0 else -math.inf
        key_tuple = (log_posterior, model.priors[sense])
        if best_key is None or key_tuple > best_key:
            best_sense, best_key = sense, key_tuple
    return best_sense, False


def dl_scan_oracle(model, vector) -> tuple[str, bool]:
    """Pick the matched entry with the greatest (strength, count, key-asc)
    rank by scanning all entries; fallback when nothing matches."""
    keys = vector.keys()
    matched = [entry for entry in model.entries if entry.key in keys]
    if not matched:
        return model.fallback, True
    best = min(matched, key=lambda e: (-e.strength, -e.count, e.key))
    return best.sense, False


def occurrences_scan(corpus, lemma, category):
    """Every sense-tagged token of ``lemma``, by scanning every document."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    found = []
    for doc in corpus.documents:
        for index, tok in enumerate(doc.tokens):
            if tok.lemma == lemma and tok.sense is not None:
                found.append(Occurrence(doc.id, index, lemma, category, tok.sense))
    return tuple(found)


def features_full_context(corpus, occurrence, criterion, *, content_mode="reindex"):
    """Feature extraction from the document's whole filtered left and right
    context, cut down to the window afterwards."""
    if content_mode not in CONTENT_MODES:
        raise ValueError(f"content_mode must be one of {CONTENT_MODES}")
    doc = corpus.document(occurrence.document_id)
    tokens = doc.tokens
    index = occurrence.token_index
    allowed = {
        "all": None, "content": CONTENT_TAGS, "selected": SELECTED_TAGS[occurrence.category]
    }[criterion.filter]

    if allowed is None:
        left = [(-(k + 1), tokens[index - 1 - k]) for k in range(index)]
        right = [(k + 1, tokens[index + 1 + k]) for k in range(len(tokens) - index - 1)]
    elif content_mode == "reindex":
        kept_left = [t for t in tokens[:index] if t.cgems in allowed]
        left = [(-(k + 1), t) for k, t in enumerate(reversed(kept_left))]
        kept_right = [t for t in tokens[index + 1:] if t.cgems in allowed]
        right = [(k + 1, t) for k, t in enumerate(kept_right)]
    else:
        left = [
            (-(k + 1), tokens[index - 1 - k])
            for k in range(index)
            if tokens[index - 1 - k].cgems in allowed
        ]
        right = [
            (k + 1, tokens[index + 1 + k])
            for k in range(len(tokens) - index - 1)
            if tokens[index + 1 + k].cgems in allowed
        ]

    low = -criterion.size + criterion.shift
    high = criterion.size + criterion.shift
    window = sorted(
        [(o, t) for o, t in left if low <= o <= high]
        + [(o, t) for o, t in right if low <= o <= high]
    )

    features = []

    def emit(span):
        keyed = [(o, getattr(t, criterion.tag)) for o, t in span]
        features.append(
            Feature(
                key=_span_key(criterion, keyed),
                offsets=tuple(o for o, _ in span),
                cgems=tuple(t.cgems for _, t in span),
            )
        )

    if criterion.anchored:
        entries = sorted(window + [(0, tokens[index])])
        for run in _consecutive_runs(entries):
            for start in range(len(run) - criterion.order + 1):
                span = run[start:start + criterion.order]
                if any(o == 0 for o, _ in span):
                    emit(span)
    else:
        for run in _consecutive_runs(window):
            for start in range(len(run) - criterion.order + 1):
                emit(run[start:start + criterion.order])

    return FeatureVector.build(features, criterion)
