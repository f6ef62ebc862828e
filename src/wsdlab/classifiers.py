"""Naive Bayes and decision-list classifiers over feature vectors.

Both classifiers smooth their probability estimates with the m-estimate
``(n_c + m*p) / (n + m)``, which blends an observed frequency with a prior
``p`` at strength ``m``.  Naive Bayes combines the evidence of every known
feature in the vector; the decision list ranks features once by strength (the
log-odds that a feature indicates its majority sense) and decides by the
single strongest feature present.  Both fall back to the training
most-frequent sense when no known feature is available, so every input is
tagged and precision equals recall.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .criteria import FeatureVector, Span

PRIOR_MODES = ("feature-values", "senses")


@dataclass(frozen=True)
class SmoothingParams:
    """m-estimate strength and the prior used for NB feature conditionals:
    uniform over the training feature vocabulary (``feature-values``) or
    uniform over the sense inventory (``senses``)."""

    m: float = 1.0
    prior_mode: str = "feature-values"

    def __post_init__(self) -> None:
        if not math.isfinite(self.m):
            raise ValueError("smoothing strength m must be finite")
        if self.m < 0:
            raise ValueError("smoothing strength m must be >= 0")
        if self.prior_mode not in PRIOR_MODES:
            raise ValueError(f"prior_mode must be one of {PRIOR_MODES}")


def m_estimate(event_count: int, condition_count: int, prior: float, m: float) -> float:
    """Smoothed conditional probability (event_count + m*prior) /
    (condition_count + m)."""
    if not 0 <= event_count <= condition_count:
        raise ValueError("need 0 <= event_count <= condition_count")
    if not 0.0 < prior < 1.0:
        raise ValueError("prior must lie strictly in (0, 1)")
    if m < 0:
        raise ValueError("m must be >= 0")
    if condition_count == 0 and m == 0:
        raise ValueError("m-estimate undefined: zero condition count and m = 0")
    return (event_count + m * prior) / (condition_count + m)


@dataclass(frozen=True)
class Prediction:
    sense: str
    score: float
    evidence: Span | None
    used_fallback: bool


@dataclass(frozen=True)
class NBModel:
    """Trained Naive Bayes state: priors, per-(feature, sense) presence
    counts, per-sense feature totals and the training vocabulary size."""

    senses: tuple[str, ...]
    priors: dict[str, float]
    cond_counts: dict[str, dict[str, int]]
    sense_totals: dict[str, int]
    vocab_size: int
    fallback: str
    smoothing: SmoothingParams


@dataclass(frozen=True)
class DLEntry:
    key: str
    sense: str
    strength: float
    count: int


@dataclass(frozen=True)
class DLModel:
    """Decision list: entries sorted by (strength desc, count desc, key asc),
    each key's position in that order, and the most-frequent-sense
    fallback."""

    senses: tuple[str, ...]
    entries: tuple[DLEntry, ...]
    ranks: dict[str, int]
    fallback: str
    smoothing: SmoothingParams


def majority_sense(senses: Sequence[str]) -> str:
    """Most frequent sense, ties broken by lexicographic order."""
    if not senses:
        raise ValueError("cannot take the majority of zero senses")
    counts = Counter(senses)
    return min(counts, key=lambda s: (-counts[s], s))


def _tally(
    training: Sequence[tuple[FeatureVector, str]],
) -> tuple[Counter, dict[str, dict[str, int]], Counter, int]:
    """Shared count tables: sense counts, per-key per-sense presence counts,
    per-sense feature totals, vocabulary size."""
    if not training:
        raise ValueError("training set is empty")
    sense_counts: Counter = Counter()
    cond: dict[str, dict[str, int]] = {}
    totals: Counter = Counter()
    for vector, sense in training:
        sense_counts[sense] += 1
        for key in vector:
            by_sense = cond.setdefault(key, {})
            by_sense[sense] = by_sense.get(sense, 0) + 1
            totals[sense] += 1
    return sense_counts, cond, totals, len(cond)


def train_nb(
    training: Sequence[tuple[FeatureVector, str]],
    smoothing: SmoothingParams = SmoothingParams(),
) -> NBModel:
    sense_counts, cond, totals, vocab = _tally(training)
    n = len(training)
    senses = tuple(sorted(sense_counts))
    return NBModel(
        senses=senses,
        priors={s: sense_counts[s] / n for s in senses},
        cond_counts=cond,
        sense_totals={s: totals.get(s, 0) for s in senses},
        vocab_size=vocab,
        fallback=majority_sense([s for v, s in training]),
        smoothing=smoothing,
    )


def _conditional(event: int, condition: int, prior: float, m: float) -> float:
    # m = 0 with an unseen condition has no defined estimate; the probability
    # of any event is then 0 (the sense contributed no features at all).
    if condition == 0 and m == 0:
        return 0.0
    return m_estimate(event, condition, prior, m)


def classify_nb(model: NBModel, vector: FeatureVector) -> Prediction:
    """Argmax over senses of log prior + sum of log smoothed conditionals of
    the vector's *known* features.  A vector with no known feature falls back
    to the training most-frequent sense.  Ties break toward the higher prior,
    then the lexicographically smaller sense.
    """
    active = [key for key in vector if key in model.cond_counts]
    if not active:
        return Prediction(model.fallback, math.log(model.priors[model.fallback]), None, True)
    m = model.smoothing.m
    if model.smoothing.prior_mode == "feature-values":
        prior = 1.0 / max(model.vocab_size, 2)
    else:
        prior = 1.0 / max(len(model.senses), 2)
    best_sense = None
    best = (-math.inf, -math.inf)
    for sense in model.senses:  # sorted; first wins remaining ties
        score = math.log(model.priors[sense])
        total = model.sense_totals[sense]
        for key in active:  # sorted: deterministic summation order
            prob = _conditional(model.cond_counts[key].get(sense, 0), total, prior, m)
            score += math.log(prob) if prob > 0.0 else -math.inf
        ranked = (score, model.priors[sense])
        if best_sense is None or ranked > best:
            best_sense, best = sense, ranked
    return Prediction(best_sense, best[0], None, False)


def feature_strength(
    counts_by_sense: Mapping[str, int],
    senses: Sequence[str],
    m: float,
) -> tuple[str, float]:
    """Predicted sense and strength of one feature.

    The predicted sense maximises the smoothed P(sense | feature) with a
    uniform prior over senses; strength is the natural-log odds of that
    probability against all other senses combined.  With m > 0 and at least
    two senses the strength is finite.
    """
    total = sum(counts_by_sense.values())
    if total < 1:
        raise ValueError("feature must have been observed at least once")
    prior = 1.0 / max(len(senses), 2)
    best_sense = None
    best_prob = -1.0
    for sense in sorted(senses):
        prob = m_estimate(counts_by_sense.get(sense, 0), total, prior, m)
        if prob > best_prob:
            best_sense, best_prob = sense, prob
    if best_prob >= 1.0:
        return best_sense, math.inf
    return best_sense, math.log(best_prob / (1.0 - best_prob))


def train_dl(
    training: Sequence[tuple[FeatureVector, str]],
    smoothing: SmoothingParams = SmoothingParams(),
) -> DLModel:
    sense_counts, cond, _, _ = _tally(training)
    senses = tuple(sorted(sense_counts))
    entries = []
    for key, by_sense in cond.items():
        sense, strength = feature_strength(by_sense, senses, smoothing.m)
        entries.append(DLEntry(key, sense, strength, sum(by_sense.values())))
    entries.sort(key=lambda e: (-e.strength, -e.count, e.key))
    return DLModel(
        senses=senses,
        entries=tuple(entries),
        ranks={entry.key: rank for rank, entry in enumerate(entries)},
        fallback=majority_sense([s for v, s in training]),
        smoothing=smoothing,
    )


def classify_dl(model: DLModel, vector: FeatureVector) -> Prediction:
    """Decide by the highest-ranked entry whose key appears in the vector;
    that key's span is attached as evidence.  No match falls back to the
    training most-frequent sense."""
    ranks = model.ranks
    best_rank = None
    best_key = None
    for key in vector:
        rank = ranks.get(key)
        if rank is not None and (best_rank is None or rank < best_rank):
            best_rank, best_key = rank, key
    if best_rank is None:
        return Prediction(model.fallback, 0.0, None, True)
    entry = model.entries[best_rank]
    return Prediction(entry.sense, entry.strength, vector[best_key], False)

