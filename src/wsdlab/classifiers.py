"""Naive Bayes and decision-list classifiers over feature vectors.

A classifier reads only a vector's feature keys: any collection of keys in
ascending order, such as the key tuple that extraction returns.  Both
classifiers smooth their probability estimates with the m-estimate
``(n_c + m*p) / (n + m)``, which blends an observed frequency with a prior
``p`` at strength ``m``.  Naive Bayes combines the evidence of every known
feature in the vector; the decision list holds one rule per feature and
decides by the single strongest feature present (strength is the log-odds
that a feature indicates its majority sense), and names that key; evaluation
asks ``criteria.feature_span`` for its span only when it keeps records.  Both
fall back to the training most-frequent sense when no known feature is
available, so every input is tagged and precision equals recall.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Mapping, NamedTuple, Sequence

# A feature vector as a classifier reads it: its keys, ascending (the tuple
# that extraction returns), so that every sum over them runs in one order.
Keys = Collection[str]

PRIOR_MODES = ("feature-values", "senses")


@dataclass(frozen=True)
class SmoothingParams:
    """m-estimate strength and the prior used for NB feature conditionals:
    uniform over the training feature vocabulary (``feature-values``) or
    uniform over the sense inventory (``senses``)."""

    m: float = 1.0
    prior_mode: str = "feature-values"

    def __post_init__(self) -> None:
        problems = [problem for bad, problem in (
            (not math.isfinite(self.m), "smoothing strength m must be finite"),
            (math.isfinite(self.m) and self.m < 0, "smoothing strength m must be >= 0"),
            (self.prior_mode not in PRIOR_MODES, f"prior_mode must be one of {PRIOR_MODES}"),
        ) if bad]
        if problems:
            raise ValueError("\n".join(problems))


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


class Prediction(NamedTuple):
    """A decision: the sense, its score, the deciding key (a decision-list
    rule's key; None for Naive Bayes and on a fallback) and whether the
    most-frequent-sense fallback decided."""

    sense: str
    score: float
    key: str | None
    used_fallback: bool


@dataclass(frozen=True)
class NBModel:
    """Trained Naive Bayes state: per sense, in sorted sense order, its log
    prior and a table from each presence count a known feature can have for
    that sense (0 included) to the log of its smoothed conditional; and the
    per-(feature, sense) presence counts."""

    senses: dict[str, tuple[float, dict[int, float]]]
    cond_counts: dict[str, dict[str, int]]
    fallback: str


@dataclass(frozen=True)
class DLModel:
    """Decision list: one rule ``(-strength, -count, key, sense)`` per
    training key, so the smallest rule present is the strongest, then the
    most frequent, then the lowest key; and the most-frequent-sense
    fallback."""

    rules: dict[str, tuple[float, int, str, str]]
    fallback: str


def majority_sense(sense_counts: Mapping[str, int]) -> str:
    """Most frequent sense of a sense -> count tally, ties broken by
    lexicographic order."""
    if not sense_counts:
        raise ValueError("cannot take the majority of zero senses")
    return min(sense_counts, key=lambda s: (-sense_counts[s], s))


def _tally(
    training: Sequence[tuple[Keys, str]],
) -> tuple[dict[str, int], dict[str, dict[str, int]], dict[str, Counter]]:
    """Shared count tables: sense counts, per-key per-sense presence counts
    (each key's senses in sorted order), and per sense its key -> presence
    count tally, whose values sum to the sense's feature total."""
    if not training:
        raise ValueError("training set is empty")
    vectors_by_sense: dict[str, list[Keys]] = {}
    for vector, sense in training:
        vectors_by_sense.setdefault(sense, []).append(vector)
    cond: dict[str, dict[str, int]] = {}
    per_sense: dict[str, Counter] = {}
    for sense in sorted(vectors_by_sense):
        # A vector's keys are unique, so counting them counts presences.
        tally = per_sense[sense] = Counter(chain.from_iterable(vectors_by_sense[sense]))
        for key, count in tally.items():
            by_sense = cond.get(key)
            if by_sense is None:
                cond[key] = {sense: count}
            else:
                by_sense[sense] = count
    sense_counts = {sense: len(vectors) for sense, vectors in vectors_by_sense.items()}
    return sense_counts, cond, per_sense


def train_nb(
    training: Sequence[tuple[Keys, str]],
    smoothing: SmoothingParams = SmoothingParams(),
) -> NBModel:
    sense_counts, cond, per_sense = _tally(training)
    n = len(training)
    senses = sorted(sense_counts)
    uniform_over = len(cond) if smoothing.prior_mode == "feature-values" else len(senses)
    prior = 1.0 / max(uniform_over, 2)
    rows = {}
    for sense in senses:
        tally = per_sense[sense]
        total = sum(tally.values())
        rows[sense] = math.log(sense_counts[sense] / n), {
            count: _log_conditional(count, total, prior, smoothing.m)
            for count in {0, *tally.values()}
        }
    return NBModel(senses=rows, cond_counts=cond, fallback=majority_sense(sense_counts))


def _log_conditional(event: int, condition: int, prior: float, m: float) -> float:
    # m = 0 with an unseen condition has no defined estimate; the probability
    # of any event is then 0 (the sense contributed no features at all).
    if condition == 0 and m == 0:
        return -math.inf
    prob = m_estimate(event, condition, prior, m)
    return math.log(prob) if prob > 0.0 else -math.inf


def classify_nb(model: NBModel, vector: Keys) -> Prediction:
    """Argmax over senses of log prior + sum of log smoothed conditionals of
    the vector's *known* features.  A vector with no known feature falls back
    to the training most-frequent sense.  Ties break toward the higher prior
    (ranked by its log, which orders priors alike), then the lexicographically
    smaller sense.
    """
    cond_counts = model.cond_counts
    active = [cond_counts[key] for key in vector if key in cond_counts]
    if not active:
        return Prediction(model.fallback, model.senses[model.fallback][0], None, True)
    best_sense = None
    best = (-math.inf, -math.inf)
    for sense, (log_prior, table) in model.senses.items():  # sorted; first wins ties
        score = log_prior
        for by_sense in active:  # sorted keys: deterministic summation order
            score += table[by_sense.get(sense, 0)]
        ranked = (score, log_prior)
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
    training: Sequence[tuple[Keys, str]],
    smoothing: SmoothingParams = SmoothingParams(),
) -> DLModel:
    sense_counts, cond, _ = _tally(training)
    senses = tuple(sorted(sense_counts))
    # A key's rule depends only on its per-sense counts: keys that share
    # them share one feature_strength call.
    shared: dict[tuple, tuple[float, int, str]] = {}
    rules = {}
    for key, by_sense in cond.items():
        counts = tuple(by_sense.items())
        rule = shared.get(counts)
        if rule is None:
            sense, strength = feature_strength(by_sense, senses, smoothing.m)
            rule = shared[counts] = (-strength, -sum(by_sense.values()), sense)
        rules[key] = (rule[0], rule[1], key, rule[2])
    return DLModel(rules=rules, fallback=majority_sense(sense_counts))


def classify_dl(model: DLModel, vector: Keys) -> Prediction:
    """Decide by the strongest rule whose key appears in the vector, and name
    that key.  No match falls back to the training most-frequent sense."""
    rules = model.rules
    matched = [rules[key] for key in vector if key in rules]
    if not matched:
        return Prediction(model.fallback, 0.0, None, True)
    neg_strength, _, key, sense = min(matched)
    return Prediction(sense, -neg_strength, key, False)
