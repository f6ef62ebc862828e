"""Independent reference implementations the tests check against.

These deliberately avoid the code paths under test: both classifier oracles
recount everything from the training set, Naive Bayes is verified with plain
probability products (no logs), the decision list with a brute-force scan
over the vector's keys, the count tables, NB log scores and DL rules with
per-key training that calls ``m_estimate`` and ``feature_strength`` for every
key (the floats the fast paths must reproduce bit for bit), fold membership
with a scan of the assignment per fold, occurrence lookup with a scan of the
whole corpus, feature extraction by building the document's full left
and right context before the window is applied, corpus parsing with one
``str.splitlines()`` and fresh strings for every line, and corpus rendering
by joining a list of every line.
"""

from __future__ import annotations

import math
from collections import Counter

from wsdlab.classifiers import Prediction, feature_strength, majority_sense, m_estimate
from wsdlab.corpus import (
    CATEGORIES,
    IMPLICIT_DOC_ID,
    TOKEN_FIELDS,
    Corpus,
    CorpusParseError,
    Document,
    Occurrence,
    Token,
)
from wsdlab.criteria import CONTENT_MODES, CONTENT_TAGS, SELECTED_TAGS


def smoothed(event: int, condition: int, prior: float, m: float) -> float:
    if condition == 0 and m == 0:
        return 0.0
    return (event + m * prior) / (condition + m)


def _senses_and_fallback(training):
    """The sorted training senses and the most frequent one (ties to the
    lexicographically smaller)."""
    senses = sorted({sense for _, sense in training})
    counts = [sum(1 for _, s in training if s == sense) for sense in senses]
    return senses, senses[counts.index(max(counts))]


def nb_posterior_oracle(training, smoothing, vector) -> tuple[str, bool]:
    """Exhaustive posterior computation from the training set: products over
    active features per sense, same prior convention and tie-breaks as the
    classifier contract.  Returns (sense, used_fallback)."""
    senses, fallback = _senses_and_fallback(training)
    vocabulary = {key for features, _ in training for key in features}
    active = sorted(key for key in vector if key in vocabulary)
    if not active:
        return fallback, True
    uniform_over = vocabulary if smoothing.prior_mode == "feature-values" else senses
    prior = 1.0 / max(len(uniform_over), 2)
    best_sense = None
    best_key = None
    for sense in senses:
        instances = [features for features, s in training if s == sense]
        sense_prior = len(instances) / len(training)
        total = sum(len(features) for features in instances)
        posterior = sense_prior
        for key in active:
            present = sum(1 for features in instances if key in features)
            posterior *= smoothed(present, total, prior, smoothing.m)
        log_posterior = math.log(posterior) if posterior > 0.0 else -math.inf
        key_tuple = (log_posterior, sense_prior)
        if best_key is None or key_tuple > best_key:
            best_sense, best_key = sense, key_tuple
    return best_sense, False


def dl_scan_oracle(training, smoothing, vector) -> tuple[str, bool, object]:
    """Recount every key of the vector in the training set, take the one with
    the greatest (strength, count, key-asc) rank by a scan, and return its
    (sense, used_fallback, evidence span); the fallback has no evidence.
    Strength is the log-odds of the most probable sense (the first in sorted
    order on ties) under a uniform sense prior."""
    senses, fallback = _senses_and_fallback(training)
    prior = 1.0 / max(len(senses), 2)
    best = None
    for key in vector:
        counts = [
            sum(1 for features, s in training if s == sense and key in features)
            for sense in senses
        ]
        count = sum(counts)
        if not count:
            continue
        probs = [smoothed(c, count, prior, smoothing.m) for c in counts]
        top = max(probs)
        strength = math.inf if top >= 1.0 else math.log(top / (1.0 - top))
        rank = (-strength, -count, key)
        if best is None or rank < best[0]:
            best = (rank, senses[probs.index(top)])
    if best is None:
        return fallback, True, None
    (_, _, key), sense = best
    return sense, False, vector[key]


def tally_per_key(training):
    """Sense counts, per-key per-sense presence counts and per-sense feature
    totals, counted one key of one vector at a time."""
    if not training:
        raise ValueError("training set is empty")
    sense_counts = Counter()
    cond = {}
    totals = Counter()
    for vector, sense in training:
        sense_counts[sense] += 1
        for key in vector:
            by_sense = cond.setdefault(key, {})
            by_sense[sense] = by_sense.get(sense, 0) + 1
            totals[sense] += 1
    return sense_counts, cond, totals


def train_nb_per_key(training, smoothing):
    """Naive Bayes state for ``classify_nb_per_key``: sorted senses, priors,
    presence counts, feature totals, the conditional prior and ``m``."""
    sense_counts, cond, totals = tally_per_key(training)
    senses = tuple(sorted(sense_counts))
    uniform_over = len(cond) if smoothing.prior_mode == "feature-values" else len(senses)
    return {
        "senses": senses,
        "priors": {s: sense_counts[s] / len(training) for s in senses},
        "cond_counts": cond,
        "sense_totals": {s: totals.get(s, 0) for s in senses},
        "cond_prior": 1.0 / max(uniform_over, 2),
        "m": smoothing.m,
        "fallback": majority_sense(sense_counts),
    }


def classify_nb_per_key(model, vector):
    """The NB decision with one ``m_estimate`` call per (sense, active key),
    summed in the vector's key order."""
    active = [key for key in vector if key in model["cond_counts"]]
    priors = model["priors"]
    if not active:
        return Prediction(model["fallback"], math.log(priors[model["fallback"]]), None, True)
    best_sense = None
    best = (-math.inf, -math.inf)
    for sense in model["senses"]:
        score = math.log(priors[sense])
        total = model["sense_totals"][sense]
        for key in active:
            count = model["cond_counts"][key].get(sense, 0)
            if total == 0 and model["m"] == 0:
                prob = 0.0
            else:
                prob = m_estimate(count, total, model["cond_prior"], model["m"])
            score += math.log(prob) if prob > 0.0 else -math.inf
        ranked = (score, priors[sense])
        if best_sense is None or ranked > best:
            best_sense, best = sense, ranked
    return Prediction(best_sense, best[0], None, False)


def dl_rules_per_key(training, smoothing):
    """Decision-list rules ``{key: (-strength, -count, key, sense)}`` with
    one ``feature_strength`` call per key, and the fallback."""
    sense_counts, cond, _ = tally_per_key(training)
    senses = tuple(sorted(sense_counts))
    rules = {}
    for key, by_sense in cond.items():
        sense, strength = feature_strength(by_sense, senses, smoothing.m)
        rules[key] = (-strength, -sum(by_sense.values()), key, sense)
    return rules, majority_sense(sense_counts)


def held_out_scan(plan):
    """Each fold's occurrence indices, by one scan of the assignment per fold."""
    return tuple(
        tuple(i for i, f in enumerate(plan.assignment) if f == fold) for fold in range(plan.k)
    )


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


def parse_corpus_plain(text):
    """The vertical format parsed line by line: the text is split by one
    ``splitlines()``, every line is split afresh and makes its own Token."""
    lines = text.splitlines()
    documents = []
    seen_ids = set()
    current_id = None
    current_tokens = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#doc "):
            if current_id is not None:
                documents.append(Document(current_id, tuple(current_tokens)))
            current_id = line[len("#doc "):]
            if current_id in seen_ids:
                raise CorpusParseError(number, f"duplicate document id {current_id!r}")
            seen_ids.add(current_id)
            current_tokens = []
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise CorpusParseError(
                number, f"expected 5 tab-separated columns, got {len(fields)}"
            )
        for position, name in enumerate(TOKEN_FIELDS):
            if not fields[position]:
                raise CorpusParseError(
                    number, f"empty {name} field (column {position + 1})"
                )
        if current_id is None:
            current_id = IMPLICIT_DOC_ID
            seen_ids.add(current_id)
        current_tokens.append(Token(*fields[:4], fields[4] or None))
    if current_id is not None:
        documents.append(Document(current_id, tuple(current_tokens)))
    return Corpus(tuple(documents))


def serialize_corpus_lines(corpus):
    """The vertical format from a list of every line, joined by newlines."""
    lines = []
    for doc in corpus.documents:
        lines.append(f"#doc {doc.id}")
        for tok in doc.tokens:
            lines.append(
                "\t".join((tok.mform, tok.lemma, tok.ems, tok.cgems, tok.sense or ""))
            )
    return "\n".join(lines) + ("\n" if lines else "")


def span_key(criterion, span):
    """A feature key from the grammar: the span's tag values joined by '_'
    (each value with '\\' and '_' backslash-escaped), prefixed by the offset
    of its first token when ordered, by the side of the target (L or R) when
    left/right, or by 'A' and that offset when left/right and anchored."""
    values = "_".join(
        "".join("\\" + ch if ch in "\\_" else ch for ch in value) for _, value in span
    )
    first = min(offset for offset, _ in span)
    prefix = {
        "ordered": f"{first}:",
        "leftright": f"A{first}:" if criterion.anchored else ("R:" if first > 0 else "L:"),
        "unordered": "",
    }[criterion.positioning]
    return prefix + values


def ngrams(window, order):
    """Every ``order`` entries of an offset-sorted window whose offsets are
    consecutive integers."""
    return [
        window[start:start + order]
        for start in range(len(window) - order + 1)
        if all(window[start + j][0] == window[start][0] + j for j in range(order))
    ]


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

    if criterion.anchored:
        spans = [
            span for span in ngrams(sorted(window + [(0, tokens[index])]), criterion.order)
            if any(o == 0 for o, _ in span)
        ]
    else:
        spans = ngrams(window, criterion.order)
    features = {}
    for span in spans:  # in emission order: the first span of a key is kept
        features.setdefault(
            span_key(criterion, [(o, getattr(t, criterion.tag)) for o, t in span]),
            (tuple(o for o, _ in span), tuple(t.cgems for _, t in span)),
        )
    return dict(sorted(features.items()))
