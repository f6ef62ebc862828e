"""Independent reference implementations the tests check against.

These deliberately avoid the code paths under test: both classifier oracles
recount everything from the training set, Naive Bayes is verified with plain
probability products (no logs), the decision list with a brute-force scan over
the vector's keys, the count tables, NB log scores and DL rules with per-key
training that calls ``m_estimate`` and ``feature_strength`` for every key (the
floats the fast paths must reproduce bit for bit), fold membership by
assigning each occurrence its fold one at a time, occurrence lookup with a
scan of the whole corpus, feature extraction by building the document's full
left and right context before the window is applied, corpus parsing with one
``str.splitlines()`` and fresh strings for every line, and corpus rendering by
joining a list of every line, the statistics and evidence reports with the
report classes and helpers they were first built from, the five grid reducers
(ablation, selection, shift, adjacency, context) with the grouping loop each
was first written with, and a whole grid run's ``grid.csv`` rows and decisions
with a fold loop that recounts every fold from scratch out of the pieces
above. Last, ``result_of_precision`` builds a ``WordResult`` whose precision
is a given float, for the reducers' tests.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

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
from wsdlab.analysis import ANCHORED_COMBINATION, PLAIN_BIGRAM
from wsdlab.criteria import (
    CONTENT_MODES,
    CONTENT_TAGS,
    SELECTED_TAGS,
    Criterion,
    cell_name,
    family_name,
    format_criterion,
)
from wsdlab.evaluation import WordResult


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


def dl_scan_oracle(training, smoothing, vector) -> tuple[str, bool, str | None]:
    """Recount every key of the vector in the training set, take the one with
    the greatest (strength, count, key-asc) rank by a scan, and return its
    (sense, used_fallback, key); the fallback has no key.
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
    return sense, False, key


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


def kfold_assignment(occurrences, k, seed):
    """Each occurrence's fold, by the stratified split that ``kfold_split``
    deals into folds: each sense group, in sorted sense order, is shuffled
    and its occurrences are assigned round-robin one at a time, the starting
    fold rotating between groups."""
    groups = {}
    for position, occ in enumerate(occurrences):
        groups.setdefault(occ.sense, []).append(position)
    rng = random.Random(seed)
    assignment = [0] * len(occurrences)
    offset = 0
    for sense in sorted(groups):
        positions = groups[sense][:]
        rng.shuffle(positions)
        for j, position in enumerate(positions):
            assignment[position] = (offset + j) % k
        offset = (offset + len(positions)) % k
    return tuple(assignment)


def occurrences_scan(corpus, lemma, category):
    """Every sense-tagged token of ``lemma``, by scanning every document."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    found = []
    for doc in corpus.documents:
        for index, tok in enumerate(doc.tokens):
            if tok.lemma == lemma and tok.sense is not None:
                found.append(Occurrence(doc.id, index, lemma, category, tok.sense, doc.tokens))
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
    (tokens,) = [doc.tokens for doc in corpus.documents if doc.id == occurrence.document_id]
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


# --- a whole grid run -----------------------------------------------------------

def cell_features_full_context(corpus, occurrence, cell, *, content_mode="reindex"):
    """The vector of a cell from ``features_full_context``: a one-criterion
    cell's own, several criteria's with every key prefixed by its criterion
    and ``::``, keys ascending."""
    vectors = [features_full_context(corpus, occurrence, criterion, content_mode=content_mode)
               for criterion in cell]
    if len(cell) == 1:
        return vectors[0]
    return dict(sorted((f"{criterion}::{key}", span)
                       for criterion, vector in zip(cell, vectors)
                       for key, span in vector.items()))


@dataclass(frozen=True)
class Decision:
    """One held-out decision: whether it was right, whether the fallback
    made it, and the span of the key that decided (None without one)."""

    correct: bool
    used_fallback: bool
    evidence: tuple | None


@dataclass(frozen=True)
class Outcome:
    """One (word, cell)'s decisions, in occurrence order."""

    lemma: str
    category: str
    cell: tuple
    classifier: str
    records: tuple[Decision, ...]

    @property
    def correct(self) -> frozenset[int]:
        """The indices of the occurrences decided right."""
        return frozenset(i for i, record in enumerate(self.records) if record.correct)

    @property
    def fallback(self) -> frozenset[int]:
        """The indices of the occurrences the fallback decided."""
        return frozenset(i for i, record in enumerate(self.records) if record.used_fallback)


def grid_rows_oracle(corpus, targets, cells, classifier, smoothing, k, seed, *,
                     content_mode="reindex"):
    """``grid.csv``'s rows, header first, and the ``Outcome`` of each row.
    Words with fewer than ``k`` occurrences are left out.  Each fold's
    training set is picked by a scan of ``kfold_assignment`` and recounted
    from scratch for every decision: NB by the per-key references, the
    decision list by the brute-force scan, whose key is looked up in the
    occurrence's vector for the decision's evidence."""
    rows = [("word", "category", "criterion", "size", "classifier", "precision",
             "fold_precisions")]
    outcomes = []
    for lemma, category in sorted(targets):
        occurrences = occurrences_scan(corpus, lemma, category)
        if len(occurrences) < k:
            continue
        assignment = kfold_assignment(occurrences, k, seed)
        for cell in cells:
            vectors = [cell_features_full_context(corpus, occ, cell, content_mode=content_mode)
                       for occ in occurrences]
            records = {}
            fold_precisions = []
            for fold in range(k):
                training = [(vector, occ.sense)
                            for vector, occ, f in zip(vectors, occurrences, assignment)
                            if f != fold]
                model = train_nb_per_key(training, smoothing) if classifier == "nb" else None
                correct = 0
                held_out = [i for i, f in enumerate(assignment) if f == fold]
                for i in held_out:
                    if classifier == "nb":
                        sense, _, key, fallback = classify_nb_per_key(model, vectors[i])
                    else:
                        sense, fallback, key = dl_scan_oracle(training, smoothing, vectors[i])
                    evidence = None if key is None else vectors[i][key]
                    records[i] = Decision(sense == occurrences[i].sense, fallback, evidence)
                    correct += sense == occurrences[i].sense
                fold_precisions.append(correct / len(held_out))
            outcome = Outcome(lemma, category, tuple(cell), classifier,
                              tuple(records[i] for i in range(len(occurrences))))
            outcomes.append(outcome)
            rows.append((lemma, category, "+".join(map(str, cell)), max(c.size for c in cell),
                         classifier, f"{len(outcome.correct) / len(occurrences):.6f}",
                         ";".join(f"{p:.6f}" for p in fold_precisions)))
    return rows, outcomes


# --- statistics and evidence reports -------------------------------------------
#
# The classes and helpers the stats and evidence reports were built from, and
# the rows they gave: stats_rows and evidence_reports must reproduce them.

def sense_distribution(occurrences: Sequence[Occurrence]) -> dict[str, float]:
    """Relative frequency of each sense; fractions sum to 1."""
    if not occurrences:
        raise ValueError("cannot compute a sense distribution of zero occurrences")
    counts = Counter(occ.sense for occ in occurrences)
    total = len(occurrences)
    return {sense: counts[sense] / total for sense in sorted(counts)}


def sense_entropy(distribution: dict[str, float]) -> float:
    """Shannon entropy of a sense distribution, in bits."""
    total = sum(distribution.values())
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ValueError(f"distribution sums to {total}, not 1")
    entropy = 0.0
    for p in distribution.values():
        if p < 0.0 or p > 1.0:
            raise ValueError(f"fraction {p} outside [0, 1]")
        if p > 0.0:
            entropy -= p * math.log2(p)
    return entropy


def mfs_baseline(occurrences: Sequence[Occurrence]) -> float:
    """Fraction held by the most frequent sense (the no-context baseline)."""
    if not occurrences:
        raise ValueError("cannot compute an MFS baseline of zero occurrences")
    counts = Counter(occ.sense for occ in occurrences)
    return max(counts.values()) / len(occurrences)


@dataclass(frozen=True)
class WordStats:
    """Per-target frequency, sense count, sense entropy and MFS baseline."""

    lemma: str
    category: str
    frequency: int
    senses: int
    entropy: float | None
    mfs: float | None


@dataclass(frozen=True)
class CategoryAverage:
    """Unweighted means of WordStats columns over one category's words."""

    category: str
    words: int
    frequency: float
    senses: float
    entropy: float
    mfs: float


def word_stats(corpus, targets) -> list[WordStats]:
    """Frequency, sense count, entropy and MFS baseline for each target;
    a target with no occurrences has frequency 0 and null entropy/mfs."""
    stats = []
    for lemma, category in targets:
        occurrences = occurrences_scan(corpus, lemma, category)
        if not occurrences:
            stats.append(WordStats(lemma, category, 0, 0, None, None))
            continue
        distribution = sense_distribution(occurrences)
        stats.append(WordStats(lemma, category, len(occurrences), len(distribution),
                               sense_entropy(distribution), mfs_baseline(occurrences)))
    return stats


def category_averages(stats: Sequence[WordStats]) -> dict[str, CategoryAverage]:
    """Unweighted per-category means over words with at least one occurrence."""
    groups: dict[str, list[WordStats]] = {}
    for row in stats:
        if row.frequency > 0:
            groups.setdefault(row.category, []).append(row)
    averages = {}
    for category in CATEGORIES:
        rows = groups.get(category)
        if not rows:
            continue
        n = len(rows)
        averages[category] = CategoryAverage(
            category,
            n,
            sum(r.frequency for r in rows) / n,
            sum(r.senses for r in rows) / n,
            sum(r.entropy for r in rows) / n,
            sum(r.mfs for r in rows) / n,
        )
    return averages


def stats_rows_reference(corpus, targets) -> list[tuple]:
    """``stats.csv`` rows from word_stats and category_averages."""
    def stat(value):
        return "" if value is None else f"{value:.6f}"

    stats = word_stats(corpus, targets)
    return [("word", "category", "frequency", "senses", "entropy", "mfs")] + [
        (row.lemma, row.category, row.frequency, row.senses, stat(row.entropy), stat(row.mfs))
        for row in stats
    ] + [
        ("AVERAGE", category, f"{avg.frequency:.1f}", f"{avg.senses:.1f}",
         f"{avg.entropy:.6f}", f"{avg.mfs:.6f}")
        for category, avg in category_averages(stats).items()
    ]


@dataclass(frozen=True)
class EvidenceProfile:
    """Counts of decision-list decisions attributed to the coarse tag and
    window offset of their deciding evidence token."""

    total: int
    fallback_uses: int
    fallback_correct: int
    tag_uses: dict[str, int]
    tag_correct: dict[str, int]
    offset_uses: dict[tuple[str, int], int]
    offset_correct: dict[tuple[str, int], int]

    @property
    def decided(self) -> int:
        return self.total - self.fallback_uses

    def precision_pct(self, tag: str) -> float:
        return 100.0 * self.tag_correct.get(tag, 0) / self.tag_uses[tag]

    def usage_pct(self, tag: str) -> float:
        return 100.0 * self.tag_uses[tag] / self.decided

    @property
    def overall_precision(self) -> float:
        """Precision over all records, fallback decisions included; must
        reproduce the WordResult precision the records came from."""
        correct = sum(self.tag_correct.values()) + self.fallback_correct
        return correct / self.total


def evidence_profile(records) -> EvidenceProfile:
    """Attribute each non-fallback decision to its evidence token.

    Requires decision-list records with single-token (unigram) evidence:
    multi-token evidence has no single part-of-speech to credit.
    """
    tag_uses: dict[str, int] = {}
    tag_correct: dict[str, int] = {}
    offset_uses: dict[tuple[str, int], int] = {}
    offset_correct: dict[tuple[str, int], int] = {}
    fallback_uses = 0
    fallback_correct = 0
    for record in records:
        if record.used_fallback:
            fallback_uses += 1
            fallback_correct += record.correct
            continue
        if record.evidence is None:
            raise ValueError(
                "record lacks evidence: evidence profiles need decision-list runs"
            )
        offsets, cgems = record.evidence
        if len(offsets) != 1:
            raise ValueError("evidence profiles need unigram criteria (single-token evidence)")
        tag = cgems[0]
        offset = offsets[0]
        tag_uses[tag] = tag_uses.get(tag, 0) + 1
        tag_correct[tag] = tag_correct.get(tag, 0) + record.correct
        offset_uses[(tag, offset)] = offset_uses.get((tag, offset), 0) + 1
        offset_correct[(tag, offset)] = offset_correct.get((tag, offset), 0) + record.correct
    return EvidenceProfile(
        total=len(records),
        fallback_uses=fallback_uses,
        fallback_correct=fallback_correct,
        tag_uses=tag_uses,
        tag_correct=tag_correct,
        offset_uses=offset_uses,
        offset_correct=offset_correct,
    )


def space_distribution_summary(profile: EvidenceProfile) -> dict[str, tuple[int, ...]]:
    """Per tag, the two offsets carrying the most decisions, usage ties going
    to the offset closer to the target."""
    summary: dict[str, tuple[int, ...]] = {}
    for tag in sorted(profile.tag_uses):
        offsets = [o for (t, o) in profile.offset_uses if t == tag]
        offsets.sort(key=lambda o: (-profile.offset_uses[(tag, o)], abs(o), o))
        summary[tag] = tuple(offsets[:2])
    return summary


def _category_order(category):
    try:
        return (CATEGORIES.index(category), category)
    except ValueError:
        return (len(CATEGORIES), category)


def evidence_reports_reference(outcomes) -> dict[str, list[tuple]]:
    """The three evidence reports from one evidence_profile per category,
    over the decisions of ``Outcome``s."""
    records = {}
    for outcome in outcomes:
        records.setdefault(outcome.category, []).extend(outcome.records)
    profile_rows = [("category", "tag", "uses", "correct", "precision_pct", "usage_pct")]
    space_rows = [("category", "tag", "offset", "uses", "correct")]
    summary_rows = [("category", "tag", "offsets")]
    for category in sorted(records, key=_category_order):
        profile = evidence_profile(records[category])
        for tag in sorted(profile.tag_uses, key=lambda t: (-profile.tag_uses[t], t)):
            profile_rows.append(
                (category, tag, profile.tag_uses[tag], profile.tag_correct.get(tag, 0),
                 f"{profile.precision_pct(tag):.1f}", f"{profile.usage_pct(tag):.1f}")
            )
        for tag, offset in sorted(profile.offset_uses):
            space_rows.append((category, tag, offset, profile.offset_uses[(tag, offset)],
                               profile.offset_correct.get((tag, offset), 0)))
        for tag, offsets in space_distribution_summary(profile).items():
            summary_rows.append((category, tag, ";".join(f"{o:+d}" for o in offsets)))
    return {
        "evidence_profile.csv": profile_rows,
        "evidence_space.csv": space_rows,
        "evidence_summary.csv": summary_rows,
    }


# --- grid reducers, as first written: one grouping loop each --------------------

def _by_criterion(grid_result) -> dict[str, list[WordResult]]:
    """Results per criterion name, in grid order, each list word-ascending."""
    grouped: dict[str, list[WordResult]] = {}
    for result in grid_result.results:
        grouped.setdefault(result.criterion, []).append(result)
    return grouped


def _macro_average(results: Sequence[WordResult]) -> dict[str, float]:
    """Unweighted mean of per-word precisions, grouped by category."""
    if not results:
        raise ValueError("cannot average zero results")
    groups: dict[str, list[float]] = {}
    for result in results:
        groups.setdefault(result.category, []).append(result.precision)
    return {category: sum(vals) / len(vals) for category, vals in sorted(groups.items())}


def _mean(results: Sequence[WordResult]) -> float:
    return sum(result.precision for result in results) / len(results)


def _word_counts(results: Sequence[WordResult]) -> dict[str, int]:
    return dict(Counter(result.category for result in results))


def _by_category(item):
    category, *rest = item[0]
    return (_category_order(category), *rest)


def content_ablation_reference(grid_result) -> list[tuple]:
    indexed: dict[tuple[str, str, Criterion], dict[str, float]] = {}
    for result in grid_result.results:
        (criterion,) = result.cell
        key = (result.lemma, result.category, replace(criterion, filter="all"))
        indexed.setdefault(key, {})[criterion.filter] = result.precision

    missing = []
    diffs: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for (lemma, category, criterion), by_filter in sorted(indexed.items()):
        pair = [by_filter[name] for name in ("all", "content") if name in by_filter]
        if not pair:
            continue
        if len(pair) == 1:
            missing.append(f"{lemma} ({category}) {format_criterion(criterion)}")
            continue
        diffs.setdefault((category, criterion.order), []).append(tuple(pair))
    if missing:
        shown = ", ".join(missing[:5])
        raise ValueError(
            f"{len(missing)} criterion pair(s) missing a all/content partner: {shown}"
        )
    if not diffs:
        raise ValueError("grid contains no matched filter pairs")

    rows = [("category", "order", "pairs", "baseline_mean", "variant_mean",
             "decrease_points", "decrease_relative_pct")]
    for (category, order), pairs in sorted(diffs.items(), key=_by_category):
        baseline = sum(b for b, _ in pairs) / len(pairs)
        variant = sum(v for _, v in pairs) / len(pairs)
        decrease = 100.0 * (baseline - variant)
        rows.append((category, order, len(pairs), f"{baseline:.6f}", f"{variant:.6f}",
                     f"{decrease:.3f}", f"{decrease / baseline:.3f}" if baseline else ""))
    return rows


def selection_comparison_reference(grid_result) -> list[tuple]:
    rows = [("criterion", "category", "words", "precision")]
    for criterion, results in _by_criterion(grid_result).items():
        precision = _macro_average(results)
        words = _word_counts(results)
        for category in sorted(precision, key=_category_order):
            rows.append((criterion, category, words[category], f"{precision[category]:.6f}"))
    return rows


def shift_study_reference(grid_result) -> list[tuple]:
    by_shift = {}
    for results in _by_criterion(grid_result).values():
        precision = _macro_average(results)
        precision["all"] = _mean(results)
        words = _word_counts(results)
        words["all"] = len(results)
        (criterion,) = results[0].cell
        by_shift[criterion.shift] = (precision, words)
    zero, _ = by_shift[0]
    rows = [("shift", "category", "words", "precision", "delta_vs_zero")]
    for shift, (precision, words) in by_shift.items():
        for category in sorted(precision, key=_category_order):
            rows.append((shift, category, words[category], f"{precision[category]:.6f}",
                         f"{precision[category] - zero[category]:.6f}"))
    return rows


def adjacency_experiment_reference(grid_result) -> list[tuple]:
    by_criterion = _by_criterion(grid_result)
    combined = _mean(by_criterion[cell_name(ANCHORED_COMBINATION)])
    plain = _mean(by_criterion[cell_name((PLAIN_BIGRAM,))])
    return [("anchored_combination", "plain_bigram", "delta"),
            (f"{combined:.6f}", f"{plain:.6f}", f"{plain - combined:.6f}")]


def context_report_reference(grid_result) -> dict[str, list[tuple]]:
    by_family: dict[tuple[str, str, Criterion], dict[int, float]] = {}
    for result in grid_result.results:
        (criterion,) = result.cell
        family = (result.lemma, result.category, replace(criterion, size=1))
        by_family.setdefault(family, {})[criterion.size] = result.precision

    optima: dict[tuple[str, int], list[int]] = {}
    curve_points: dict[tuple[str, str, int], list[float]] = {}
    for (_, category, family), by_size in sorted(by_family.items()):
        best_size = min(
            by_size, key=lambda size: (-by_size[size], size)
        )
        optima.setdefault((category, family.order), []).append(best_size)
        name = family_name(family)
        for size, precision in by_size.items():
            curve_points.setdefault((category, name, size), []).append(precision)

    return {
        "context.csv": [("category", "order", "cells", "avg_optimal_size")] + [
            (category, order, len(sizes), f"{sum(sizes) / len(sizes):.3f}")
            for (category, order), sizes in sorted(optima.items(), key=_by_category)
        ],
        "context_curves.csv": [("category", "family", "size", "words", "precision")] + [
            (category, family, size, len(values), f"{sum(values) / len(values):.6f}")
            for (category, family, size), values in sorted(curve_points.items(),
                                                           key=_by_category)
        ],
    }


# --- results of a given precision ------------------------------------------------

def result_of_precision(lemma, category, cell, precision, decisions=1000):
    """A ``WordResult`` whose precision is exactly ``precision``: the first
    ``round(precision * decisions)`` of its ``decisions`` are right."""
    right = round(precision * decisions)
    assert right / decisions == precision, precision
    return WordResult(lemma, category, cell, decisions, (1 << right) - 1, 0)
