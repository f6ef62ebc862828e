import io
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdlab import (
    Corpus,
    CriterionGrid,
    Document,
    PseudowordConfig,
    Token,
    cross_validate,
    extract_occurrences,
    generate_pseudoword_corpus,
    grid_search,
    kfold_split,
    macro_average,
    mfs_baseline,
    parse_corpus,
    parse_criterion,
    write_grid_csv,
)
from wsdlab.evaluation import GRID_CSV_HEADER, WordResult, worker_count


def make_occurrences(senses):
    corpus = parse_corpus("\n".join(f"w\tw\tA\tB\t{s}" for s in senses))
    return corpus, extract_occurrences(corpus, "w", "noun")


def signal_corpus(counts=(200, 200), seed=11, **kwargs):
    config = PseudowordConfig(
        sources=("banane", "porte"), counts=counts, signal_offsets=(-1,), **kwargs
    )
    corpus = generate_pseudoword_corpus(config, seed)
    occurrences = extract_occurrences(corpus, config.target_lemma, config.category)
    return corpus, occurrences


# --- fold plans -----------------------------------------------------------------

def test_kfold_partitions_evenly():
    _, occurrences = make_occurrences(["a"] * 50 + ["b"] * 50)
    plan = kfold_split(occurrences, 10, 3)
    sizes = Counter(plan.assignment)
    assert sorted(sizes) == list(range(10))
    assert all(size == 10 for size in sizes.values())


def test_kfold_stratifies_senses():
    _, occurrences = make_occurrences(["a"] * 140 + ["b"] * 60)
    plan = kfold_split(occurrences, 10, 0)
    per_fold = {f: Counter() for f in range(10)}
    for occ, fold in zip(plan.occurrences, plan.assignment):
        per_fold[fold][occ.sense] += 1
    assert all(c == Counter({"a": 14, "b": 6}) for c in per_fold.values())


def test_kfold_deterministic_and_seed_sensitive():
    _, occurrences = make_occurrences(["a", "b"] * 30)
    assert kfold_split(occurrences, 5, 7) == kfold_split(occurrences, 5, 7)
    assert kfold_split(occurrences, 5, 7) != kfold_split(occurrences, 5, 8)
    assert hash(kfold_split(occurrences, 5, 7)) == hash(kfold_split(occurrences, 5, 7))


def test_kfold_errors():
    _, occurrences = make_occurrences(["a"] * 5)
    with pytest.raises(ValueError):
        kfold_split(occurrences, 6, 0)
    with pytest.raises(ValueError):
        kfold_split(occurrences, 1, 0)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    k=st.integers(2, 10),
    seed=st.integers(0, 99),
)
def test_kfold_partition_properties(counts, k, seed):
    senses = [f"s{i}" for i, n in enumerate(counts) for _ in range(n)]
    if len(senses) < k:
        return
    _, occurrences = make_occurrences(senses)
    plan = kfold_split(occurrences, k, seed)
    assert len(plan.assignment) == len(occurrences)
    fold_sizes = Counter(plan.assignment)
    assert max(fold_sizes.values()) - min(fold_sizes.values() or [0]) <= 1
    assert sum(fold_sizes.values()) == len(occurrences)
    by_sense_fold: dict[str, Counter] = {}
    for occ, fold in zip(plan.occurrences, plan.assignment):
        by_sense_fold.setdefault(occ.sense, Counter())[fold] += 1
    for sense, folds in by_sense_fold.items():
        spread = [folds.get(f, 0) for f in range(k)]
        assert max(spread) - min(spread) <= 1


# --- cross-validation --------------------------------------------------------------

def test_planted_signal_is_fully_separable():
    corpus, occurrences = signal_corpus()
    plan = kfold_split(occurrences, 10, 0)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(corpus, plan, criterion, classifier)
        assert result.precision == 1.0
        assert all(p == 1.0 for p in result.fold_precisions)


def test_destroyed_signal_tracks_mfs():
    corpus, occurrences = signal_corpus(noise=1.0, vocabulary=10, seed=0)
    plan = kfold_split(occurrences, 10, 0)
    baseline = mfs_baseline(occurrences)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(corpus, plan, criterion, classifier, keep_records=False)
        assert abs(result.precision - baseline) <= 0.1


def test_destroyed_signal_with_constant_fillers_is_exactly_mfs():
    # vocabulary 1 makes every context identical: nothing to learn, so both
    # classifiers reduce to the most-frequent-sense baseline exactly.
    corpus, occurrences = signal_corpus(counts=(140, 60), noise=1.0, vocabulary=1)
    plan = kfold_split(occurrences, 10, 0)
    baseline = mfs_baseline(occurrences)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(corpus, plan, criterion, classifier, keep_records=False)
        assert result.precision == pytest.approx(baseline)


def test_monosemous_word_scores_one():
    corpus, occurrences = make_occurrences(["only"] * 30)
    plan = kfold_split(occurrences, 10, 0)
    for classifier in ("nb", "dl"):
        result = cross_validate(
            corpus, plan, parse_criterion("[1gr|lemma|ordered|all]@1"),
            classifier, keep_records=False,
        )
        assert result.precision == 1.0


def test_every_occurrence_classified_once():
    corpus, occurrences = signal_corpus(counts=(30, 30), noise=0.5)
    plan = kfold_split(occurrences, 10, 0)
    result = cross_validate(
        corpus, plan, parse_criterion("[1gr|lemma|ordered|all]@2"), "dl"
    )
    assert len(result.records) == len(occurrences)
    assert sorted(r.occurrence_id for r in result.records) == sorted(
        o.id for o in occurrences
    )
    pooled = sum(r.correct for r in result.records) / len(result.records)
    assert result.precision == pytest.approx(pooled, abs=1e-12)


def test_unknown_test_contexts_all_fall_back():
    # an astronomically large filler vocabulary makes every test-fold feature
    # unseen in training: the classifiers must fall back on every decision
    corpus, occurrences = signal_corpus(
        counts=(35, 15), noise=1.0, vocabulary=10**9, width=1
    )
    plan = kfold_split(occurrences, 5, 1)
    for classifier in ("nb", "dl"):
        result = cross_validate(
            corpus, plan, parse_criterion("[1gr|lemma|ordered|all]@1"), classifier
        )
        assert all(r.used_fallback for r in result.records)
        assert all(r.predicted == "banane" for r in result.records)
        assert result.precision == pytest.approx(0.7)


def test_evidence_recorded_only_for_dl_decisions():
    corpus, occurrences = signal_corpus(counts=(30, 30))
    plan = kfold_split(occurrences, 10, 0)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    dl = cross_validate(corpus, plan, criterion, "dl")
    for record in dl.records:
        assert (record.evidence is None) == record.used_fallback
    nb = cross_validate(corpus, plan, criterion, "nb")
    assert all(r.evidence is None for r in nb.records)


def test_combined_criteria_in_cross_validation():
    corpus, occurrences = signal_corpus(counts=(30, 30))
    plan = kfold_split(occurrences, 10, 0)
    criteria = [
        parse_criterion("[2gr|lemma|leftright|all]@1anchored"),
        parse_criterion("[3gr|lemma|leftright|all]@2anchored"),
    ]
    result = cross_validate(corpus, plan, criteria, "nb", keep_records=False)
    assert "+" in result.criterion
    assert result.precision == 1.0  # adjacent signal is visible to anchored bigrams


def test_fold_with_single_sense_training_is_valid():
    # 19 of one sense, 1 of the other with k=10: the lone-sense fold trains on
    # pure-majority data; the model simply predicts that sense
    corpus, occurrences = make_occurrences(["a"] * 19 + ["b"])
    plan = kfold_split(occurrences, 10, 0)
    for classifier in ("nb", "dl"):
        result = cross_validate(
            corpus, plan, parse_criterion("[1gr|lemma|ordered|all]@1"),
            classifier, keep_records=False,
        )
        assert result.precision == pytest.approx(0.95)


# --- grid search ---------------------------------------------------------------------

def small_grid():
    return CriterionGrid(
        orders=(1,), tags=("lemma",), positionings=("ordered",),
        filters=("all",), sizes=(1, 2, 3),
    )


def test_grid_search_shapes_and_order():
    corpus, _ = signal_corpus(counts=(30, 30))
    result = grid_search(
        corpus, [("bananeporte", "noun")], small_grid(), "nb", k=10, seed=0
    )
    assert [r.criterion for r in result.results] == [
        "[1gr|lemma|ordered|all]@1",
        "[1gr|lemma|ordered|all]@2",
        "[1gr|lemma|ordered|all]@3",
    ]
    assert result.skipped == ()


def test_grid_search_skips_small_words():
    corpus, _ = signal_corpus(counts=(30, 30))
    result = grid_search(
        corpus,
        [("bananeporte", "noun"), ("fantôme", "noun")],
        small_grid(),
        "nb",
        k=10,
        seed=0,
    )
    assert len(result.skipped) == 1
    assert result.skipped[0].lemma == "fantôme"
    assert "0 occurrences" in result.skipped[0].reason


def test_grid_search_parallel_equals_sequential():
    corpus, _ = signal_corpus(counts=(20, 20), noise=0.4, seed=2)
    args = (corpus, [("bananeporte", "noun")], small_grid(), "dl")
    sequential = grid_search(*args, k=5, seed=3, jobs=1)
    parallel = grid_search(*args, k=5, seed=3, jobs=4)
    assert sequential == parallel


def test_grid_search_category_averages():
    corpus, _ = signal_corpus(counts=(30, 30))
    result = grid_search(
        corpus, [("bananeporte", "noun")], small_grid(), "nb", k=10, seed=0
    )
    averages = macro_average(result.by_criterion()["[1gr|lemma|ordered|all]@1"])
    assert averages == {"noun": 1.0}


def test_grid_search_combined_cells_and_records():
    corpus, occurrences = signal_corpus(counts=(30, 30))
    plan = kfold_split(occurrences, 10, 0)
    parts = (parse_criterion("[1gr|lemma|ordered|all]@1"),
             parse_criterion("[2gr|lemma|leftright|all]@2"))
    result = grid_search(corpus, [("bananeporte", "noun")], [parts, parts[0]], "dl",
                         k=10, seed=0, keep_records=True)
    assert [r.cell for r in result.results] == [parts, parts[:1]]
    assert [r.criterion for r in result.results] == [
        "[1gr|lemma|ordered|all]@1+[2gr|lemma|leftright|all]@2", "[1gr|lemma|ordered|all]@1"]
    assert list(result.results) == [cross_validate(corpus, plan, parts, "dl"),
                                    cross_validate(corpus, plan, parts[0], "dl")]
    without = grid_search(corpus, [("bananeporte", "noun")], [parts], "dl", k=10, seed=0)
    assert without.results[0].records == ()


def test_worker_count_is_bounded():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert worker_count(1, 100) == 1
    assert worker_count(4, 3) == min(3, cpus)
    assert worker_count(10**6, 10**6) == cpus
    assert worker_count(8, 0) == 1


def test_cross_validate_rejects_unknown_classifier():
    corpus, occurrences = signal_corpus(counts=(20, 20))
    plan = kfold_split(occurrences, 10, 0)
    with pytest.raises(ValueError, match="unknown classifier 'NB': valid ids are nb, dl"):
        cross_validate(corpus, plan, parse_criterion("[1gr|lemma|ordered|all]@1"), "NB")


def test_grid_search_validation():
    corpus, _ = signal_corpus(counts=(20, 20))
    with pytest.raises(ValueError):
        grid_search(corpus, [], small_grid(), "nb")
    with pytest.raises(ValueError):
        grid_search(corpus, [("bananeporte", "noun")], [], "nb")
    with pytest.raises(ValueError):
        grid_search(corpus, [("bananeporte", "noun")], small_grid(), "svm")


_SENSE_NAME = st.text("abcxyz", min_size=1, max_size=3)
_CONTEXT = [Token(f"c{i}", f"c{i}", pos, pos) for i, pos in
            enumerate(("NCOM", "DET", "ADJ", "PREP", "NCOM", "DET"))]
_RENAMING_CELLS = [parse_criterion(text) for text in (
    "[1gr|lemma|ordered|all]@2", "[2gr|lemma|leftright|content]@2",
    "[1gr|cgems|unordered|all]@1",
)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_order_preserving_sense_renaming_keeps_precisions(data):
    """Folds, tie-breaks and the fallback sense order senses by sort order
    alone, so a renaming that keeps that order changes no precision."""
    senses = sorted(data.draw(st.lists(_SENSE_NAME, min_size=2, max_size=3, unique=True)))
    renamed = sorted(data.draw(
        st.lists(_SENSE_NAME, min_size=len(senses), max_size=len(senses), unique=True)
    ))
    context = st.lists(st.sampled_from(_CONTEXT), max_size=3)
    rows = data.draw(st.lists(
        st.tuples(st.sampled_from(range(len(senses))), context, context),
        min_size=6, max_size=24,
    ))
    seed = data.draw(st.integers(0, 5))

    def corpus_with(names):
        return Corpus(tuple(
            Document(f"d{i}", (*left, Token("w", "w", "NCOM", "NCOM", names[sense]), *right))
            for i, (sense, left, right) in enumerate(rows)
        ))

    for classifier in ("nb", "dl"):
        before, after = (
            grid_search(corpus_with(names), [("w", "noun")], _RENAMING_CELLS, classifier,
                        k=3, seed=seed)
            for names in (senses, renamed)
        )
        assert [(r.criterion, r.precision, r.fold_precisions) for r in before.results] == [
            (r.criterion, r.precision, r.fold_precisions) for r in after.results
        ]


# --- aggregation ---------------------------------------------------------------------

def _word_result(lemma, category, precision):
    return WordResult(lemma, category, (parse_criterion("[1gr|lemma|ordered|all]@1"),), "nb",
                      precision, (precision,), ())


def test_macro_average():
    results = [
        _word_result("a", "noun", 0.9),
        _word_result("b", "noun", 0.7),
        _word_result("c", "verb", 0.819),
    ]
    averages = macro_average(results)
    assert averages["noun"] == pytest.approx(0.8)
    assert averages["verb"] == pytest.approx(0.819)
    assert macro_average([_word_result("x", "noun", 0.5)] * 20)["noun"] == 0.5
    with pytest.raises(ValueError):
        macro_average([])


def test_write_grid_csv():
    results = [_word_result("mot", "noun", 0.75)]
    buffer = io.StringIO()
    write_grid_csv(results, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(GRID_CSV_HEADER)
    assert lines[1] == "mot,noun,[1gr|lemma|ordered|all]@1,1,nb,0.750000,0.750000"
