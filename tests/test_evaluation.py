import gc
import os
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdlab import (
    Corpus,
    CriterionGrid,
    CVParams,
    Document,
    PseudowordConfig,
    SmoothingParams,
    Token,
    classify_dl,
    combine_features,
    cross_validate,
    enumerate_grid,
    extract_features,
    extract_occurrences,
    generate_pseudoword_corpus,
    grid_search,
    kfold_split,
    parse_corpus,
    parse_criterion,
    selection_comparison,
    train_dl,
)
from wsdlab import evaluation
from wsdlab.criteria import feature_span, parse_cell
from wsdlab.analysis import GRID_CSV_HEADER, grid_rows
from wsdlab.evaluation import FoldPlan, GridResult, WordResult, worker_count
from oracles import kfold_assignment, mfs_baseline


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
    assert [len(fold) for fold in plan.folds] == [10] * 10


def test_kfold_stratifies_senses():
    _, occurrences = make_occurrences(["a"] * 140 + ["b"] * 60)
    plan = kfold_split(occurrences, 10, 0)
    assert len(plan.folds) == 10
    assert all(Counter(plan.occurrences[i].sense for i in fold) == Counter({"a": 14, "b": 6})
               for fold in plan.folds)


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
    assert len(plan.folds) == k
    fold_sizes = [len(fold) for fold in plan.folds]
    assert max(fold_sizes) - min(fold_sizes) <= 1
    assert sum(fold_sizes) == len(occurrences)
    for sense in set(senses):
        spread = [sum(plan.occurrences[i].sense == sense for i in fold) for fold in plan.folds]
        assert max(spread) - min(spread) <= 1


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
    k=st.integers(2, 12),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_kfold_folds_are_the_assignment_oracles_partition(counts, k, seed, data):
    # Sense groups interleaved in any order, not one block per sense.
    senses = data.draw(st.permutations([f"s{i}" for i, n in enumerate(counts) for _ in range(n)]))
    if len(senses) < k:
        return
    _, occurrences = make_occurrences(senses)
    folds = kfold_split(occurrences, k, seed).folds
    assignment = kfold_assignment(occurrences, k, seed)
    assert folds == tuple(tuple(i for i, f in enumerate(assignment) if f == fold)
                          for fold in range(k))
    assert all(list(fold) == sorted(fold) for fold in folds)
    assert sorted(i for fold in folds for i in fold) == list(range(len(occurrences)))


# --- cross-validation --------------------------------------------------------------

def test_planted_signal_is_fully_separable():
    corpus, occurrences = signal_corpus()
    plan = kfold_split(occurrences, 10, 0)
    cell = parse_cell("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(plan, cell, CVParams(classifier))
        assert result.precision == 1.0
        assert plan.fold_precisions(result.correct) == (1.0,) * 10


def test_destroyed_signal_tracks_mfs():
    corpus, occurrences = signal_corpus(noise=1.0, vocabulary=10, seed=0)
    plan = kfold_split(occurrences, 10, 0)
    baseline = mfs_baseline(occurrences)
    cell = parse_cell("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(plan, cell, CVParams(classifier))
        assert abs(result.precision - baseline) <= 0.1


def test_destroyed_signal_with_constant_fillers_is_exactly_mfs():
    # vocabulary 1 makes every context identical: nothing to learn, so both
    # classifiers reduce to the most-frequent-sense baseline exactly.
    corpus, occurrences = signal_corpus(counts=(140, 60), noise=1.0, vocabulary=1)
    plan = kfold_split(occurrences, 10, 0)
    baseline = mfs_baseline(occurrences)
    cell = parse_cell("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(plan, cell, CVParams(classifier))
        assert result.precision == pytest.approx(baseline)


def test_monosemous_word_scores_one():
    corpus, occurrences = make_occurrences(["only"] * 30)
    plan = kfold_split(occurrences, 10, 0)
    for classifier in ("nb", "dl"):
        result = cross_validate(
            plan, parse_cell("[1gr|lemma|ordered|all]@1"), CVParams(classifier)
        )
        assert result.precision == 1.0


def test_every_occurrence_classified_once():
    corpus, occurrences = signal_corpus(counts=(30, 30), noise=0.5)
    plan = kfold_split(occurrences, 10, 0)
    result = cross_validate(
        plan, parse_cell("[1gr|lemma|ordered|all]@2"), CVParams("dl", keep_records=True)
    )
    assert result.decisions == len(occurrences) == len(result.evidence)
    # No bit past the last occurrence; the fallback bits are a subset of the
    # decisions, and each decision without a fallback has its evidence.
    assert result.correct >> result.decisions == result.fallback >> result.decisions == 0
    assert [span is None for span in result.evidence] == [
        bool(result.fallback >> i & 1) for i in range(result.decisions)]
    assert result.precision == result.correct.bit_count() / len(occurrences)


def test_unknown_test_contexts_all_fall_back():
    # an astronomically large filler vocabulary makes every test-fold feature
    # unseen in training: the classifiers must fall back on every decision
    corpus, occurrences = signal_corpus(
        counts=(35, 15), noise=1.0, vocabulary=10**9, width=1
    )
    plan = kfold_split(occurrences, 5, 1)
    for classifier in ("nb", "dl"):
        result = cross_validate(
            plan, parse_cell("[1gr|lemma|ordered|all]@1"), CVParams(classifier, keep_records=True)
        )
        # Every decision falls back to banane: right exactly on its occurrences.
        assert result.fallback == (1 << len(occurrences)) - 1
        assert result.correct == sum(1 << i for i, occ in enumerate(occurrences)
                                     if occ.sense == "banane")
        assert result.precision == pytest.approx(0.7)


def test_evidence_recorded_only_for_dl_decisions():
    corpus, occurrences = signal_corpus(counts=(30, 30))
    plan = kfold_split(occurrences, 10, 0)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    # In the '+' cell the leftright keys sort first, so they win every tie with
    # the ordered ones: the deciding criterion is not the cell's first.
    for cell in ((criterion,), (criterion, parse_criterion("[1gr|lemma|leftright|all]@1"))):
        dl = cross_validate(plan, cell, CVParams("dl", keep_records=True))
        # Each fold's decisions, retrained here: occurrence i's bits are its
        # decision's, and the evidence is the span of its deciding key.
        vectors = [combine_features(cell, [extract_features(occ, c) for c in cell])
                   for occ in occurrences]
        assert dl.decisions == len(dl.evidence) == len(occurrences)
        for held_out in plan.folds:
            model = train_dl([(vector, occ.sense) for i, (vector, occ)
                              in enumerate(zip(vectors, occurrences)) if i not in held_out],
                             SmoothingParams())
            for i in held_out:
                prediction = classify_dl(model, vectors[i])
                assert dl.correct >> i & 1 == (prediction.sense == occurrences[i].sense)
                assert dl.fallback >> i & 1 == prediction.used_fallback
                assert (dl.evidence[i] is None) == prediction.used_fallback
                assert prediction.used_fallback == (prediction.key is None)
                if prediction.key is not None:
                    assert dl.evidence[i] == feature_span(occurrences[i], cell,
                                                          prediction.key)
    nb = cross_validate(plan, (criterion,), CVParams("nb", keep_records=True))
    assert nb.evidence == (None,) * len(occurrences)


def test_combined_criteria_in_cross_validation():
    corpus, occurrences = signal_corpus(counts=(30, 30))
    plan = kfold_split(occurrences, 10, 0)
    cell = parse_cell("[2gr|lemma|leftright|all]@1anchored+[3gr|lemma|leftright|all]@2anchored")
    result = cross_validate(plan, cell, CVParams("nb"))
    assert "+" in result.criterion
    assert result.precision == 1.0  # adjacent signal is visible to anchored bigrams


def test_fold_with_single_sense_training_is_valid():
    # 19 of one sense, 1 of the other with k=10: the lone-sense fold trains on
    # pure-majority data; the model simply predicts that sense
    corpus, occurrences = make_occurrences(["a"] * 19 + ["b"])
    plan = kfold_split(occurrences, 10, 0)
    for classifier in ("nb", "dl"):
        result = cross_validate(
            plan, parse_cell("[1gr|lemma|ordered|all]@1"), CVParams(classifier)
        )
        assert result.precision == pytest.approx(0.95)


# --- grid search ---------------------------------------------------------------------

def small_grid():
    return enumerate_grid(CriterionGrid(
        orders=(1,), tags=("lemma",), positionings=("ordered",),
        filters=("all",), sizes=(1, 2, 3),
    ))


def test_grid_search_shapes_and_order():
    corpus, _ = signal_corpus(counts=(30, 30))
    result = grid_search(corpus, [("bananeporte", "noun")], small_grid(), CVParams("nb"))
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
        CVParams("nb"),
    )
    assert len(result.skipped) == 1
    assert result.skipped[0].lemma == "fantôme"
    assert "0 occurrences" in result.skipped[0].reason


def test_grid_search_parallel_equals_sequential():
    corpus, _ = signal_corpus(counts=(20, 20), noise=0.4, seed=2)
    args = (corpus, [("bananeporte", "noun")], small_grid(), CVParams("dl", k=5, seed=3))
    sequential = grid_search(*args, jobs=1)
    parallel = grid_search(*args, jobs=4)
    assert sequential == parallel


def test_grid_search_category_averages():
    corpus, _ = signal_corpus(counts=(30, 30))
    result = grid_search(corpus, [("bananeporte", "noun")], small_grid(), CVParams("nb"))
    # The per-category macro average, as the selection report prints it.
    assert selection_comparison(result)[1] == ("[1gr|lemma|ordered|all]@1", "noun", 1,
                                               "1.000000")


def test_grid_search_combined_cells_and_records():
    corpus, occurrences = signal_corpus(counts=(30, 30))
    plan = kfold_split(occurrences, 10, 0)
    parts = (parse_criterion("[1gr|lemma|ordered|all]@1"),
             parse_criterion("[2gr|lemma|leftright|all]@2"))
    params = CVParams("dl", keep_records=True)
    result = grid_search(corpus, [("bananeporte", "noun")], [parts, parts[:1]], params)
    assert [r.cell for r in result.results] == [parts, parts[:1]]
    assert [r.criterion for r in result.results] == [
        "[1gr|lemma|ordered|all]@1+[2gr|lemma|leftright|all]@2", "[1gr|lemma|ordered|all]@1"]
    assert list(result.results) == [cross_validate(plan, cell, params)
                                    for cell in (parts, parts[:1])]
    assert result.params == params
    assert result.plans == {("bananeporte", "noun"): plan}
    without = grid_search(corpus, [("bananeporte", "noun")], [parts], CVParams("dl"))
    assert without.results[0].evidence == ()


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_search_keeps_nothing_alive_after_it_returns(jobs):
    corpus, _ = signal_corpus(counts=(20, 20))
    alive = weakref.ref(corpus)
    grid_search(corpus, [("bananeporte", "noun")], small_grid(), CVParams("nb", k=5), jobs=jobs)
    del corpus
    gc.collect()
    assert alive() is None


def test_concurrent_grid_searches_keep_to_their_own_corpus():
    """grid_search keeps no state between calls: two threads' serial runs,
    each on its own pseudo-word corpus, equal that corpus's run alone.  Each
    run takes a few switch intervals, so the threads interleave."""
    runs = []
    for sources, seed in ((("banane", "porte"), 11), (("chat", "lune", "mer"), 12)):
        config = PseudowordConfig(sources=sources, counts=(200,) * len(sources), noise=0.3)
        runs.append((generate_pseudoword_corpus(config, seed),
                     [(config.target_lemma, config.category)], small_grid(), CVParams("nb", k=5)))
    alone = [grid_search(*args) for args in runs]
    start = threading.Barrier(len(runs))

    def together(args):
        start.wait(timeout=60)
        return grid_search(*args)

    with ThreadPoolExecutor(len(runs)) as threads:
        for _ in range(5):
            assert list(threads.map(together, runs, timeout=120)) == alone


@pytest.mark.parametrize("classifier", ["nb", "dl"])
def test_grid_search_looks_up_the_traced_functions_at_call_time(monkeypatch, classifier):
    # perfbench's tracer wraps these module attributes; binding them at import
    # time would silently zero its per-layer counts.
    calls = Counter()
    for name in ("extract_features", "train_nb", "train_dl", "classify_nb", "classify_dl"):
        def counting(*args, _name=name, _inner=getattr(evaluation, name), **kwargs):
            calls[_name.split("_")[0]] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counting)
    corpus, occurrences = signal_corpus(counts=(20, 20))
    grid = small_grid()
    cells, n, k = len(grid), len(occurrences), 5
    grid_search(corpus, [("bananeporte", "noun")], grid, CVParams(classifier, k=k))
    assert calls == {"extract": n * cells, "train": k * cells, "classify": n * cells}


def test_worker_count_is_bounded():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert worker_count(1, 100) == 1
    assert worker_count(4, 3) == min(3, cpus)
    assert worker_count(10**6, 10**6) == cpus
    assert worker_count(8, 0) == 1


def test_cv_params_lists_every_problem_at_once():
    with pytest.raises(ValueError) as info:
        CVParams("svm", k=1, content_mode="x")
    assert str(info.value).splitlines() == [
        "unknown classifier 'svm': valid ids are nb, dl",
        "k must be >= 2",
        "content mode must be one of ('reindex', 'keep_gaps')",
    ]


def test_cv_params_lists_a_k_or_seed_that_is_not_an_integer():
    # A seed of None would draw the folds from OS randomness.
    with pytest.raises(ValueError) as info:
        CVParams("nb", k="5", seed=None)
    assert str(info.value).splitlines() == [
        "k must be an integer, not '5'",
        "seed must be an integer, not None",
    ]


def test_cv_params_rejects_unknown_classifier():
    with pytest.raises(ValueError, match="^unknown classifier 'NB': valid ids are nb, dl$"):
        CVParams("NB")


def test_cross_validate_rejects_an_empty_cell():
    corpus, occurrences = signal_corpus(counts=(20, 20))
    plan = kfold_split(occurrences, 10, 0)
    with pytest.raises(ValueError, match="at least one criterion is required"):
        cross_validate(plan, (), CVParams("nb"))


def test_grid_search_validation():
    corpus, _ = signal_corpus(counts=(20, 20))
    with pytest.raises(ValueError, match="empty target list"):
        grid_search(corpus, [], small_grid(), CVParams("nb"))
    with pytest.raises(ValueError, match="empty criterion list"):
        grid_search(corpus, [("bananeporte", "noun")], [], CVParams("nb"))


_SENSE_NAME = st.text("abcxyz", min_size=1, max_size=3)
_CONTEXT = [Token(f"c{i}", f"c{i}", pos, pos) for i, pos in
            enumerate(("NCOM", "DET", "ADJ", "PREP", "NCOM", "DET"))]
_RENAMING_CELLS = [parse_cell(text) for text in (
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
            grid_search(corpus_with(names), [("w", "noun")], _RENAMING_CELLS,
                        CVParams(classifier, k=3, seed=seed))
            for names in (senses, renamed)
        )
        assert before.plans[("w", "noun")].folds == after.plans[("w", "noun")].folds
        assert [(r.criterion, r.correct, r.fallback) for r in before.results] == [
            (r.criterion, r.correct, r.fallback) for r in after.results
        ]


# --- aggregation ---------------------------------------------------------------------

def test_write_grid_csv():
    _, occurrences = make_occurrences(["a", "a", "b", "b"])
    plan = kfold_split(occurrences, 2, 0)
    first, second = plan.folds
    # Both decisions of the first fold right, one of the second.
    correct = sum(1 << i for i in (*first, second[0]))
    result = WordResult("mot", "noun", (parse_criterion("[1gr|lemma|ordered|all]@1"),),
                        4, correct, 0)
    grid = GridResult((result,), (), CVParams("nb", k=2), {("mot", "noun"): plan})
    assert grid_rows(grid) == [
        GRID_CSV_HEADER,
        ("mot", "noun", "[1gr|lemma|ordered|all]@1", 1, "nb", "0.750000", "1.000000;0.500000"),
    ]


def test_an_empty_fold_has_precision_zero():
    _, occurrences = make_occurrences(["a", "b"])
    plan = FoldPlan(tuple(occurrences), ((0, 1), (), ()))
    assert plan.fold_precisions(0b01) == (0.5, 0.0, 0.0)
