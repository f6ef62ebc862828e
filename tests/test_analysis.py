import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    Decision,
    Outcome,
    adjacency_experiment_reference,
    content_ablation_reference,
    context_report_reference,
    evidence_reports_reference,
    mfs_baseline,
    result_of_precision,
    selection_comparison_reference,
    shift_study_reference,
    stats_rows_reference,
)
from wsdlab import (
    ADJACENCY_CELLS,
    CVParams,
    PseudowordConfig,
    adjacency_experiment,
    content_ablation,
    context_report,
    cross_validate,
    evidence_reports,
    extract_occurrences,
    generate_pseudoword_corpus,
    grid_search,
    kfold_split,
    parse_corpus,
    parse_criterion,
    selection_comparison,
    selection_criteria,
    shift_criteria,
    shift_study,
    stats_rows,
)
from wsdlab.analysis import ABLATION_HEADER, ANCHORED_COMBINATION, PLAIN_BIGRAM
from wsdlab.corpus import CATEGORIES
from wsdlab.criteria import Criterion, parse_cell
from wsdlab.evaluation import GridResult, WordResult


def pseudo_corpus(seed=17, **kwargs):
    config_kwargs = dict(
        sources=("banane", "porte"), counts=(40, 40), signal_offsets=(-1,)
    )
    config_kwargs.update(kwargs)
    config = PseudowordConfig(**config_kwargs)
    corpus = generate_pseudoword_corpus(config, seed)
    target = (config.target_lemma, config.category)
    return corpus, target


def selection(corpus, target, base):
    return selection_comparison(
        grid_search(corpus, [target], selection_criteria(base), CVParams("nb"))
    )


def shifts(corpus, target, criterion, values):
    return shift_study(
        grid_search(corpus, [target], shift_criteria(criterion, values), CVParams("nb"))
    )


def adjacency(corpus, target):
    return adjacency_experiment(
        grid_search(corpus, [target], ADJACENCY_CELLS, CVParams("nb"))
    )


# --- statistics -----------------------------------------------------------------

_SENSES = st.sampled_from(("x", "y", "z", ""))  # "" leaves a token untagged


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.tuples(st.sampled_from(CATEGORIES), st.lists(_SENSES, max_size=12)),
                      min_size=1, max_size=6))
@example(words=[("verb", ["x", "x"]), ("noun", []), ("adjective", ["x", "y", "z"]),
                ("noun", ["y", "", "x", "x"]), ("verb", [""])])
def test_stats_rows_equal_the_reference(words):
    """Targets in any category order, with one sense, several or none."""
    targets = [(f"w{n}", category) for n, (category, _) in enumerate(words)]
    corpus = parse_corpus("\n".join(
        f"{lemma}\t{lemma}\tA\tB\t{sense}"
        for (lemma, _), (_, senses) in zip(targets, words) for sense in senses
    ))
    assert stats_rows(corpus, targets) == stats_rows_reference(corpus, targets)


# --- evidence profile ---------------------------------------------------------

UNIGRAM = (parse_criterion("[1gr|mform|ordered|all]@2"),)
# How an evidence run cross-validates: the decision list, with records.
EVIDENCE = CVParams("dl", keep_records=True)


def record(tag, offset, correct, fallback=False):
    """One decision; a fallback has no evidence."""
    return Decision(correct, fallback, None if fallback else ((offset,), (tag,)))


def decided(records, lemma="mot", category="noun"):
    """A decision-list result of these decisions, in occurrence order."""
    return WordResult(lemma, category, UNIGRAM, len(records),
                      sum(r.correct << i for i, r in enumerate(records)),
                      sum(r.used_fallback << i for i, r in enumerate(records)),
                      tuple(r.evidence for r in records))


def evidence(records, category="noun"):
    """The evidence reports of one word's decisions."""
    return evidence_reports(GridResult((decided(records, category=category),), (), EVIDENCE))


# (falls back, correct, tag, offset) of one decision
_DECISION = st.tuples(st.booleans(), st.booleans(), st.sampled_from(("NCOM", "DET", "ADJ")),
                      st.sampled_from((-3, -2, -1, 1, 2, 3)))
# (category, every decision falls back, decisions) of each word
_WORDS = st.lists(st.tuples(st.sampled_from(CATEGORIES), st.booleans(),
                            st.lists(_DECISION, max_size=15)),
                  min_size=1, max_size=5)


def _outcomes(words):
    """The oracle's view of drawn ``_WORDS``: one ``Outcome`` per word."""
    return [Outcome(f"w{n}", category, UNIGRAM, "dl", tuple(
                record(tag, offset, correct, fallback=falls_back or fallback)
                for fallback, correct, tag, offset in decisions))
            for n, (category, falls_back, decisions) in enumerate(words)]


@settings(max_examples=200, deadline=None)
@given(words=_WORDS)
@example(words=[
    ("verb", False, [(False, True, "NCOM", -2), (False, False, "NCOM", 2),
                     (False, True, "NCOM", 1), (False, True, "NCOM", -1)]),
    ("adjective", True, [(False, True, "DET", -1), (False, False, "ADJ", 1)]),
    ("noun", False, [(True, True, "DET", 1), (False, True, "DET", 3),
                     (False, False, "DET", -3), (False, True, "ADJ", 2)]),
])
def test_evidence_reports_equal_the_reference(words):
    """Words in any category order; a category that only falls back; offsets
    that tie on usage."""
    outcomes = _outcomes(words)
    grid = GridResult(tuple(decided(o.records, o.lemma, o.category) for o in outcomes), (),
                      EVIDENCE)
    assert evidence_reports(grid) == evidence_reports_reference(outcomes)


@settings(max_examples=100, deadline=None)
@given(words=_WORDS)
def test_evidence_reports_count_the_decisions_without_a_fallback_bit(words):
    results = [decided(o.records, o.lemma, o.category) for o in _outcomes(words)]
    space = evidence_reports(GridResult(tuple(results), (), EVIDENCE))["evidence_space.csv"][1:]
    assert sum(row[3] for row in space) == sum(
        r.decisions - r.fallback.bit_count() for r in results)
    assert sum(row[4] for row in space) == sum(
        (r.correct & ~r.fallback).bit_count() for r in results)


def test_profile_counts_per_tag():
    records = [record("NCOM", -1, i < 9) for i in range(10)]
    assert evidence(records)["evidence_profile.csv"][1:] == [
        ("noun", "NCOM", 10, 9, "90.0", "100.0")
    ]


def test_profile_all_fallback_is_empty():
    records = [record("", 0, True, fallback=True)] * 4
    reports = evidence(records)
    assert [rows[1:] for rows in reports.values()] == [[], [], []]


def test_profile_rejects_nb_records():
    bad = Decision(True, False, None)
    with pytest.raises(ValueError, match="^record lacks evidence: evidence profiles need "
                                         "decision-list runs$"):
        evidence([bad])


def test_profile_rejects_a_run_without_records():
    corpus, target = pseudo_corpus()
    grid = grid_search(corpus, [target], [parse_cell("[1gr|lemma|ordered|all]@1")],
                       CVParams("dl"))
    assert grid.results[0].decisions > grid.results[0].fallback.bit_count()
    with pytest.raises(ValueError, match="^record lacks evidence: evidence profiles need "
                                         "decision-list runs$"):
        evidence_reports(grid)


def test_profile_rejects_multitoken_evidence():
    bad = Decision(True, False, ((-2, -1), ("DET", "NCOM")))
    with pytest.raises(ValueError, match=r"^evidence profiles need unigram criteria "
                                         r"\(single-token evidence\)$"):
        evidence([bad])


def test_profile_consistency_with_word_result():
    corpus, (lemma, category) = pseudo_corpus(noise=0.5, vocabulary=2000, counts=(70, 30))
    occurrences = extract_occurrences(corpus, lemma, category)
    plan = kfold_split(occurrences, 10, 1)
    result = cross_validate(plan, parse_cell("[1gr|lemma|ordered|all]@1"), EVIDENCE)
    rows = evidence_reports(GridResult((result,), (), EVIDENCE))["evidence_profile.csv"][1:]
    fallbacks = result.fallback.bit_count()
    assert fallbacks  # the engineered sparsity forces fallbacks
    correct = sum(row[3] for row in rows) + (result.correct & result.fallback).bit_count()
    assert correct / result.decisions == result.precision
    decided = result.decisions - fallbacks
    assert sum(row[2] for row in rows) == decided  # usage sums to 100%
    for row in rows:
        assert row[3] <= row[2]
        assert row[5] == f"{100.0 * row[2] / decided:.1f}"


def test_space_summary_orders_and_ties():
    records = (
        [record("NCOM", -2, True)] * 5
        + [record("NCOM", 2, True)] * 5
        + [record("NCOM", 3, True)]
        + [record("DET", -1, True)]
    )
    # tied peaks resolve to smaller |offset| first
    assert evidence(records)["evidence_summary.csv"][1:] == [
        ("noun", "DET", "-1"), ("noun", "NCOM", "-2;+2")
    ]


def test_space_summary_uniform_prefers_near_offsets():
    records = [record("ADJ", o, True) for o in [-3, -1, 2, 4]]
    assert evidence(records)["evidence_summary.csv"][1:] == [("noun", "ADJ", "-1;+2")]


# --- ablation -------------------------------------------------------------------

def grid_result_from(rows):
    results = tuple(
        result_of_precision(lemma, category, (parse_criterion(criterion),), precision)
        for lemma, category, criterion, precision in rows
    )
    return GridResult(results, (), CVParams("dl"))


def test_ablation_pair_decrease():
    grid = grid_result_from([
        ("mot", "noun", "[1gr|mform|ordered|all]@1", 0.815),
        ("mot", "noun", "[1gr|mform|ordered|content]@1", 0.789),
    ])
    # decrease 100 * 0.026 = 2.6 points; relative 100 * 0.026 / 0.815 = 3.190%
    assert content_ablation(grid) == [
        ABLATION_HEADER,
        ("noun", 1, 1, "0.815000", "0.789000", "2.600", "3.190"),
    ]


def test_ablation_zero_and_negative_deltas():
    grid = grid_result_from([
        ("mot", "noun", "[2gr|lemma|ordered|all]@3", 0.70),
        ("mot", "noun", "[2gr|lemma|ordered|content]@3", 0.70),
        ("mot", "noun", "[1gr|lemma|ordered|all]@3", 0.60),
        ("mot", "noun", "[1gr|lemma|ordered|content]@3", 0.65),
    ])
    # order 1: 100 * (0.60 - 0.65) = -5 points, -5 / 0.60 = -8.333%
    assert content_ablation(grid)[1:] == [
        ("noun", 1, 1, "0.600000", "0.650000", "-5.000", "-8.333"),
        ("noun", 2, 1, "0.700000", "0.700000", "0.000", "0.000"),
    ]


def test_ablation_zero_baseline_leaves_the_relative_decrease_empty():
    grid = grid_result_from([
        ("mot", "noun", "[1gr|mform|ordered|all]@1", 0.0),
        ("mot", "noun", "[1gr|mform|ordered|content]@1", 0.25),
    ])
    assert content_ablation(grid)[1:] == [
        ("noun", 1, 1, "0.000000", "0.250000", "-25.000", ""),
    ]


def test_ablation_missing_partner_is_an_error():
    grid = grid_result_from([
        ("mot", "noun", "[1gr|mform|ordered|all]@1", 0.8),
        ("mot", "noun", "[1gr|mform|ordered|content]@1", 0.7),
        ("mot", "noun", "[1gr|mform|ordered|all]@2", 0.8),
    ])
    with pytest.raises(ValueError, match="missing"):
        content_ablation(grid)


def test_ablation_csv_schema():
    grid = grid_result_from([
        ("mot", "noun", "[1gr|mform|ordered|all]@1", 0.815),
        ("mot", "noun", "[1gr|mform|ordered|content]@1", 0.789),
    ])
    rows = content_ablation(grid)
    assert rows[0] == ABLATION_HEADER
    assert len(rows) == 2 and len(rows[1]) == len(ABLATION_HEADER)
    assert rows[1][:6] == ("noun", 1, 1, "0.815000", "0.789000", "2.600")


# --- selection -------------------------------------------------------------------

def test_selection_preserved_signal():
    # signal tokens are NCOM: every filter keeps them, so all three rows match
    corpus, target = pseudo_corpus(signal_pos="NCOM", vocabulary=1)
    base = parse_criterion("[1gr|lemma|ordered|all]@1")
    rows = selection(corpus, target, base)[1:]
    assert [row[0] for row in rows] == [
        "[1gr|lemma|ordered|all]@1",
        "[1gr|lemma|ordered|content]@1",
        "[1gr|lemma|ordered|selected]@1",
    ]
    for row in rows:
        assert row[1:] == ("noun", 1, "1.000000")


def test_selection_removed_signal_drops_to_baseline():
    # DET signal on a noun target: the noun "selected" tag set drops it, while
    # the full-context run still separates perfectly
    corpus, target = pseudo_corpus(signal_pos="DET", vocabulary=1, counts=(60, 40))
    occurrences = extract_occurrences(corpus, *target)
    base = parse_criterion("[1gr|lemma|ordered|all]@1")
    rows = {row[0].split("|")[-1].split("]")[0]: row
            for row in selection(corpus, target, base)[1:]}
    assert rows["all"][1:] == ("noun", 1, "1.000000")
    assert rows["selected"][1] == "noun"
    assert float(rows["selected"][3]) == pytest.approx(mfs_baseline(occurrences), abs=0.05)


def test_selection_requires_all_filter_base():
    corpus, target = pseudo_corpus()
    with pytest.raises(ValueError, match="all"):
        selection_criteria(parse_criterion("[1gr|lemma|ordered|content]@1"))


def test_selection_shares_fold_plans():
    corpus, target = pseudo_corpus()
    base = parse_criterion("[1gr|lemma|ordered|all]@1")
    rows = selection(corpus, target, base)[1:]
    plan = kfold_split(extract_occurrences(corpus, *target), 10, 0)
    for row, criterion in zip(rows, selection_criteria(base), strict=True):
        alone = grid_search(corpus, [target], [criterion], CVParams("nb"))
        assert row == (alone.results[0].criterion, "noun", 1,
                       f"{alone.results[0].precision:.6f}")
        assert alone.results[0] == cross_validate(plan, criterion, CVParams("nb"))


def test_selection_csv_schema():
    corpus, target = pseudo_corpus(vocabulary=1)
    rows = selection(corpus, target, parse_criterion("[1gr|lemma|ordered|all]@1"))
    assert rows[0] == ("criterion", "category", "words", "precision")
    assert len(rows) == 4  # 3 filters x 1 category
    assert all(len(row) == 4 for row in rows)


# --- shift study -----------------------------------------------------------------

def test_shift_study_finds_forward_signal():
    # signal lives at +2 only; a +1-shifted window @1 covers [0+1-1, 1+1] = {1, 2}
    corpus, target = pseudo_corpus(signal_offsets=(2,), vocabulary=1)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    noun = {row[0]: row for row in shifts(corpus, target, criterion, [0, 1])[1:]
            if row[1] == "noun"}
    assert noun[1][3] == "1.000000"
    assert float(noun[1][3]) > float(noun[0][3])
    assert float(noun[1][4]) > 0.3


def test_shift_study_symmetric_signal_is_flat():
    corpus, target = pseudo_corpus(signal_offsets=(-1, 1), vocabulary=1)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@2")
    deltas = {row[0]: float(row[4]) for row in shifts(corpus, target, criterion, [0, 1, -1])[1:]
              if row[1] == "noun"}
    for shift in (1, -1):
        assert abs(deltas[shift]) <= 0.05


def test_shift_study_single_zero_row():
    corpus, target = pseudo_corpus(vocabulary=1)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    rows = shifts(corpus, target, criterion, [0])
    assert [row[:2] for row in rows[1:]] == [(0, "noun"), (0, "all")]
    assert [row[4] for row in rows[1:]] == ["0.000000", "0.000000"]


def test_shift_study_requires_zero():
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    with pytest.raises(ValueError, match="include 0"):
        shift_criteria(criterion, [1, 2])
    with pytest.raises(ValueError, match="repeats 1"):
        shift_criteria(criterion, [0, 1, 1])


def test_shift_csv_schema():
    corpus, target = pseudo_corpus(vocabulary=1)
    rows = shifts(corpus, target, parse_criterion("[1gr|lemma|ordered|all]@1"), [0, 1])
    assert rows[0] == ("shift", "category", "words", "precision", "delta_vs_zero")
    assert len(rows) == 1 + 2 * 2  # 2 shifts x (noun + all)
    assert all(len(row) == 5 for row in rows)


# --- adjacency experiment ----------------------------------------------------------

def test_adjacency_adjacent_signal_ties():
    corpus, target = pseudo_corpus(signal_offsets=(-1,), vocabulary=1)
    assert adjacency(corpus, target)[1] == ("1.000000", "1.000000", "0.000000")


def test_adjacency_distant_signal_favors_plain_bigram():
    # cue at offset -3 amid varied fillers: the plain bigram@4 captures it in
    # well-populated 2-token spans, while the anchored combination reaches it
    # only inside sparse 4/5-grams, which rarely recur between folds
    corpus, target = pseudo_corpus(
        signal_offsets=(-3,), vocabulary=40, counts=(100, 100)
    )
    combined, plain, delta = map(float, adjacency(corpus, target)[1])
    assert plain >= 0.9
    assert combined <= 0.7
    assert delta >= 0.2


def test_adjacency_csv_schema():
    corpus, target = pseudo_corpus(vocabulary=1)
    rows = adjacency(corpus, target)
    assert rows[0] == ("anchored_combination", "plain_bigram", "delta")
    assert len(rows) == 2 and len(rows[1]) == 3


# --- context report -----------------------------------------------------------------

def test_context_report_averages_optima():
    grid = grid_result_from([
        ("un", "noun", "[1gr|lemma|ordered|all]@1", 0.9),
        ("un", "noun", "[1gr|lemma|ordered|all]@2", 0.8),
        ("deux", "noun", "[1gr|lemma|ordered|all]@1", 0.7),
        ("deux", "noun", "[1gr|lemma|ordered|all]@2", 0.9),
    ])
    report = context_report(grid)
    assert report["context.csv"][1:] == [("noun", 1, 2, "1.500")]  # optima 1 and 2
    assert report["context_curves.csv"][1:] == [
        ("noun", "[1gr|lemma|ordered|all]", 1, 2, "0.800000"),  # (0.9 + 0.7) / 2
        ("noun", "[1gr|lemma|ordered|all]", 2, 2, "0.850000"),  # (0.8 + 0.9) / 2
    ]


def test_context_report_flat_curve_takes_smallest():
    grid = grid_result_from([
        ("un", "noun", "[2gr|lemma|ordered|all]@1", 0.5),
        ("un", "noun", "[2gr|lemma|ordered|all]@2", 0.5),
        ("un", "noun", "[2gr|lemma|ordered|all]@3", 0.5),
    ])
    assert context_report(grid)["context.csv"][1:] == [("noun", 2, 1, "1.000")]


def test_context_report_single_size():
    grid = grid_result_from([("un", "noun", "[3gr|lemma|ordered|all]@4", 0.5)])
    assert context_report(grid)["context.csv"][1:] == [("noun", 3, 1, "4.000")]


def test_context_csv_schema():
    grid = grid_result_from([
        ("un", "noun", "[1gr|lemma|ordered|all]@1", 0.9),
        ("un", "noun", "[1gr|lemma|ordered|all]@2", 0.8),
    ])
    rows = context_report(grid)["context.csv"]
    assert rows[0] == ("category", "order", "cells", "avg_optimal_size")
    assert rows[1] == ("noun", 1, 1, "1.000")


# --- every grid reducer against its first version ----------------------------------

# Criteria that pair up under each reducer: filter partners for the ablation,
# size families for the context report, shifts for the shift study.
_POOL = tuple(Criterion(order, "lemma", "leftright", name, size=size, shift=shift)
              for order in (1, 2) for name in ("all", "content") for size in (1, 2, 3)
              for shift in (0, 1))
_PRECISION = st.integers(0, 10).map(lambda k: k / 10)  # so that optimum sizes tie


def _same_rows(reducer, reference, grid):
    """The reducer's rows equal the reference's, or both raise the same error."""
    try:
        expected = reference(grid)
    except (KeyError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            reducer(grid)
        assert str(raised.value) == str(exc)
    else:
        assert reducer(grid) == expected


@st.composite
def _grid_results(draw, cells, drop=True):
    """A GridResult as grid_search orders it: word-ascending, then the cells
    in grid order; several words per category, and with ``drop`` some
    (word, cell) results missing."""
    categories = draw(st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=7))
    words = sorted((f"w{n}", category) for n, category in enumerate(categories))
    return GridResult(tuple(
        result_of_precision(lemma, category, cell, precision)
        for lemma, category in words for cell in cells
        for precision in [draw(_PRECISION)]
        if not (drop and draw(st.integers(0, 9)) == 0)
    ), (), CVParams("nb"))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), criteria=st.lists(st.sampled_from(_POOL), min_size=1, max_size=12,
                                         unique=True))
def test_grid_reducers_equal_their_first_version(data, criteria):
    grid = data.draw(_grid_results([(criterion,) for criterion in criteria]))
    _same_rows(content_ablation, content_ablation_reference, grid)
    _same_rows(context_report, context_report_reference, grid)
    _same_rows(selection_comparison, selection_comparison_reference, grid)
    _same_rows(shift_study, shift_study_reference, grid)
    adjacency = data.draw(_grid_results([ANCHORED_COMBINATION, (PLAIN_BIGRAM,)], drop=False))
    _same_rows(adjacency_experiment, adjacency_experiment_reference, adjacency)


def test_evidence_profile_csv_schema():
    reports = evidence([record("NCOM", -1, True)] * 3)
    rows = reports["evidence_profile.csv"]
    assert rows[0] == ("category", "tag", "uses", "correct", "precision_pct", "usage_pct")
    assert rows[1] == ("noun", "NCOM", 3, 3, "100.0", "100.0")
    assert reports["evidence_space.csv"][1:] == [("noun", "NCOM", -1, 3, 3)]
    assert reports["evidence_summary.csv"][1:] == [("noun", "NCOM", "-1")]
