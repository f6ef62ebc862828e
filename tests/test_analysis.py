import io

import pytest

from wsdlab import (
    ADJACENCY_CELLS,
    PseudowordConfig,
    adjacency_experiment,
    content_ablation,
    context_report,
    cross_validate,
    evidence_profile,
    extract_occurrences,
    generate_pseudoword_corpus,
    grid_search,
    kfold_split,
    mfs_baseline,
    parse_criterion,
    selection_comparison,
    selection_criteria,
    shift_criteria,
    shift_study,
    space_distribution_summary,
)
from wsdlab.analysis import (
    ABLATION_HEADER,
    write_ablation_csv,
    write_adjacency_csv,
    write_context_csv,
    write_evidence_profile_csv,
    write_selection_csv,
    write_shift_csv,
)
from wsdlab.evaluation import DecisionRecord, GridResult, WordResult


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
        grid_search(corpus, [target], selection_criteria(base), "nb", k=10, seed=0)
    )


def shifts(corpus, target, criterion, values):
    return shift_study(
        grid_search(corpus, [target], shift_criteria(criterion, values), "nb", k=10, seed=0)
    )


def adjacency(corpus, target):
    return adjacency_experiment(
        grid_search(corpus, [target], ADJACENCY_CELLS, "nb", k=10, seed=0)
    )


def record(tag, offset, correct, fallback=False, n=0):
    return DecisionRecord(
        occurrence_id=f"d:{n}",
        gold="g",
        predicted="g" if correct else "x",
        used_fallback=fallback,
        evidence=None if fallback else ((offset,), (tag,)),
    )


# --- evidence profile ---------------------------------------------------------

def test_profile_counts_per_tag():
    records = [record("NCOM", -1, i < 9, n=i) for i in range(10)]
    profile = evidence_profile(records)
    assert profile.tag_uses == {"NCOM": 10}
    assert profile.precision_pct("NCOM") == pytest.approx(90.0)
    assert profile.usage_pct("NCOM") == pytest.approx(100.0)


def test_profile_all_fallback_is_empty():
    records = [record("", 0, True, fallback=True, n=i) for i in range(4)]
    profile = evidence_profile(records)
    assert profile.decided == 0
    assert profile.tag_uses == {}
    assert profile.fallback_uses == 4


def test_profile_rejects_nb_records():
    bad = DecisionRecord("d:0", "g", "g", used_fallback=False)
    with pytest.raises(ValueError, match="decision-list"):
        evidence_profile([bad])


def test_profile_rejects_multitoken_evidence():
    bad = DecisionRecord("d:0", "g", "g", False, evidence=((-2, -1), ("DET", "NCOM")))
    with pytest.raises(ValueError, match="unigram"):
        evidence_profile([bad])


def test_profile_consistency_with_word_result():
    corpus, (lemma, category) = pseudo_corpus(noise=0.5, vocabulary=2000, counts=(70, 30))
    occurrences = extract_occurrences(corpus, lemma, category)
    plan = kfold_split(occurrences, 10, 1)
    result = cross_validate(corpus, plan, parse_criterion("[1gr|lemma|ordered|all]@1"), "dl")
    profile = evidence_profile(result.records)
    assert profile.fallback_uses > 0  # the engineered sparsity forces fallbacks
    assert profile.overall_precision == result.precision
    usage_total = sum(profile.usage_pct(tag) for tag in profile.tag_uses)
    assert usage_total == pytest.approx(100.0, abs=0.1)
    for tag in profile.tag_uses:
        assert profile.tag_correct.get(tag, 0) <= profile.tag_uses[tag]


def test_space_summary_orders_and_ties():
    records = (
        [record("NCOM", -2, True, n=i) for i in range(5)]
        + [record("NCOM", 2, True, n=i + 10) for i in range(5)]
        + [record("NCOM", 3, True, n=20)]
        + [record("DET", -1, True, n=30)]
    )
    profile = evidence_profile(records)
    summary = space_distribution_summary(profile)
    assert summary["NCOM"] == (-2, 2)  # tied peaks resolve to smaller |offset| first
    assert summary["DET"] == (-1,)


def test_space_summary_uniform_prefers_near_offsets():
    records = [record("ADJ", o, True, n=i) for i, o in enumerate([-3, -1, 2, 4])]
    summary = space_distribution_summary(evidence_profile(records))
    assert summary["ADJ"] == (-1, 2)


# --- ablation -------------------------------------------------------------------

def grid_result_from(rows):
    results = tuple(
        WordResult(lemma, category, (parse_criterion(criterion),), "dl", precision,
                   (precision,), ())
        for lemma, category, criterion, precision in rows
    )
    return GridResult(results, (), "dl")


def test_ablation_pair_decrease():
    grid = grid_result_from([
        ("mot", "noun", "[1gr|mform|ordered|all]@1", 0.815),
        ("mot", "noun", "[1gr|mform|ordered|content]@1", 0.789),
    ])
    report = content_ablation(grid)
    cell = report.cells[("noun", 1)]
    assert cell.pairs == 1
    assert cell.decrease_points == pytest.approx(2.6)
    assert cell.decrease_relative_pct == pytest.approx(100 * 0.026 / 0.815)


def test_ablation_zero_and_negative_deltas():
    grid = grid_result_from([
        ("mot", "noun", "[2gr|lemma|ordered|all]@3", 0.70),
        ("mot", "noun", "[2gr|lemma|ordered|content]@3", 0.70),
        ("mot", "noun", "[1gr|lemma|ordered|all]@3", 0.60),
        ("mot", "noun", "[1gr|lemma|ordered|content]@3", 0.65),
    ])
    report = content_ablation(grid)
    assert report.cells[("noun", 2)].decrease_points == pytest.approx(0.0)
    assert report.cells[("noun", 1)].decrease_points == pytest.approx(-5.0)


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
    buffer = io.StringIO()
    write_ablation_csv(content_ablation(grid), buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(ABLATION_HEADER)
    assert lines[1].startswith("noun,1,1,0.815000,0.789000,2.600,")


# --- selection -------------------------------------------------------------------

def test_selection_preserved_signal():
    # signal tokens are NCOM: every filter keeps them, so all three rows match
    corpus, target = pseudo_corpus(signal_pos="NCOM", vocabulary=1)
    base = parse_criterion("[1gr|lemma|ordered|all]@1")
    report = selection(corpus, target, base)
    assert [row.criterion for row in report.rows] == [
        "[1gr|lemma|ordered|all]@1",
        "[1gr|lemma|ordered|content]@1",
        "[1gr|lemma|ordered|selected]@1",
    ]
    for row in report.rows:
        assert row.by_category["noun"] == 1.0


def test_selection_removed_signal_drops_to_baseline():
    # DET signal on a noun target: the noun "selected" tag set drops it, while
    # the full-context run still separates perfectly
    corpus, target = pseudo_corpus(signal_pos="DET", vocabulary=1, counts=(60, 40))
    occurrences = extract_occurrences(corpus, *target)
    base = parse_criterion("[1gr|lemma|ordered|all]@1")
    report = selection(corpus, target, base)
    rows = {row.criterion.split("|")[-1].split("]")[0]: row for row in report.rows}
    assert rows["all"].by_category["noun"] == 1.0
    assert rows["selected"].by_category["noun"] == pytest.approx(
        mfs_baseline(occurrences), abs=0.05
    )


def test_selection_requires_all_filter_base():
    corpus, target = pseudo_corpus()
    with pytest.raises(ValueError, match="all"):
        selection_criteria(parse_criterion("[1gr|lemma|ordered|content]@1"))


def test_selection_shares_fold_plans():
    corpus, target = pseudo_corpus()
    base = parse_criterion("[1gr|lemma|ordered|all]@1")
    report = selection(corpus, target, base)
    plan = kfold_split(extract_occurrences(corpus, *target), 10, 0)
    for row, criterion in zip(report.rows, selection_criteria(base), strict=True):
        alone = grid_search(corpus, [target], [criterion], "nb", k=10, seed=0)
        assert row.criterion == alone.results[0].criterion
        assert row.by_category == {"noun": alone.results[0].precision}
        assert alone.results[0] == cross_validate(corpus, plan, criterion, "nb",
                                                  keep_records=False)


def test_selection_csv_schema():
    corpus, target = pseudo_corpus(vocabulary=1)
    report = selection(corpus, target, parse_criterion("[1gr|lemma|ordered|all]@1"))
    buffer = io.StringIO()
    write_selection_csv(report, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "criterion,category,words,precision"
    assert len(lines) == 4  # 3 filters x 1 category


# --- shift study -----------------------------------------------------------------

def test_shift_study_finds_forward_signal():
    # signal lives at +2 only; a +1-shifted window @1 covers [0+1-1, 1+1] = {1, 2}
    corpus, target = pseudo_corpus(signal_offsets=(2,), vocabulary=1)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    report = shifts(corpus, target, criterion, [0, 1])
    by_shift = {row.shift: row.by_category["noun"] for row in report.rows}
    assert by_shift[1] == 1.0
    assert by_shift[1] > by_shift[0]
    assert report.delta_vs_zero(1, "noun") > 0.3


def test_shift_study_symmetric_signal_is_flat():
    corpus, target = pseudo_corpus(signal_offsets=(-1, 1), vocabulary=1)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@2")
    report = shifts(corpus, target, criterion, [0, 1, -1])
    for shift in (1, -1):
        assert abs(report.delta_vs_zero(shift, "noun")) <= 0.05


def test_shift_study_single_zero_row():
    corpus, target = pseudo_corpus(vocabulary=1)
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    report = shifts(corpus, target, criterion, [0])
    assert len(report.rows) == 1
    assert report.delta_vs_zero(0, "noun") == 0.0


def test_shift_study_requires_zero():
    criterion = parse_criterion("[1gr|lemma|ordered|all]@1")
    with pytest.raises(ValueError, match="include 0"):
        shift_criteria(criterion, [1, 2])
    with pytest.raises(ValueError, match="repeats 1"):
        shift_criteria(criterion, [0, 1, 1])


def test_shift_csv_schema():
    corpus, target = pseudo_corpus(vocabulary=1)
    report = shifts(corpus, target, parse_criterion("[1gr|lemma|ordered|all]@1"), [0, 1])
    buffer = io.StringIO()
    write_shift_csv(report, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "shift,category,words,precision,delta_vs_zero"
    assert len(lines) == 1 + 2 * 2  # 2 shifts x (noun + all)


# --- adjacency experiment ----------------------------------------------------------

def test_adjacency_adjacent_signal_ties():
    corpus, target = pseudo_corpus(signal_offsets=(-1,), vocabulary=1)
    result = adjacency(corpus, target)
    assert result.combined_precision == 1.0
    assert result.plain_precision == 1.0
    assert result.delta == pytest.approx(0.0)


def test_adjacency_distant_signal_favors_plain_bigram():
    # cue at offset -3 amid varied fillers: the plain bigram@4 captures it in
    # well-populated 2-token spans, while the anchored combination reaches it
    # only inside sparse 4/5-grams, which rarely recur between folds
    corpus, target = pseudo_corpus(
        signal_offsets=(-3,), vocabulary=40, counts=(100, 100)
    )
    result = adjacency(corpus, target)
    assert result.plain_precision >= 0.9
    assert result.combined_precision <= 0.7
    assert result.delta >= 0.2


def test_adjacency_csv_schema():
    corpus, target = pseudo_corpus(vocabulary=1)
    result = adjacency(corpus, target)
    buffer = io.StringIO()
    write_adjacency_csv(result, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "anchored_combination,plain_bigram,delta"
    assert len(lines) == 2


# --- context report -----------------------------------------------------------------

def test_context_report_averages_optima():
    grid = grid_result_from([
        ("un", "noun", "[1gr|lemma|ordered|all]@1", 0.9),
        ("un", "noun", "[1gr|lemma|ordered|all]@2", 0.8),
        ("deux", "noun", "[1gr|lemma|ordered|all]@1", 0.7),
        ("deux", "noun", "[1gr|lemma|ordered|all]@2", 0.9),
    ])
    report = context_report(grid)
    assert report.avg_optimal[("noun", 1)] == pytest.approx(1.5)
    assert report.cell_counts[("noun", 1)] == 2
    assert report.curves[("noun", "[1gr|lemma|ordered|all]", 1)] == (2, pytest.approx(0.8))


def test_context_report_flat_curve_takes_smallest():
    grid = grid_result_from([
        ("un", "noun", "[2gr|lemma|ordered|all]@1", 0.5),
        ("un", "noun", "[2gr|lemma|ordered|all]@2", 0.5),
        ("un", "noun", "[2gr|lemma|ordered|all]@3", 0.5),
    ])
    report = context_report(grid)
    assert report.avg_optimal[("noun", 2)] == 1.0


def test_context_report_single_size():
    grid = grid_result_from([("un", "noun", "[3gr|lemma|ordered|all]@4", 0.5)])
    report = context_report(grid)
    assert report.avg_optimal[("noun", 3)] == 4.0


def test_context_csv_schema():
    grid = grid_result_from([
        ("un", "noun", "[1gr|lemma|ordered|all]@1", 0.9),
        ("un", "noun", "[1gr|lemma|ordered|all]@2", 0.8),
    ])
    buffer = io.StringIO()
    write_context_csv(context_report(grid), buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "category,order,cells,avg_optimal_size"
    assert lines[1] == "noun,1,1,1.000"


def test_evidence_profile_csv_schema():
    records = [record("NCOM", -1, True, n=i) for i in range(3)]
    profiles = {"noun": evidence_profile(records)}
    buffer = io.StringIO()
    write_evidence_profile_csv(profiles, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "category,tag,uses,correct,precision_pct,usage_pct"
    assert lines[1] == "noun,NCOM,3,3,100.0,100.0"
