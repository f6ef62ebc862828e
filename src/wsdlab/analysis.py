"""Report suite over decision records and grid results.

Covers: precision/usage profiles of decision-list evidence by coarse
part-of-speech and by window offset; ablation of word filters against the
all-words baseline; three-way filter comparison under identical folds; window
shift studies; the anchored n-gram combination experiment; and optimal
context-size summaries.  Every report exports CSV with a stable header; the
exact schemas are listed in the package README.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, TextIO

from .corpus import CATEGORIES
from .criteria import Criterion, CriterionGrid, cell_name, family_name, format_criterion
from .evaluation import DecisionRecord, GridResult, WordResult, macro_average

EVIDENCE_PROFILE_HEADER = ("category", "tag", "uses", "correct", "precision_pct", "usage_pct")
EVIDENCE_SPACE_HEADER = ("category", "tag", "offset", "uses", "correct")
EVIDENCE_SUMMARY_HEADER = ("category", "tag", "offsets")
ABLATION_HEADER = ("category", "order", "pairs", "baseline_mean", "variant_mean",
                   "decrease_points", "decrease_relative_pct")
SELECTION_HEADER = ("criterion", "category", "words", "precision")
SHIFT_HEADER = ("shift", "category", "words", "precision", "delta_vs_zero")
ADJACENCY_HEADER = ("anchored_combination", "plain_bigram", "delta")
CONTEXT_HEADER = ("category", "order", "cells", "avg_optimal_size")
CONTEXT_CURVES_HEADER = ("category", "family", "size", "words", "precision")


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


def evidence_profile(records: Sequence[DecisionRecord]) -> EvidenceProfile:
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


@dataclass(frozen=True)
class AblationCell:
    pairs: int
    baseline_mean: float
    variant_mean: float

    @property
    def decrease_points(self) -> float:
        return 100.0 * (self.baseline_mean - self.variant_mean)

    @property
    def decrease_relative_pct(self) -> float | None:
        if self.baseline_mean == 0.0:
            return None
        return 100.0 * (self.baseline_mean - self.variant_mean) / self.baseline_mean


@dataclass(frozen=True)
class AblationReport:
    cells: dict[tuple[str, int], AblationCell]


ABLATION_FILTERS = ("all", "content")


def ablation_grid(grid: CriterionGrid) -> CriterionGrid:
    """The grid itself, once it is known to pair every criterion under both
    ``ABLATION_FILTERS``."""
    missing = [name for name in ABLATION_FILTERS if name not in grid.filters]
    if missing:
        raise ValueError(
            f"ablation compares filters all and content: the grid lacks {', '.join(missing)}"
        )
    return grid


def content_ablation(grid_result: GridResult) -> AblationReport:
    """Precision change per (category, n-gram order) from the ``all`` filter
    to the ``content`` filter, over criterion pairs that differ only in it.

    Every ``all`` criterion must have its ``content`` partner in the grid (and
    vice versa); missing partners are an error.
    """
    indexed: dict[tuple[str, str, Criterion], dict[str, float]] = {}
    for result in grid_result.results:
        (criterion,) = result.cell
        key = (result.lemma, result.category, replace(criterion, filter="all"))
        indexed.setdefault(key, {})[criterion.filter] = result.precision

    missing = []
    diffs: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for (lemma, category, criterion), by_filter in sorted(indexed.items()):
        pair = [by_filter[name] for name in ABLATION_FILTERS if name in by_filter]
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

    cells = {}
    for cell_key, pairs in sorted(diffs.items()):
        baseline_mean = sum(b for b, _ in pairs) / len(pairs)
        variant_mean = sum(v for _, v in pairs) / len(pairs)
        cells[cell_key] = AblationCell(len(pairs), baseline_mean, variant_mean)
    return AblationReport(cells)


def evidence_profiles(grid_result: GridResult) -> dict[str, EvidenceProfile]:
    """One evidence profile per category, over the decision records of all
    its words (a decision-list grid run with records kept)."""
    records: dict[str, list[DecisionRecord]] = {}
    for result in grid_result.results:
        records.setdefault(result.category, []).extend(result.records)
    return {category: evidence_profile(rows) for category, rows in sorted(records.items())}


def _mean(results: Sequence[WordResult]) -> float:
    return sum(result.precision for result in results) / len(results)


def _word_counts(results: Sequence[WordResult]) -> dict[str, int]:
    return dict(Counter(result.category for result in results))


@dataclass(frozen=True)
class SelectionRow:
    criterion: str
    by_category: dict[str, float]
    word_counts: dict[str, int]


@dataclass(frozen=True)
class SelectionReport:
    rows: tuple[SelectionRow, ...]


def selection_criteria(base_criterion: Criterion) -> list[Criterion]:
    """One criterion under the all/content/selected filters."""
    if base_criterion.filter != "all":
        raise ValueError("the base criterion must use filter 'all'")
    return [replace(base_criterion, filter=name) for name in ("all", "content", "selected")]


def selection_comparison(grid_result: GridResult) -> SelectionReport:
    """Per-category macro precision of each criterion of a grid run over
    ``selection_criteria``.  grid_search gives every criterion of a word the
    same folds, so the rows differ in the filter alone."""
    return SelectionReport(tuple(
        SelectionRow(criterion, macro_average(results), _word_counts(results))
        for criterion, results in grid_result.by_criterion().items()
    ))


@dataclass(frozen=True)
class ShiftRow:
    shift: int
    by_category: dict[str, float]
    word_counts: dict[str, int]


@dataclass(frozen=True)
class ShiftReport:
    rows: tuple[ShiftRow, ...]

    def delta_vs_zero(self, shift: int, category: str) -> float:
        zero = next(r for r in self.rows if r.shift == 0)
        row = next(r for r in self.rows if r.shift == shift)
        return row.by_category[category] - zero.by_category[category]


def shift_criteria(criterion: Criterion, shifts: Sequence[int]) -> list[Criterion]:
    """The criterion at each window shift, in the given order.

    Shift 0 must be included: it is the reference every delta is taken
    against.  A repeated shift is an error, as its rows would merge.
    """
    problems = []
    if 0 not in shifts:
        problems.append("the shift list must include 0 (the symmetric reference)")
    repeated = sorted({shift for shift in shifts if shifts.count(shift) > 1})
    if repeated:
        problems.append(f"the shift list repeats {', '.join(map(str, repeated))}")
    if problems:
        raise ValueError("; ".join(problems))
    return [replace(criterion, shift=shift) for shift in shifts]


def shift_study(grid_result: GridResult) -> ShiftReport:
    """Per-category macro precision of each criterion of a grid run over
    ``shift_criteria``, plus an ``all`` aggregate over every target word."""
    rows = []
    for results in grid_result.by_criterion().values():
        by_category = macro_average(results)
        by_category["all"] = _mean(results)
        word_counts = _word_counts(results)
        word_counts["all"] = len(results)
        (criterion,) = results[0].cell
        rows.append(ShiftRow(criterion.shift, by_category, word_counts))
    return ShiftReport(tuple(rows))


ANCHORED_COMBINATION = tuple(
    Criterion(order, "lemma", "leftright", "all", size=order - 1, anchored=True)
    for order in (2, 3, 4, 5)
)
PLAIN_BIGRAM = Criterion(2, "lemma", "leftright", "all", size=4)
ADJACENCY_CELLS = (ANCHORED_COMBINATION, PLAIN_BIGRAM)


@dataclass(frozen=True)
class AdjacencyResult:
    combined_precision: float
    plain_precision: float

    @property
    def delta(self) -> float:
        return self.plain_precision - self.combined_precision


def adjacency_experiment(grid_result: GridResult) -> AdjacencyResult:
    """Compare target-containing n-grams against free bigrams, from a grid
    run over ``ADJACENCY_CELLS``.

    Configuration (a) combines anchored 2..5-grams over windows 1..4, so every
    feature's span contains the target; configuration (b) is the plain
    left/right bigram criterion over a window of 4.  Identical folds; macro
    precision over all targets.
    """
    by_criterion = grid_result.by_criterion()
    return AdjacencyResult(
        combined_precision=_mean(by_criterion[cell_name(ANCHORED_COMBINATION)]),
        plain_precision=_mean(by_criterion[cell_name((PLAIN_BIGRAM,))]),
    )


@dataclass(frozen=True)
class ContextReport:
    """Average optimal context size per (category, n-gram order), plus the
    precision-vs-size curve of every criterion family."""

    avg_optimal: dict[tuple[str, int], float]
    cell_counts: dict[tuple[str, int], int]
    curves: dict[tuple[str, str, int], tuple[int, float]]


def context_report(grid_result: GridResult) -> ContextReport:
    """Optimal window sizes from a grid run.

    A family is a criterion with the size stripped; per (word, family) the
    optimal size maximises precision with ties to the smaller size.  Each
    (category, order) cell averages those optima; curves carry the macro
    precision per family and size.
    """
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

    return ContextReport(
        avg_optimal={
            key: sum(sizes) / len(sizes) for key, sizes in sorted(optima.items())
        },
        cell_counts={key: len(sizes) for key, sizes in sorted(optima.items())},
        curves={
            key: (len(values), sum(values) / len(values))
            for key, values in sorted(curve_points.items())
        },
    )


# --- CSV writers -------------------------------------------------------------


def _writer(stream: TextIO) -> csv.writer:
    return csv.writer(stream, lineterminator="\n")


def write_evidence_profile_csv(
    profiles: Mapping[str, EvidenceProfile], stream: TextIO
) -> None:
    """Per category and coarse tag: uses, correct uses, precision and usage
    proportion of non-fallback decisions."""
    writer = _writer(stream)
    writer.writerow(EVIDENCE_PROFILE_HEADER)
    for category in sorted(profiles, key=_category_order):
        profile = profiles[category]
        for tag in sorted(profile.tag_uses, key=lambda t: (-profile.tag_uses[t], t)):
            writer.writerow(
                (category, tag, profile.tag_uses[tag], profile.tag_correct.get(tag, 0),
                 f"{profile.precision_pct(tag):.1f}", f"{profile.usage_pct(tag):.1f}")
            )


def write_evidence_space_csv(
    profiles: Mapping[str, EvidenceProfile], stream: TextIO
) -> None:
    """Numeric offset histograms (uses and correct uses per tag and offset)."""
    writer = _writer(stream)
    writer.writerow(EVIDENCE_SPACE_HEADER)
    for category in sorted(profiles, key=_category_order):
        profile = profiles[category]
        for tag, offset in sorted(profile.offset_uses):
            writer.writerow(
                (category, tag, offset, profile.offset_uses[(tag, offset)],
                 profile.offset_correct.get((tag, offset), 0))
            )


def write_evidence_summary_csv(
    profiles: Mapping[str, EvidenceProfile], stream: TextIO
) -> None:
    """Dominant evidence offsets per tag (the most-used positions)."""
    writer = _writer(stream)
    writer.writerow(EVIDENCE_SUMMARY_HEADER)
    for category in sorted(profiles, key=_category_order):
        summary = space_distribution_summary(profiles[category])
        for tag, offsets in summary.items():
            writer.writerow((category, tag, ";".join(f"{o:+d}" for o in offsets)))


def _category_order(category: str) -> tuple[int, str]:
    try:
        return (CATEGORIES.index(category), category)
    except ValueError:
        return (len(CATEGORIES), category)


def write_ablation_csv(report: AblationReport, stream: TextIO) -> None:
    writer = _writer(stream)
    writer.writerow(ABLATION_HEADER)
    for (category, order), cell in sorted(
        report.cells.items(), key=lambda item: (_category_order(item[0][0]), item[0][1])
    ):
        relative = cell.decrease_relative_pct
        writer.writerow(
            (category, order, cell.pairs,
             f"{cell.baseline_mean:.6f}", f"{cell.variant_mean:.6f}",
             f"{cell.decrease_points:.3f}",
             f"{relative:.3f}" if relative is not None else "")
        )


def write_selection_csv(report: SelectionReport, stream: TextIO) -> None:
    writer = _writer(stream)
    writer.writerow(SELECTION_HEADER)
    for row in report.rows:
        for category in sorted(row.by_category, key=_category_order):
            writer.writerow(
                (row.criterion, category, row.word_counts[category],
                 f"{row.by_category[category]:.6f}")
            )


def write_shift_csv(report: ShiftReport, stream: TextIO) -> None:
    writer = _writer(stream)
    writer.writerow(SHIFT_HEADER)
    for row in report.rows:
        for category in sorted(row.by_category, key=_category_order):
            writer.writerow(
                (row.shift, category, row.word_counts[category],
                 f"{row.by_category[category]:.6f}",
                 f"{report.delta_vs_zero(row.shift, category):.6f}")
            )


def write_adjacency_csv(result: AdjacencyResult, stream: TextIO) -> None:
    writer = _writer(stream)
    writer.writerow(ADJACENCY_HEADER)
    writer.writerow(
        (f"{result.combined_precision:.6f}", f"{result.plain_precision:.6f}",
         f"{result.delta:.6f}")
    )


def write_context_csv(report: ContextReport, stream: TextIO) -> None:
    writer = _writer(stream)
    writer.writerow(CONTEXT_HEADER)
    for (category, order), value in sorted(
        report.avg_optimal.items(), key=lambda item: (_category_order(item[0][0]), item[0][1])
    ):
        writer.writerow(
            (category, order, report.cell_counts[(category, order)], f"{value:.3f}")
        )


def write_context_curves_csv(report: ContextReport, stream: TextIO) -> None:
    writer = _writer(stream)
    writer.writerow(CONTEXT_CURVES_HEADER)
    for (category, family, size), (words, precision) in sorted(
        report.curves.items(),
        key=lambda item: (_category_order(item[0][0]), item[0][1], item[0][2]),
    ):
        writer.writerow((category, family, size, words, f"{precision:.6f}"))
