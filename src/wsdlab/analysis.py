"""Report suite: the CSV rows of every report.

Covers: each (word, cell)'s precisions; per-target corpus statistics;
precision/usage profiles of decision-list evidence by coarse part-of-speech
and by window offset; ablation of word filters against the all-words
baseline; three-way filter comparison under identical folds; window shift
studies; the anchored n-gram combination experiment; and optimal context-size
summaries.  Each reducer returns its report as CSV rows, header first, every
value as the file prints it; the exact schemas are listed in the package README.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Sequence

from .corpus import CATEGORIES, Corpus, extract_occurrences
from .criteria import Cell, Criterion, CriterionGrid, cell_name, family_name, format_criterion
from .evaluation import GridResult

GRID_CSV_HEADER = ("word", "category", "criterion", "size", "classifier",
                   "precision", "fold_precisions")
STATS_HEADER = ("word", "category", "frequency", "senses", "entropy", "mfs")
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


def _category_order(category: str) -> tuple[int, str]:
    try:
        return (CATEGORIES.index(category), category)
    except ValueError:
        return (len(CATEGORIES), category)


def _by_category(item: tuple[tuple, object]) -> tuple:
    """Sort key of a ``(key, value)`` item whose key starts with a category."""
    category, *rest = item[0]
    return (_category_order(category), *rest)


def _partners(grid_result: GridResult, field: str, reference: object) -> dict[tuple, dict]:
    """Each (word, category, criterion with ``field`` set to ``reference``),
    in sorted order, mapped to ``{field value: precision}`` over the results
    whose criterion differs from that key in ``field`` alone."""
    partners: dict[tuple[str, str, Criterion], dict] = {}
    for result in grid_result.results:
        (criterion,) = result.cell
        key = (result.lemma, result.category, replace(criterion, **{field: reference}))
        partners.setdefault(key, {})[getattr(criterion, field)] = result.precision
    return dict(sorted(partners.items()))


def _columns(grid_result: GridResult) -> dict[Cell, dict[str, list[float]]]:
    """Per cell, in grid order: each category's word precisions, categories
    in report order, then every word's precisions under ``all`` (which sorts
    after every category).  Each column keeps the results' word order."""
    cells: dict[Cell, dict[str, list[float]]] = {}
    for result in grid_result.results:
        columns = cells.setdefault(result.cell, {"all": []})
        columns.setdefault(result.category, []).append(result.precision)
        columns["all"].append(result.precision)
    return {cell: dict(sorted(columns.items(), key=lambda item: _category_order(item[0])))
            for cell, columns in cells.items()}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def grid_rows(grid_result: GridResult) -> list[tuple]:
    """``grid.csv`` rows: one per (word, cell), in result order."""
    plans, classifier = grid_result.plans, grid_result.params.classifier
    return [GRID_CSV_HEADER] + [
        (result.lemma, result.category, result.criterion, max(c.size for c in result.cell),
         classifier, f"{result.precision:.6f}", ";".join(f"{p:.6f}" for p in (
             plans[result.lemma, result.category].fold_precisions(result.correct))))
        for result in grid_result.results
    ]


def stats_rows(corpus: Corpus, targets: Sequence[tuple[str, str]]) -> list[tuple]:
    """``stats.csv``: each target's frequency, sense count, sense entropy in
    bits and most-frequent-sense share, then per category an ``AVERAGE`` row
    of their unweighted means over its targets that occur.  A target that
    does not occur has frequency 0 and empty entropy and mfs."""
    rows = [STATS_HEADER]
    occurring: dict[str, list[tuple[int, int, float, float]]] = {}
    for lemma, category in targets:
        counts = Counter(occ.sense for occ in extract_occurrences(corpus, lemma, category))
        total = counts.total()
        if not total:
            rows.append((lemma, category, 0, 0, "", ""))
            continue
        # Negated terms, not a negated sum: one sense gives 0.0, not -0.0.
        entropy = sum(-p * math.log2(p) for p in (counts[s] / total for s in sorted(counts)))
        mfs = max(counts.values()) / total
        occurring.setdefault(category, []).append((total, len(counts), entropy, mfs))
        rows.append((lemma, category, total, len(counts), f"{entropy:.6f}", f"{mfs:.6f}"))
    for category in CATEGORIES:
        if category in occurring:
            words = occurring[category]
            frequency, senses, entropy, mfs = (sum(column) / len(words)
                                               for column in zip(*words))
            rows.append(("AVERAGE", category, f"{frequency:.1f}", f"{senses:.1f}",
                         f"{entropy:.6f}", f"{mfs:.6f}"))
    return rows


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


def content_ablation(grid_result: GridResult) -> list[tuple]:
    """Precision change per (category, n-gram order) from the ``all`` filter
    to the ``content`` filter, over criterion pairs that differ only in it.

    Every ``all`` criterion must have its ``content`` partner in the grid (and
    vice versa); missing partners are an error.
    """
    missing = []
    diffs: dict[tuple[str, int], list[tuple[float, float]]] = {}
    partners = _partners(grid_result, "filter", "all")
    for (lemma, category, criterion), by_filter in partners.items():
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

    rows = [ABLATION_HEADER]
    for (category, order), pairs in sorted(diffs.items(), key=_by_category):
        baseline, variant = map(_mean, zip(*pairs))
        decrease = 100.0 * (baseline - variant)
        rows.append((category, order, len(pairs), f"{baseline:.6f}", f"{variant:.6f}",
                     f"{decrease:.3f}", f"{decrease / baseline:.3f}" if baseline else ""))
    return rows


# The problem with a result that holds no span for a decision to credit.
_NO_EVIDENCE = "record lacks evidence: evidence profiles need decision-list runs"


def evidence_reports(grid_result: GridResult) -> dict[str, list[tuple]]:
    """The three evidence reports of a decision-list grid run with records
    kept.  Each decision whose fallback bit is clear is credited, within its
    word's category, to the coarse tag and window offset of its evidence,
    which must be a single token: multi-token evidence has no single
    part-of-speech to credit."""
    uses: Counter[tuple[str, str, int]] = Counter()
    correct: Counter[tuple[str, str, int]] = Counter()
    for result in grid_result.results:
        # A run without records keeps no evidence at all.
        if len(result.evidence) < result.decisions:
            raise ValueError(_NO_EVIDENCE)
        for i, span in enumerate(result.evidence):
            if result.fallback >> i & 1:
                continue
            if span is None:
                raise ValueError(_NO_EVIDENCE)
            offsets, cgems = span
            if len(offsets) != 1:
                raise ValueError("evidence profiles need unigram criteria (single-token evidence)")
            key = (result.category, cgems[0], offsets[0])
            uses[key] += 1
            correct[key] += result.correct >> i & 1

    space_rows = [EVIDENCE_SPACE_HEADER]
    offsets_by_tag: dict[str, dict[str, list[int]]] = {}  # category -> tag -> offsets
    for (category, tag, offset), count in sorted(uses.items(), key=_by_category):
        space_rows.append((category, tag, offset, count, correct[category, tag, offset]))
        offsets_by_tag.setdefault(category, {}).setdefault(tag, []).append(offset)
    profile_rows = [EVIDENCE_PROFILE_HEADER]
    summary_rows = [EVIDENCE_SUMMARY_HEADER]
    for category, tags in offsets_by_tag.items():
        tag_uses = {tag: sum(uses[category, tag, o] for o in tags[tag]) for tag in tags}
        decided = sum(tag_uses.values())
        for tag in sorted(tags, key=lambda t: (-tag_uses[t], t)):
            right = sum(correct[category, tag, o] for o in tags[tag])
            profile_rows.append((category, tag, tag_uses[tag], right,
                                 f"{100.0 * right / tag_uses[tag]:.1f}",
                                 f"{100.0 * tag_uses[tag] / decided:.1f}"))
        for tag, offsets in tags.items():
            # The two offsets with the most decisions, ties to the nearer one.
            top = sorted(offsets, key=lambda o: (-uses[category, tag, o], abs(o), o))[:2]
            summary_rows.append((category, tag, ";".join(f"{o:+d}" for o in top)))
    return {
        "evidence_profile.csv": profile_rows,
        "evidence_space.csv": space_rows,
        "evidence_summary.csv": summary_rows,
    }


def selection_criteria(base_criterion: Criterion) -> list[Cell]:
    """The cells of one criterion under the all/content/selected filters."""
    if base_criterion.filter != "all":
        raise ValueError("the base criterion must use filter 'all'")
    return [(replace(base_criterion, filter=name),) for name in ("all", "content", "selected")]


def selection_comparison(grid_result: GridResult) -> list[tuple]:
    """Per-category macro precision of each criterion of a grid run over
    ``selection_criteria``.  grid_search gives every criterion of a word the
    same folds, so the rows differ in the filter alone."""
    rows = [SELECTION_HEADER]
    for cell, columns in _columns(grid_result).items():
        rows.extend((cell_name(cell), category, len(values), f"{_mean(values):.6f}")
                    for category, values in columns.items() if category != "all")
    return rows


def shift_criteria(criterion: Criterion, shifts: Sequence[int]) -> list[Cell]:
    """The cells of the criterion at each window shift, in the given order.

    Shift 0 must be included: it is the reference every delta is taken
    against.  A repeated shift is an error, as its rows would merge, and so
    is a criterion with a shift of its own, which would be replaced.
    """
    problems = []
    if criterion.shift != 0:
        problems.append("the base criterion must have no shift")
    if 0 not in shifts:
        problems.append("the shift list must include 0 (the symmetric reference)")
    repeated = sorted({shift for shift in shifts if shifts.count(shift) > 1})
    if repeated:
        problems.append(f"the shift list repeats {', '.join(map(str, repeated))}")
    if problems:
        raise ValueError("\n".join(problems))
    return [(replace(criterion, shift=shift),) for shift in shifts]


def shift_study(grid_result: GridResult) -> list[tuple]:
    """Per-category macro precision of each criterion of a grid run over
    ``shift_criteria``, plus an ``all`` aggregate over every target word,
    each with its change from shift 0."""
    by_shift = {criterion.shift: columns
                for (criterion,), columns in _columns(grid_result).items()}
    zero = by_shift[0]
    rows = [SHIFT_HEADER]
    for shift, columns in by_shift.items():
        for category, values in columns.items():
            precision = _mean(values)
            rows.append((shift, category, len(values), f"{precision:.6f}",
                         f"{precision - _mean(zero[category]):.6f}"))
    return rows


ANCHORED_COMBINATION = tuple(
    Criterion(order, "lemma", "leftright", "all", size=order - 1, anchored=True)
    for order in (2, 3, 4, 5)
)
PLAIN_BIGRAM = Criterion(2, "lemma", "leftright", "all", size=4)
ADJACENCY_CELLS = (ANCHORED_COMBINATION, (PLAIN_BIGRAM,))


def adjacency_experiment(grid_result: GridResult) -> list[tuple]:
    """Compare target-containing n-grams against free bigrams, from a grid
    run over ``ADJACENCY_CELLS``.

    Configuration (a) combines anchored 2..5-grams over windows 1..4, so every
    feature's span contains the target; configuration (b) is the plain
    left/right bigram criterion over a window of 4.  Identical folds; macro
    precision over all targets.
    """
    columns = _columns(grid_result)
    combined = _mean(columns[ANCHORED_COMBINATION]["all"])
    plain = _mean(columns[(PLAIN_BIGRAM,)]["all"])
    return [ADJACENCY_HEADER, (f"{combined:.6f}", f"{plain:.6f}", f"{plain - combined:.6f}")]


def context_report(grid_result: GridResult) -> dict[str, list[tuple]]:
    """Optimal window sizes from a grid run: ``context.csv`` and
    ``context_curves.csv``.

    A family is a criterion with the size stripped; per (word, family) the
    optimal size maximises precision with ties to the smaller size.  Each
    (category, order) cell averages those optima; curves carry the macro
    precision per family and size.
    """
    optima: dict[tuple[str, int], list[int]] = {}
    curve_points: dict[tuple[str, str, int], list[float]] = {}
    for (_, category, family), by_size in _partners(grid_result, "size", 1).items():
        best_size = min(by_size, key=lambda size: (-by_size[size], size))
        optima.setdefault((category, family.order), []).append(best_size)
        name = family_name(family)
        for size, precision in by_size.items():
            curve_points.setdefault((category, name, size), []).append(precision)

    return {
        "context.csv": [CONTEXT_HEADER] + [
            (category, order, len(sizes), f"{_mean(sizes):.3f}")
            for (category, order), sizes in sorted(optima.items(), key=_by_category)
        ],
        "context_curves.csv": [CONTEXT_CURVES_HEADER] + [
            (category, family, size, len(values), f"{_mean(values):.6f}")
            for (category, family, size), values in sorted(curve_points.items(),
                                                           key=_by_category)
        ],
    }


