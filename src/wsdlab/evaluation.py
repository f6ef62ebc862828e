"""Cross-validation harness and criterion grid search.

Folds are stratified by gold sense and fully determined by (occurrences, k,
seed), so any run is reproducible bit-for-bit.  The (word x criterion) grid is
evaluated cell by cell; cells are independent, so they can be dispatched to a
worker pool without affecting the results.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .classifiers import (
    Prediction,
    SmoothingParams,
    classify_dl,
    classify_nb,
    train_dl,
    train_nb,
)
from .corpus import Corpus, Occurrence, extract_occurrences
from .criteria import (
    Criterion,
    CriterionGrid,
    Span,
    cell_name,
    combine_features,
    enumerate_grid,
    extract_features,
)

CLASSIFIERS = ("nb", "dl")

GRID_CSV_HEADER = ("word", "category", "criterion", "size", "classifier",
                   "precision", "fold_precisions")


def check_classifier(classifier: str) -> None:
    """Raise ``ValueError`` unless ``classifier`` is one of ``CLASSIFIERS``."""
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {classifier!r}: "
                         f"valid ids are {', '.join(CLASSIFIERS)}")


@dataclass(frozen=True)
class FoldPlan:
    """Stratified partition of one word's occurrences into k folds."""

    k: int
    seed: int
    occurrences: tuple[Occurrence, ...]
    assignment: tuple[int, ...]

    def test_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.assignment) if f == fold)

    def train_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.assignment) if f != fold)


def kfold_split(occurrences: Sequence[Occurrence], k: int, seed: int) -> FoldPlan:
    """Deterministic stratified k-fold assignment.

    Each sense group is shuffled and dealt round-robin, rotating the starting
    fold between groups, so fold sizes differ by at most one overall and
    within every sense.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(occurrences) < k:
        raise ValueError(f"need at least k={k} occurrences, got {len(occurrences)}")
    groups: dict[str, list[int]] = {}
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
    return FoldPlan(k, seed, tuple(occurrences), tuple(assignment))


@dataclass(frozen=True)
class DecisionRecord:
    """Trace of one classified occurrence; the evidence span is present only
    for decision-list decisions that did not fall back."""

    occurrence_id: str
    gold: str
    predicted: str
    used_fallback: bool
    evidence: Span | None = None

    @property
    def correct(self) -> bool:
        return self.predicted == self.gold


@dataclass(frozen=True)
class WordResult:
    lemma: str
    category: str
    cell: tuple[Criterion, ...]
    classifier: str
    precision: float
    fold_precisions: tuple[float, ...]
    records: tuple[DecisionRecord, ...]

    @property
    def criterion(self) -> str:
        """The cell's name, as the reports print it."""
        return cell_name(self.cell)


@dataclass(frozen=True)
class SkippedWord:
    lemma: str
    category: str
    reason: str


def _classify_fold(
    classifier: str,
    training: list[tuple],
    test_vectors: list,
    smoothing: SmoothingParams,
) -> list[Prediction]:
    train, classify = (train_nb, classify_nb) if classifier == "nb" else (train_dl, classify_dl)
    model = train(training, smoothing)
    return [classify(model, v) for v in test_vectors]


def cross_validate(
    corpus: Corpus,
    plan: FoldPlan,
    criteria: Criterion | Sequence[Criterion],
    classifier: str,
    smoothing: SmoothingParams = SmoothingParams(),
    *,
    content_mode: str = "reindex",
    keep_records: bool = True,
) -> WordResult:
    """Train on k-1 folds, classify the held-out fold, for every fold.

    ``criteria`` may be a single criterion or several; several are combined
    into one namespaced feature vector per occurrence.  Precision pools
    correct decisions over all folds, so every occurrence counts exactly once.
    """
    check_classifier(classifier)
    criteria = (criteria,) if isinstance(criteria, Criterion) else tuple(criteria)
    if not criteria:
        raise ValueError("at least one criterion is required")
    occurrences = plan.occurrences
    vectors = [
        combine_features(criteria, [
            extract_features(corpus, occ, criterion, content_mode=content_mode)
            for criterion in criteria
        ])
        for occ in occurrences
    ]

    records: list[DecisionRecord] = []
    fold_precisions: list[float] = []
    total_correct = 0
    for fold in range(plan.k):
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        training = [(vectors[i], occurrences[i].sense) for i in train_idx]
        predictions = _classify_fold(
            classifier, training, [vectors[i] for i in test_idx], smoothing
        )
        correct = 0
        for i, prediction in zip(test_idx, predictions):
            occ = occurrences[i]
            if prediction.sense == occ.sense:
                correct += 1
            if keep_records:
                records.append(DecisionRecord(
                    occ.id, occ.sense, prediction.sense, prediction.used_fallback,
                    prediction.evidence,
                ))
        fold_precisions.append(correct / len(test_idx) if test_idx else 0.0)
        total_correct += correct

    return WordResult(
        lemma=occurrences[0].lemma,
        category=occurrences[0].category,
        cell=criteria,
        classifier=classifier,
        precision=total_correct / len(occurrences),
        fold_precisions=tuple(fold_precisions),
        records=tuple(records),
    )


@dataclass(frozen=True)
class GridResult:
    """Full (word x criterion) precision matrix plus the skipped words."""

    results: tuple[WordResult, ...]
    skipped: tuple[SkippedWord, ...]
    classifier: str

    def by_criterion(self) -> dict[str, list[WordResult]]:
        """Results per criterion name, in grid order, each list word-ascending."""
        grouped: dict[str, list[WordResult]] = {}
        for result in self.results:
            grouped.setdefault(result.criterion, []).append(result)
        return grouped


def macro_average(results: Sequence[WordResult]) -> dict[str, float]:
    """Unweighted mean of per-word precisions, grouped by category."""
    if not results:
        raise ValueError("cannot average zero results")
    groups: dict[str, list[float]] = {}
    for result in results:
        groups.setdefault(result.category, []).append(result.precision)
    return {category: sum(vals) / len(vals) for category, vals in sorted(groups.items())}


# One grid cell: a criterion, or several combined into one feature vector.
Cell = Criterion | Sequence[Criterion]


def worker_count(jobs: int, cells: int) -> int:
    """Pool size for ``cells`` cells: at most ``jobs``, the cells, and the
    CPUs this process may run on; at least 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cells, cpus))


# Worker-pool state: populated in the parent before forking so child
# processes inherit it without per-task pickling of the corpus.
_POOL_STATE: dict = {}


def _init_pool(state: dict) -> None:
    global _POOL_STATE
    _POOL_STATE = state


def _eval_cell(cell: tuple[int, int]) -> WordResult:
    word_index, criterion_index = cell
    state = _POOL_STATE
    return cross_validate(
        state["corpus"],
        state["plans"][word_index],
        state["criteria"][criterion_index],
        state["classifier"],
        state["smoothing"],
        content_mode=state["content_mode"],
        keep_records=state["keep_records"],
    )


def grid_search(
    corpus: Corpus,
    targets: Sequence[tuple[str, str]],
    grid: CriterionGrid | Sequence[Cell],
    classifier: str,
    smoothing: SmoothingParams = SmoothingParams(),
    k: int = 10,
    seed: int = 0,
    *,
    jobs: int = 1,
    content_mode: str = "reindex",
    keep_records: bool = False,
) -> GridResult:
    """Cross-validate every (target word, cell) pair.

    A cell is a criterion or a sequence of criteria combined into one
    feature vector.  Words with fewer occurrences than k are skipped with a
    warning record rather than failing the run.  Results are ordered
    word-ascending then grid-order, independent of the worker count; decision
    records are kept only when ``keep_records`` is set.
    """
    criteria = enumerate_grid(grid) if isinstance(grid, CriterionGrid) else list(grid)
    if not criteria:
        raise ValueError("empty criterion list")
    if not targets:
        raise ValueError("empty target list")
    check_classifier(classifier)

    plans: list[FoldPlan] = []
    skipped: list[SkippedWord] = []
    for lemma, category in sorted(targets):
        occurrences = extract_occurrences(corpus, lemma, category)
        if len(occurrences) < k:
            skipped.append(
                SkippedWord(lemma, category, f"{len(occurrences)} occurrences < k={k}")
            )
            continue
        plans.append(kfold_split(occurrences, k, seed))

    cells = [(wi, ci) for wi in range(len(plans)) for ci in range(len(criteria))]
    state = {
        "corpus": corpus,
        "plans": plans,
        "criteria": criteria,
        "classifier": classifier,
        "smoothing": smoothing,
        "content_mode": content_mode,
        "keep_records": keep_records,
    }
    workers = worker_count(jobs, len(cells))
    try:
        context = multiprocessing.get_context("fork") if workers > 1 else None
    except ValueError:  # no fork on this platform: run serially
        context = None
    if context is None:
        _init_pool(state)
        results = [_eval_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_pool,
            initargs=(state,),
        ) as pool:
            results = list(pool.map(_eval_cell, cells, chunksize=8))

    return GridResult(
        results=tuple(results),
        skipped=tuple(skipped),
        classifier=classifier,
    )


def write_grid_csv(results: Iterable[WordResult], stream: TextIO) -> None:
    """One row per (word, criterion), in the given order."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(GRID_CSV_HEADER)
    for result in results:
        writer.writerow(
            (
                result.lemma,
                result.category,
                result.criterion,
                max(c.size for c in result.cell),
                result.classifier,
                f"{result.precision:.6f}",
                ";".join(f"{p:.6f}" for p in result.fold_precisions),
            )
        )
