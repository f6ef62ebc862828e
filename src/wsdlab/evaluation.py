"""Cross-validation harness and criterion grid search.

Folds are stratified by gold sense and fully determined by (occurrences, k,
seed), so any run is reproducible bit-for-bit.  Only ``grid_search`` reads a
corpus, to look up each word's occurrences; each carries its document's tokens,
so cross-validation needs nothing else.  The (word x cell) grid is evaluated
pair by pair; pairs are independent, so they can be dispatched to a worker pool
without affecting the results.  ``grid_search`` keeps no state between calls
(a pool's workers get the grid from their initializer), so concurrent calls in
one process do not affect each other.  A pair's result is its decisions, one
bit per occurrence of the word's fold plan (decided right, decided by the
fallback); every precision is derived from those bits.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .classifiers import (
    SmoothingParams,
    classify_dl,
    classify_nb,
    train_dl,
    train_nb,
)
from .corpus import Corpus, Occurrence, extract_occurrences
from .criteria import (
    CONTENT_MODE_PROBLEM,
    CONTENT_MODES,
    Cell,
    Span,
    cell_name,
    combine_features,
    extract_features,
    feature_span,
)

CLASSIFIERS = ("nb", "dl")


@dataclass(frozen=True)
class CVParams:
    """How every cell of a grid is cross-validated: the classifier and its
    smoothing, the k-fold draw (``k`` folds from ``seed``), the filtered-window
    ``content_mode``, and whether each decision's evidence is kept."""

    classifier: str
    smoothing: SmoothingParams = SmoothingParams()
    k: int = 10
    seed: int = 0
    content_mode: str = "reindex"
    keep_records: bool = False

    def __post_init__(self) -> None:
        problems = [problem for bad, problem in (
            (self.classifier not in CLASSIFIERS, f"unknown classifier {self.classifier!r}: "
                                                 f"valid ids are {', '.join(CLASSIFIERS)}"),
            (not isinstance(self.k, int), f"k must be an integer, not {self.k!r}"),
            (isinstance(self.k, int) and self.k < 2, "k must be >= 2"),
            (not isinstance(self.seed, int), f"seed must be an integer, not {self.seed!r}"),
            (self.content_mode not in CONTENT_MODES, CONTENT_MODE_PROBLEM),
        ) if bad]
        if problems:
            raise ValueError("\n".join(problems))


@dataclass(frozen=True)
class FoldPlan:
    """A stratified partition of one word's occurrences into k folds:
    ``folds[f]`` holds fold f's held-out occurrence indices, ascending."""

    occurrences: tuple[Occurrence, ...]
    folds: tuple[tuple[int, ...], ...]

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """Each fold's occurrences as bits."""
        return tuple(sum(1 << i for i in fold) for fold in self.folds)

    def fold_precisions(self, correct: int) -> tuple[float, ...]:
        """Each fold's share of the ``correct`` bits, 0.0 for an empty fold."""
        return tuple((correct & mask).bit_count() / len(fold) if fold else 0.0
                     for fold, mask in zip(self.folds, self._masks))


def kfold_split(occurrences: Sequence[Occurrence], k: int, seed: int) -> FoldPlan:
    """Deterministic stratified k-fold partition.

    The shuffled sense groups are dealt round-robin into the folds as one
    run, in sense order, so fold sizes differ by at most one overall and
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
    dealt: list[int] = []
    for _, positions in sorted(groups.items()):
        rng.shuffle(positions)
        dealt += positions
    return FoldPlan(tuple(occurrences), tuple(tuple(sorted(dealt[f::k])) for f in range(k)))


@dataclass(frozen=True)
class WordResult:
    """One cell's decisions on a word, under its ``GridResult``'s ``params``:
    bit i of ``correct`` (``fallback``) is set when occurrence i of its fold
    plan was decided right (by the most-frequent-sense fallback).
    ``evidence``, kept only with records, holds each decision's deciding-key
    span (None for NB or a fallback)."""

    lemma: str
    category: str
    cell: Cell
    decisions: int
    correct: int
    fallback: int
    evidence: tuple[Span | None, ...] = ()

    @property
    def precision(self) -> float:
        return self.correct.bit_count() / self.decisions

    @property
    def criterion(self) -> str:
        """The cell's name, as the reports print it."""
        return cell_name(self.cell)


@dataclass(frozen=True)
class SkippedWord:
    lemma: str
    category: str
    reason: str


def cross_validate(plan: FoldPlan, cell: Cell, params: CVParams) -> WordResult:
    """Train on k-1 folds, classify the held-out fold, for every fold.

    The cell's criteria give one combined feature vector per occurrence, and
    every occurrence is decided exactly once, under ``params``, by the model
    of the folds that hold it out (``params.k`` and ``seed`` drew the plan).
    """
    if not cell:
        raise ValueError("at least one criterion is required")
    # Looked up on every call, not bound at import, so a tracer can wrap them.
    train, classify = ((train_nb, classify_nb) if params.classifier == "nb"
                       else (train_dl, classify_dl))
    smoothing, content_mode = params.smoothing, params.content_mode
    occurrences = plan.occurrences
    vectors = [
        combine_features(cell, [
            extract_features(occ, criterion, content_mode=content_mode)
            for criterion in cell
        ])
        for occ in occurrences
    ]

    pairs = [(vector, occ.sense) for vector, occ in zip(vectors, occurrences)]

    # Fields, not Predictions, packed after the loop: a bit set per decision
    # makes a new int, and each held Prediction is one more object for the GC.
    n = len(occurrences)
    senses, keys, fallbacks = [None] * n, [None] * n, [False] * n
    # A tally reads only counts, so each fold trains on the others in fold order.
    folds = plan.folds
    for f, held_out in enumerate(folds):
        model = train([pairs[i] for fold in folds[:f] + folds[f + 1:] for i in fold], smoothing)
        for i in held_out:
            senses[i], _, keys[i], fallbacks[i] = classify(model, vectors[i])

    return WordResult(
        occurrences[0].lemma, occurrences[0].category, cell, n,
        _bits([sense == occ.sense for sense, occ in zip(senses, occurrences)]),
        _bits(fallbacks),
        tuple(None if key is None else feature_span(occ, cell, key, content_mode=content_mode)
              for key, occ in zip(keys, occurrences)) if params.keep_records else (),
    )


def _bits(flags: list[bool]) -> int:
    """The int whose bit i is set where ``flags[i]`` is true."""
    return int(bytes(flags)[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)


@dataclass(frozen=True)
class GridResult:
    """Every (word x cell) result under ``params``, the skipped words and each
    word's fold plan by (lemma, category).  ``workers``, the number of
    processes that evaluated it (1 when serial), is left out of equality:
    results do not depend on it."""

    results: tuple[WordResult, ...]
    skipped: tuple[SkippedWord, ...]
    params: CVParams
    plans: dict[tuple[str, str], FoldPlan] = field(default_factory=dict)
    workers: int = field(default=1, compare=False)


def worker_count(jobs: int, pairs: int) -> int:
    """Pool size for ``pairs`` (word, cell) pairs: at most ``jobs``, the
    pairs, and the CPUs this process may run on; at least 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, pairs, cpus))


# A pool worker's grid (fold plans, cells, CVParams), set by its initializer;
# the parent never sets it.  Forked workers inherit the initializer's arguments,
# and with them the plans' documents, without pickling.
_WORKER_GRID: tuple = ()

# (word, cell) pairs per task sent to a pool worker.
_CHUNK = 8


def _eval_cells(tasks: Sequence[tuple[int, int]]) -> list[WordResult]:
    plans, cells, params = _WORKER_GRID
    return [cross_validate(plans[wi], cells[ci], params) for wi, ci in tasks]


def _start_worker(plans: list[FoldPlan], cells: Sequence[Cell], params: CVParams) -> None:
    """Pool worker initializer: keeps the grid; SIGINT ends the worker, then is unblocked."""
    global _WORKER_GRID
    _WORKER_GRID = plans, cells, params
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def grid_search(
    corpus: Corpus,
    targets: Sequence[tuple[str, str]],
    cells: Sequence[Cell],
    params: CVParams,
    *,
    jobs: int = 1,
) -> GridResult:
    """Cross-validate every (target word, cell) pair under ``params``.

    Words with fewer occurrences than k are skipped with a warning record
    rather than failing the run.  Results are ordered word-ascending then in
    cell order, independent of the worker count; each decision's evidence is
    kept only when ``params.keep_records`` is set.
    """
    if not cells:
        raise ValueError("empty criterion list")
    if not targets:
        raise ValueError("empty target list")

    plans: dict[tuple[str, str], FoldPlan] = {}
    skipped: list[SkippedWord] = []
    for lemma, category in sorted(targets):
        occurrences = extract_occurrences(corpus, lemma, category)
        if len(occurrences) < params.k:
            reason = f"{len(occurrences)} occurrences < k={params.k}"
            skipped.append(SkippedWord(lemma, category, reason))
        else:
            plans[lemma, category] = kfold_split(occurrences, params.k, params.seed)

    workers = worker_count(jobs, len(plans) * len(cells))
    try:
        context = multiprocessing.get_context("fork") if workers > 1 else None
    except ValueError:  # no fork on this platform: run serially
        context = None
    if context is None:
        results = [cross_validate(plan, cell, params) for plan in plans.values() for cell in cells]
    else:
        tasks = [(wi, ci) for wi in range(len(plans)) for ci in range(len(cells))]
        # SIGINT stays blocked until every worker is forked, so that each
        # starts with it blocked and only unblocks it once it takes the
        # default action: on Ctrl-C a worker ends at once, silently and
        # without starting another cell, and the parent reports it.
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                   initializer=_start_worker,
                                   initargs=(list(plans.values()), cells, params))
        try:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                chunks = [pool.submit(_eval_cells, tasks[start:start + _CHUNK])
                          for start in range(0, len(tasks), _CHUNK)]
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            results = [result for chunk in chunks for result in chunk.result()]
        finally:
            # Pending chunks are cancelled by the pool's own thread. Not
            # pool.map: it cancels them from this thread, which before
            # Python 3.12 races the pool marking them broken when the
            # workers end, and that thread then prints a traceback.
            pool.shutdown(cancel_futures=True)

    return GridResult(tuple(results), tuple(skipped), params, plans,
                      1 if context is None else workers)

