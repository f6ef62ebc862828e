"""Command-line front end.

Subcommands: stats, evaluate, grid, evidence, ablation, selection, shift,
adjacency, pseudoword.  Each evaluation subcommand is a list of grid cells
plus the reports it reduces the results to: all seven run through one
``grid_search`` call, so all honour ``--jobs`` and report the words they skip
(too few occurrences for k folds) on stderr and in ``run.meta``.  Every run
writes its report CSVs plus a ``run.meta`` JSON capturing the full
configuration, so any run can be replayed exactly.  Exit codes: 0 success,
2 bad configuration, 3 corpus parse error, 4 empty result set.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from . import __version__
from .analysis import (
    ADJACENCY_CELLS,
    ablation_grid,
    adjacency_experiment,
    content_ablation,
    context_report,
    evidence_profiles,
    selection_comparison,
    selection_criteria,
    shift_criteria,
    shift_study,
    write_ablation_csv,
    write_adjacency_csv,
    write_context_csv,
    write_context_curves_csv,
    write_evidence_profile_csv,
    write_evidence_space_csv,
    write_evidence_summary_csv,
    write_selection_csv,
    write_shift_csv,
)
from .classifiers import SmoothingParams, PRIOR_MODES
from .corpus import (
    CorpusParseError,
    category_averages,
    generate_pseudoword_corpus,
    parse_corpus,
    parse_pseudoword_config,
    parse_targets,
    serialize_corpus,
    word_stats,
)
from .criteria import (
    CONTENT_MODES,
    Criterion,
    CriterionGrid,
    default_grid,
    parse_cell,
    parse_grid_config,
)
from .evaluation import Cell, GridResult, check_classifier, grid_search, write_grid_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_EMPTY = 4

STATS_HEADER = ("word", "category", "frequency", "senses", "entropy", "mfs")


@dataclass
class RunConfig:
    subcommand: str
    output: Path
    corpus: Path | None = None
    targets: Path | None = None
    criterion: str | None = None
    grid: str | None = None
    classifier: str = "nb"
    m: float = 1.0
    prior_mode: str = "feature-values"
    k: int = 10
    seed: int = 0
    jobs: int = 1
    shifts: tuple[int, ...] = (0, 1)
    content_mode: str = "reindex"
    config: Path | None = None
    diagnostics: list[str] = field(default_factory=list)


def _read_input(path: Path) -> str:
    """An input file's text; a leading UTF-8 byte-order mark is dropped."""
    return path.read_text(encoding="utf-8-sig")


def _criteria(config: RunConfig) -> tuple[Criterion, ...]:
    """The ``--criterion`` parts; several are combined with '+'."""
    if not config.criterion:
        raise ValueError("a criterion is required (--criterion)")
    return parse_cell(config.criterion)


def _criterion(config: RunConfig) -> Criterion:
    parts = _criteria(config)
    if len(parts) != 1:
        raise ValueError(f"{config.subcommand} takes a single criterion")
    return parts[0]


def _evidence_cells(config: RunConfig) -> list[Criterion]:
    criterion = _criterion(config)
    if criterion.order != 1:
        raise ValueError("evidence profiles need a unigram criterion")
    return [criterion]


def _grid_cells(config: RunConfig) -> CriterionGrid:
    if config.grid in (None, "default"):
        return default_grid()
    path = Path(config.grid)
    if not path.is_file():
        raise ValueError(f"grid config file not found: {config.grid}")
    return parse_grid_config(_read_input(path))


def _grid_reports(result: GridResult) -> dict[str, tuple]:
    report = context_report(result)
    return {
        "grid.csv": (write_grid_csv, result.results),
        "context.csv": (write_context_csv, report),
        "context_curves.csv": (write_context_curves_csv, report),
    }


def _evidence_reports(result: GridResult) -> dict[str, tuple]:
    profiles = evidence_profiles(result)
    return {
        "evidence_profile.csv": (write_evidence_profile_csv, profiles),
        "evidence_space.csv": (write_evidence_space_csv, profiles),
        "evidence_summary.csv": (write_evidence_summary_csv, profiles),
    }


@dataclass(frozen=True)
class Experiment:
    """One evaluation subcommand: the grid cells it cross-validates, and its
    reduction of the results to reports, as ``{file name: (writer, data)}``.
    Reducers and writers are looked up as module attributes when a run
    reduces, not when this table is built, so wrappers installed on those
    attributes (as perfbench's tracer does) see every call."""

    cells: Callable[[RunConfig], CriterionGrid | list[Cell]]
    reports: Callable[[GridResult], dict[str, tuple]]
    classifier: str | None = None  # fixed classifier, overriding --classifier
    keep_records: bool = False


EXPERIMENTS = {
    "evaluate": Experiment(
        lambda config: [_criteria(config)],
        lambda result: {"evaluate.csv": (write_grid_csv, result.results)},
    ),
    "grid": Experiment(_grid_cells, _grid_reports),
    "evidence": Experiment(_evidence_cells, _evidence_reports,
                           classifier="dl", keep_records=True),
    "ablation": Experiment(
        lambda config: ablation_grid(_grid_cells(config)),
        lambda result: {"ablation.csv": (write_ablation_csv, content_ablation(result))},
    ),
    "selection": Experiment(
        lambda config: selection_criteria(_criterion(config)),
        lambda result: {"selection.csv": (write_selection_csv, selection_comparison(result))},
    ),
    "shift": Experiment(
        lambda config: shift_criteria(_criterion(config), config.shifts),
        lambda result: {"shift.csv": (write_shift_csv, shift_study(result))},
    ),
    "adjacency": Experiment(
        lambda config: list(ADJACENCY_CELLS),
        lambda result: {"adjacency.csv": (write_adjacency_csv, adjacency_experiment(result))},
    ),
}
COMMANDS = ("stats", *EXPERIMENTS, "pseudoword")


def validate_config(config: RunConfig) -> list[str]:
    """All configuration violations at once, not just the first."""
    problems = list(config.diagnostics)
    if config.subcommand not in COMMANDS:
        problems.append(f"unknown subcommand {config.subcommand!r}")
    existing = next(p for p in (config.output, *config.output.parents) if p.exists())
    if not existing.is_dir():
        problems.append(f"--output {config.output}: {existing} exists and is not a directory")
    if config.subcommand == "pseudoword":
        if config.config is None:
            problems.append("pseudoword needs --config")
        elif not config.config.is_file():
            problems.append(f"config file not found: {config.config}")
        return problems

    if config.corpus is None:
        problems.append("a corpus file is required (--corpus)")
    elif not config.corpus.is_file():
        problems.append(f"corpus file not found: {config.corpus}")
    if config.targets is None:
        problems.append("a targets file is required (--targets)")
    elif not config.targets.is_file():
        problems.append(f"targets file not found: {config.targets}")

    if config.subcommand in EXPERIMENTS:
        try:
            check_classifier(config.classifier)
        except ValueError as exc:
            problems.append(str(exc))
        if config.k < 2:
            problems.append("k must be >= 2")
        try:
            SmoothingParams(config.m, config.prior_mode)
        except ValueError as exc:
            problems.append(str(exc))
        if config.jobs < 1:
            problems.append("jobs must be >= 1")
        if config.content_mode not in CONTENT_MODES:
            problems.append(f"content mode must be one of {CONTENT_MODES}")
        try:
            EXPERIMENTS[config.subcommand].cells(config)
        except ValueError as exc:
            problems.extend(str(exc).splitlines())
    return problems


def _write(path: Path, writer_fn) -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer_fn(stream)


def _write_meta(config: RunConfig, outdir: Path, extra: dict) -> None:
    meta = {
        "tool": "wsdlab",
        "version": __version__,
        "subcommand": config.subcommand,
        "corpus": str(config.corpus) if config.corpus else None,
        "targets": str(config.targets) if config.targets else None,
        "criterion": config.criterion,
        "grid": config.grid,
        "classifier": config.classifier,
        "m": config.m,
        "prior_mode": config.prior_mode,
        "k": config.k,
        "seed": config.seed,
        "jobs": config.jobs,
        "shifts": list(config.shifts),
        "content_mode": config.content_mode,
        "config": str(config.config) if config.config else None,
        "output": str(config.output),
    }
    meta.update(extra)
    path = outdir / "run.meta"
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _format_stat(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _pseudoword(config: RunConfig) -> int:
    pw_config = parse_pseudoword_config(_read_input(config.config))
    seed = config.seed if config.seed is not None else pw_config.seed
    corpus = generate_pseudoword_corpus(pw_config, seed)
    outdir = config.output
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "corpus.tsv").write_text(serialize_corpus(corpus), encoding="utf-8")
    (outdir / "targets.tsv").write_text(
        f"{pw_config.target_lemma}\t{pw_config.category}\n", encoding="utf-8"
    )
    _write_meta(config, outdir, {"pseudoword_seed": seed,
                                 "occurrences": len(corpus.documents)})
    return EXIT_OK


def _stats(config: RunConfig, corpus, targets) -> int:
    stats = word_stats(corpus, targets)
    averages = category_averages(stats)

    def write_stats(stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(STATS_HEADER)
        for row in stats:
            writer.writerow(
                (row.lemma, row.category, row.frequency, row.senses,
                 _format_stat(row.entropy), _format_stat(row.mfs))
            )
        for category, avg in averages.items():
            writer.writerow(
                ("AVERAGE", category, f"{avg.frequency:.1f}", f"{avg.senses:.1f}",
                 f"{avg.entropy:.6f}", f"{avg.mfs:.6f}")
            )

    config.output.mkdir(parents=True, exist_ok=True)
    _write(config.output / "stats.csv", write_stats)
    _write_meta(config, config.output, {})
    return EXIT_OK


def _evaluate(config: RunConfig, corpus, targets) -> int:
    """The shared path of every evaluation subcommand."""
    experiment = EXPERIMENTS[config.subcommand]
    result = grid_search(
        corpus, targets, experiment.cells(config),
        experiment.classifier or config.classifier,
        SmoothingParams(config.m, config.prior_mode), config.k, config.seed,
        jobs=config.jobs, content_mode=config.content_mode,
        keep_records=experiment.keep_records,
    )
    for item in result.skipped:
        print(f"warning: skipping {item.lemma} ({item.category}): {item.reason}",
              file=sys.stderr)
    if not result.results:
        print("error: no target word has enough occurrences", file=sys.stderr)
        return EXIT_EMPTY
    reports = experiment.reports(result)
    config.output.mkdir(parents=True, exist_ok=True)
    for name, (writer, data) in reports.items():
        _write(config.output / name, partial(writer, data))
    _write_meta(config, config.output, {
        "classifier": result.classifier,
        "skipped": [f"{s.lemma} ({s.category})" for s in result.skipped],
    })
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    problems = validate_config(config)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    if config.subcommand == "pseudoword":
        return _pseudoword(config)

    try:
        corpus = parse_corpus(_read_input(config.corpus))
    except (CorpusParseError, UnicodeDecodeError) as exc:
        print(f"error: corpus {config.corpus}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        targets = parse_targets(_read_input(config.targets))
    except ValueError as exc:
        print(f"error: targets {config.targets}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not targets:
        print("error: the targets file lists no targets", file=sys.stderr)
        return EXIT_EMPTY
    if config.subcommand == "stats":
        return _stats(config, corpus, targets)
    return _evaluate(config, corpus, targets)


def _add_common(parser: argparse.ArgumentParser, *, evaluation: bool) -> None:
    parser.add_argument("--corpus", type=Path, required=False, help="corpus file (vertical TSV)")
    parser.add_argument("--targets", type=Path, required=False,
                        help="targets file (lemma<TAB>category per line)")
    parser.add_argument("-o", "--output", type=Path, required=True, help="output directory")
    if evaluation:
        parser.add_argument("--classifier", default="nb", help="classifier id: nb or dl")
        parser.add_argument("--m", type=float, default=1.0, help="m-estimate strength")
        parser.add_argument("--prior-mode", default="feature-values",
                            choices=PRIOR_MODES, dest="prior_mode")
        parser.add_argument("--k", type=int, default=10, help="cross-validation folds")
        parser.add_argument("--seed", type=int, default=0, help="fold-plan seed")
        parser.add_argument("--jobs", type=int, default=1, help="worker processes")
        parser.add_argument("--content-mode", default="reindex", dest="content_mode",
                            choices=CONTENT_MODES,
                            help="filtered-window indexing: re-index survivors or keep gaps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsdlab",
        description="Systematic evaluation of word-sense-disambiguation criteria.",
    )
    parser.add_argument("--version", action="version", version=f"wsdlab {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p = subparsers.add_parser("stats", help="per-word frequency/sense/entropy/MFS table")
    _add_common(p, evaluation=False)

    p = subparsers.add_parser("evaluate", help="cross-validate one criterion")
    _add_common(p, evaluation=True)
    p.add_argument("--criterion", required=True,
                   help="criterion string; combine several with '+'")

    p = subparsers.add_parser("grid", help="cross-validate a criterion grid")
    _add_common(p, evaluation=True)
    p.add_argument("--grid", default="default",
                   help="'default' (the 576-criterion space) or a grid config file")

    p = subparsers.add_parser("evidence", help="decision-evidence profile (DL)")
    _add_common(p, evaluation=True)
    p.add_argument("--criterion", default="[1gr|mform|ordered|all]@2",
                   help="unigram criterion to profile")

    p = subparsers.add_parser("ablation", help="all-words vs content-words decrease")
    _add_common(p, evaluation=True)
    p.add_argument("--grid", default="default",
                   help="'default' or a grid config file (must pair all/content)")

    p = subparsers.add_parser("selection", help="all/content/selected filter comparison")
    _add_common(p, evaluation=True)
    p.add_argument("--criterion", default="[1gr|mform|ordered|all]@2",
                   help="base criterion (filter must be 'all')")

    p = subparsers.add_parser("shift", help="shifted-window study")
    _add_common(p, evaluation=True)
    p.add_argument("--criterion", default="[1gr|lemma|ordered|all]@2")
    p.add_argument("--shifts", default="0,1",
                   help="comma-separated signed shifts; must include 0")

    p = subparsers.add_parser("adjacency", help="anchored n-gram combination experiment")
    _add_common(p, evaluation=True)

    p = subparsers.add_parser("pseudoword", help="generate a pseudo-word corpus")
    p.add_argument("--config", type=Path, required=True, help="pseudo-word config file")
    p.add_argument("--seed", type=int, default=None,
                   help="generation seed (defaults to the config seed)")
    p.add_argument("-o", "--output", type=Path, required=True, help="output directory")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(subcommand=args.subcommand, output=args.output)
    for name in ("corpus", "targets", "criterion", "grid", "classifier", "m",
                 "prior_mode", "k", "jobs", "content_mode", "config"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
    if hasattr(args, "seed") and args.seed is not None:
        config.seed = args.seed
    elif args.subcommand == "pseudoword":
        config.seed = None  # resolved from the config file
    if hasattr(args, "shifts"):
        try:
            config.shifts = tuple(int(s) for s in args.shifts.split(","))
        except ValueError:
            config.diagnostics.append(f"bad shift list {args.shifts!r}")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        return run(config)
    except (ValueError, OSError) as exc:
        print("error: " + str(exc).replace("\n", "\nerror: "), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
