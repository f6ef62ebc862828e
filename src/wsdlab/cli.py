"""Command-line front end.

Subcommands: stats, evaluate, grid, evidence, ablation, selection, shift,
adjacency, pseudoword.  Each evaluation subcommand is a list of grid cells
and a reduction of their results to reports (its ``EXPERIMENTS`` row), run
through one ``grid_search`` call, so all honour ``--jobs`` and report the
words they skip on stderr and in ``run.meta``.  Every report leaves through
``write_csv``, then ``run.meta`` records the whole ``RunConfig`` and the
sha256 of the bytes read from each input (any path that is not a directory,
so a pipe will do; each is read once).  Exit codes: 0 success, 2 bad
configuration, 3 corpus parse error, 4 empty result set, 5 a worker process
died (no reports are written), 130 interrupted by Ctrl-C.

Each subcommand takes only the settings it reads (``evidence``, which runs
the decision list, has no ``--classifier`` and no ``--prior-mode``;
``adjacency`` no ``--content-mode``).  argparse only names the options;
``RunConfig`` holds their defaults, save a criterion or classifier it leaves
None, which ``run`` reads from the subcommand's ``EXPERIMENTS`` row (``nb``
for a row with no classifier; a ``default`` grid it reads as None), and its
annotations their types: ``main`` only parses argv and converts each option's
text by them (``convert``), and ``run`` checks every field against them, so a
bad value from the command line or from Python is one problem, listed with every
problem of the small inputs (targets, grid and pseudo-word configs) before work starts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

from . import __version__
from .analysis import (
    ADJACENCY_CELLS,
    ablation_grid,
    adjacency_experiment,
    content_ablation,
    context_report,
    evidence_reports,
    grid_rows,
    selection_comparison,
    selection_criteria,
    shift_criteria,
    shift_study,
    stats_rows,
)
from .classifiers import SmoothingParams, PRIOR_MODES
from .corpus import (
    CorpusParseError,
    PseudowordConfig,
    _unwrap,
    convert,
    generate_pseudoword_corpus,
    parse_corpus,
    parse_pseudoword_config,
    parse_targets,
    serialize_corpus,
)
from .criteria import (
    CONTENT_MODES,
    Cell,
    Criterion,
    CriterionGrid,
    default_grid,
    enumerate_grid,
    parse_cell,
    parse_grid_config,
)
from .evaluation import CVParams, GridResult, grid_search

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_EMPTY = 4
EXIT_WORKER = 5
EXIT_INTERRUPTED = 130


@dataclass
class RunConfig:
    subcommand: str
    output: Path
    corpus: Path | None = None
    targets: Path | None = None
    criterion: str | None = None
    grid: str | None = None
    classifier: str | None = None
    m: float = 1.0
    prior_mode: str = "feature-values"
    k: int = 10
    seed: int = 0
    jobs: int = 1
    shifts: tuple[int, ...] = (0, 1)
    content_mode: str = "reindex"
    config: Path | None = None


def _read_input(path: Path, inputs: dict[str, str]) -> str:
    """An input's text, read once.  The sha256 of its bytes goes into
    ``inputs``; a leading UTF-8 byte-order mark is dropped, and line ends
    are read as text mode reads them."""
    data = path.read_bytes()
    inputs[str(path)] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")


def _criteria(config: RunConfig) -> Cell:
    """The ``--criterion`` cell; several criteria are combined with '+'."""
    if not config.criterion:
        raise ValueError("a criterion is required (--criterion)")
    return parse_cell(config.criterion)


def _criterion(config: RunConfig) -> Criterion:
    parts = _criteria(config)
    if len(parts) != 1:
        raise ValueError(f"{config.subcommand} takes a single criterion")
    return parts[0]


def _evidence_cells(config: RunConfig) -> list[Cell]:
    criterion = _criterion(config)
    if criterion.order != 1:
        raise ValueError("evidence profiles need a unigram criterion")
    return [(criterion,)]


@dataclass(frozen=True)
class Experiment:
    """One evaluation subcommand: the grid cells it cross-validates, from the
    run's configuration and its ``--grid`` grid (the default grid without
    one), and its reduction of the results to reports, as ``{file name:
    rows}``.  Reducers are looked up as module attributes when a run
    reduces, not when this table is built, so wrappers installed on those
    attributes (as perfbench's tracer does) see every call."""

    cells: Callable[[RunConfig, CriterionGrid], list[Cell]]
    reports: Callable[[GridResult], dict[str, list[tuple]]]
    classifier: str | None = None  # the only one it runs, and its RunConfig's if that is None
    keep_records: bool = False
    criterion: str | None = None  # its RunConfig's --criterion if that is None


EXPERIMENTS = {
    "evaluate": Experiment(
        lambda config, grid: [_criteria(config)],
        lambda result: {"evaluate.csv": grid_rows(result)},
    ),
    "grid": Experiment(
        lambda config, grid: enumerate_grid(grid),
        lambda result: {"grid.csv": grid_rows(result), **context_report(result)},
    ),
    "evidence": Experiment(lambda config, grid: _evidence_cells(config),
                           lambda result: evidence_reports(result),
                           classifier="dl", keep_records=True,
                           criterion="[1gr|mform|ordered|all]@2"),
    "ablation": Experiment(
        lambda config, grid: enumerate_grid(ablation_grid(grid)),
        lambda result: {"ablation.csv": content_ablation(result)},
    ),
    "selection": Experiment(
        lambda config, grid: selection_criteria(_criterion(config)),
        lambda result: {"selection.csv": selection_comparison(result)},
        criterion="[1gr|mform|ordered|all]@2",
    ),
    "shift": Experiment(
        lambda config, grid: shift_criteria(_criterion(config), config.shifts),
        lambda result: {"shift.csv": shift_study(result)},
        criterion="[1gr|lemma|ordered|all]@2",
    ),
    "adjacency": Experiment(
        lambda config, grid: list(ADJACENCY_CELLS),
        lambda result: {"adjacency.csv": adjacency_experiment(result)},
    ),
}
COMMANDS = ("stats", *EXPERIMENTS, "pseudoword")


def _built(problems: list[str], build: Callable, *args, prefix: str = ""):
    """``build(*args)``; or None, once each line of the ``ValueError`` it
    raised is added to ``problems`` after ``prefix``."""
    try:
        return build(*args)
    except ValueError as exc:
        problems.extend(prefix + line for line in str(exc).splitlines())
        return None


# What a value of each ``RunConfig`` annotation must be, as a problem names it.
_KINDS = {Path: "a path", int: "an integer", float: "a number", str: "text",
          tuple[int, ...]: "comma-separated integers"}


def _typed(hint, value):
    """``value`` as a field annotated ``hint`` holds it (a path from a ``str``, a float from an
    int, a tuple from a list); else TypeError, or ValueError if a tuple's text does not convert."""
    base = _unwrap(hint)
    if value is None and base is not hint:
        return None
    if get_origin(base) is tuple and isinstance(value, str):
        convert(base, value)  # for its ValueError: why the text does not convert
    if get_origin(base) is tuple and isinstance(value, (list, tuple)):
        return tuple(_typed(get_args(base)[0], item) for item in value)
    accepted = {Path: (str, Path), float: (int, float)}.get(base, base)
    if isinstance(value, bool) or get_origin(base) or not isinstance(value, accepted):
        raise TypeError
    return base(value)


def _type_check(config: RunConfig) -> tuple[RunConfig, dict[str, str]]:
    """``config`` with each field of its annotation's type, and each bad
    field's problem by name; a bad field's default, if any, stands in."""
    hints, values, bad = get_type_hints(RunConfig), {}, {}
    for field in fields(RunConfig):
        value = values[field.name] = getattr(config, field.name)
        try:
            values[field.name] = _typed(hints[field.name], value)
        except (TypeError, ValueError) as exc:
            kind = _KINDS[_unwrap(hints[field.name])]
            bad[field.name] = f"{field.name} must be {kind}, not {value!r}" + (
                f" ({exc})" if isinstance(exc, ValueError) else "")
            if field.default is not MISSING:
                values[field.name] = field.default
    return RunConfig(**values), bad


def _check(config: RunConfig, bad: dict[str, str]) -> tuple[
        list[str], dict[str, str], list[tuple[str, str]] | None,
        list[Cell] | None, CVParams | None, PseudowordConfig | None]:
    """Every configuration problem, the ``bad`` fields' first, and what the
    run builds before the corpus, each small input read once: the sha256 of
    each input read, targets, grid cells, ``CVParams``, pseudo-word config
    (None where absent or bad; none is used when there is a problem)."""
    problems = list(bad.values())
    inputs: dict[str, str] = {}
    targets = cells = params = pw_config = None
    if "subcommand" in bad:
        return problems, inputs, targets, cells, params, pw_config
    if config.subcommand not in COMMANDS:
        problems.append(f"unknown subcommand {config.subcommand!r}")
    if "output" not in bad and "\0" in str(config.output):
        problems.append(f"--output {str(config.output)!r}: a path cannot hold a NUL byte")
    elif "output" not in bad:
        existing = next(p for p in (config.output, *config.output.parents) if p.exists())
        if not existing.is_dir():
            problems.append(f"--output {config.output}: {existing} exists and is not a directory")

    def found(name: str, missing: str = "", label: str = "") -> Path | None:
        """The path ``name`` if it exists and is not a directory (a pipe will do); else
        None, with its problem listed (``missing`` if none is given and none was bad)."""
        path = getattr(config, name)
        if path is not None and Path(path).exists() and not Path(path).is_dir():
            return Path(path)
        if path is not None:
            problems.append(f"{label or name} file not found: {path}")
        elif missing and name not in bad:
            problems.append(missing)
        return None

    if config.subcommand == "pseudoword":
        if found("config", "pseudoword needs --config"):
            pw_config = _built(problems, lambda: parse_pseudoword_config(
                _read_input(config.config, inputs)))
        return problems, inputs, targets, cells, params, pw_config

    found("corpus", "a corpus file is required (--corpus)")
    if found("targets", "a targets file is required (--targets)"):
        targets = _built(problems, lambda: parse_targets(_read_input(config.targets, inputs)),
                         prefix=f"targets {config.targets}: ")

    if config.subcommand in EXPERIMENTS:
        experiment = EXPERIMENTS[config.subcommand]
        fixed = experiment.classifier
        if fixed not in (None, config.classifier) and "classifier" not in bad:
            problems.append(f"{config.subcommand} runs the {fixed} classifier only")
        smoothing = _built(problems, SmoothingParams, config.m, config.prior_mode)
        # The default stands in for bad smoothing values, so CVParams is checked too.
        params = _built(problems, CVParams, config.classifier, smoothing or SmoothingParams(),
                        config.k, config.seed, config.content_mode, experiment.keep_records)
        if config.jobs < 1:
            problems.append("jobs must be >= 1")
        grid, path = default_grid(), found("grid", label="grid config")
        if path:
            grid = _built(problems, lambda: parse_grid_config(_read_input(path, inputs))) or grid
        cells = None if "criterion" in bad else _built(problems, experiment.cells, config, grid)
    return problems, inputs, targets, cells, params, pw_config


def write_csv(path: Path, rows: list[tuple]) -> None:
    """Write one report: its rows, header first, each value as printed."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)


def _write_meta(config: RunConfig, extra: dict) -> None:
    """``run.meta``: the configuration and ``extra``, whose ``inputs`` holds
    the sha256 of the bytes read from each input."""
    meta = {**asdict(config), "tool": "wsdlab", "version": __version__, **extra}
    (config.output / "run.meta").write_text(
        json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")


def _pseudoword(config: RunConfig, pw_config: PseudowordConfig, inputs: dict[str, str]) -> int:
    corpus = generate_pseudoword_corpus(pw_config, config.seed)
    outdir = config.output
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "corpus.tsv").write_text(serialize_corpus(corpus), encoding="utf-8")
    (outdir / "targets.tsv").write_text(
        f"{pw_config.target_lemma}\t{pw_config.category}\n", encoding="utf-8"
    )
    _write_meta(config, {"inputs": inputs, "occurrences": len(corpus.documents)})
    return EXIT_OK


def _write_reports(config: RunConfig, reports: dict[str, list[tuple]], extra: dict) -> int:
    """Write each report into the output directory, then ``run.meta``."""
    config.output.mkdir(parents=True, exist_ok=True)
    for name, rows in reports.items():
        write_csv(config.output / name, rows)
    _write_meta(config, extra)
    return EXIT_OK


def _evaluate(config: RunConfig, inputs, corpus, targets, cells, params) -> int:
    """The shared path of every evaluation subcommand."""
    try:
        result = grid_search(corpus, targets, cells, params, jobs=config.jobs)
    except BrokenProcessPool as exc:
        print(f"error: a worker process died ({exc}); no reports written", file=sys.stderr)
        return EXIT_WORKER
    for item in result.skipped:
        print(f"warning: skipping {item.lemma} ({item.category}): {item.reason}",
              file=sys.stderr)
    if not result.results:
        print("error: no target word has enough occurrences", file=sys.stderr)
        return EXIT_EMPTY
    return _write_reports(config, EXPERIMENTS[config.subcommand].reports(result), {
        "inputs": inputs,
        "skipped": [f"{s.lemma} ({s.category})" for s in result.skipped],
        "workers": result.workers,
        "cells": len(result.results),
    })


def run(config: RunConfig) -> int:
    """Execute one subcommand, its fields type-checked first; returns the exit code."""
    config, bad = _type_check(config)
    # A criterion or classifier left None is the subcommand's own; a "default" grid is None.
    row = None if "subcommand" in bad else EXPERIMENTS.get(config.subcommand)
    own = {"criterion": getattr(row, "criterion", None),
           "classifier": getattr(row, "classifier", None) or "nb"}
    config = replace(config, grid=None if config.grid == "default" else config.grid,
                     **{name: own[name] for name in own if getattr(config, name) is None})
    problems, inputs, targets, cells, params, pw_config = _check(config, bad)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    if config.subcommand == "pseudoword":
        return _pseudoword(config, pw_config, inputs)
    if not targets:
        print("error: the targets file lists no targets", file=sys.stderr)
        return EXIT_EMPTY

    try:
        corpus = parse_corpus(_read_input(config.corpus, inputs))
    except (CorpusParseError, UnicodeDecodeError) as exc:
        print(f"error: corpus {config.corpus}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if config.subcommand == "stats":
        return _write_reports(config, {"stats.csv": stats_rows(corpus, targets)},
                              {"inputs": inputs})
    return _evaluate(config, inputs, corpus, targets, cells, params)


# Each evaluation setting's option and help text.
_SETTINGS = {
    "--classifier": "classifier id: nb or dl",
    "--m": "m-estimate strength",
    "--prior-mode": "NB feature prior: " + " or ".join(PRIOR_MODES),
    "--k": "cross-validation folds",
    "--seed": "fold-plan seed",
    "--jobs": "worker processes",
    "--content-mode": "filtered-window indexing: " + " or ".join(CONTENT_MODES),
}


def _subcommand(subparsers, name: str, summary: str, *settings: str) -> argparse.ArgumentParser:
    """A subcommand reading a corpus and targets, with these evaluation ``settings``."""
    parser = subparsers.add_parser(name, help=summary)
    parser.add_argument("--corpus", help="corpus file (vertical TSV)")
    parser.add_argument("--targets", help="targets file (lemma<TAB>category per line)")
    parser.add_argument("-o", "--output", required=True, help="output directory")
    for option in settings:
        parser.add_argument(option, help=_SETTINGS[option])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsdlab",
        description="Systematic evaluation of word-sense-disambiguation criteria.",
    )
    parser.add_argument("--version", action="version", version=f"wsdlab {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    _subcommand(subparsers, "stats", "per-word frequency/sense/entropy/MFS table")

    p = _subcommand(subparsers, "evaluate", "cross-validate one criterion", *_SETTINGS)
    p.add_argument("--criterion", required=True,
                   help="criterion string; combine several with '+'")

    p = _subcommand(subparsers, "grid", "cross-validate a criterion grid", *_SETTINGS)
    p.add_argument("--grid",
                   help="'default' (the 576-criterion space) or a grid config file")

    # The decision list only: no --classifier, and no NB --prior-mode.
    p = _subcommand(subparsers, "evidence", "decision-evidence profile (DL)",
                    "--m", "--k", "--seed", "--jobs", "--content-mode")
    p.add_argument("--criterion", help="unigram criterion to profile")

    p = _subcommand(subparsers, "ablation", "all-words vs content-words decrease", *_SETTINGS)
    p.add_argument("--grid",
                   help="'default' or a grid config file (must pair all/content)")

    p = _subcommand(subparsers, "selection", "all/content/selected filter comparison", *_SETTINGS)
    p.add_argument("--criterion", help="base criterion (filter must be 'all')")

    p = _subcommand(subparsers, "shift", "shifted-window study", *_SETTINGS)
    p.add_argument("--criterion")
    p.add_argument("--shifts", help="comma-separated signed shifts; must include 0")

    # Both of its cells keep every token: no filtered-window --content-mode.
    _subcommand(subparsers, "adjacency", "anchored n-gram combination experiment",
                "--classifier", "--m", "--prior-mode", "--k", "--seed", "--jobs")

    p = subparsers.add_parser("pseudoword", help="generate a pseudo-word corpus")
    p.add_argument("--config", required=True, help="pseudo-word config file")
    p.add_argument("--seed", help="generation seed")
    p.add_argument("-o", "--output", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    config = RunConfig(args["subcommand"], args["output"])
    hints = get_type_hints(RunConfig)
    for name, text in args.items():
        if text is not None:
            with contextlib.suppress(ValueError):  # run lists the text that does not convert
                text = convert(hints[name], text)
            setattr(config, name, text)
    try:
        return run(config)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (ValueError, OSError) as exc:
        print("error: " + str(exc).replace("\n", "\nerror: "), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
