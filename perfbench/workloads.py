"""The benchmark's workloads: seeded input corpora and the CLI command each one runs.

Every input is a pure function of the workload seed, generated with
``wsdlab.generate_pseudoword_corpus``; the program under test only ever sees
the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import wsdlab

# The ROADMAP baseline corpus is generated with seed 5; at this seed the
# reports are checked against the hashes stored in reference.json.
DEFAULT_SEED = 5

# Folds and fold-plan seed passed to the CLI; fixed, so only the corpus
# varies with --seed.
K = 10
FOLD_SEED = 42

# 96 criteria: 2 orders x 2 tags x 3 positionings x 2 filters x 4 sizes.
LONGDOC_GRID = """\
orders = 1, 2
tags = lemma, cgems
positionings = ordered, leftright, unordered
filters = all, content
sizes = 1, 2, 4, 8
"""

# The single criterion [2gr|lemma|leftright|all]@4.
ONE_CRITERION_GRID = """\
orders = 2
tags = lemma
positionings = leftright
filters = all
sizes = 4
"""

CATEGORY_POS = {"noun": "NCOM", "adjective": "ADJ", "verb": "VCON"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classifier: str
    grid: str | None  # grid config text; None is the default 576-criterion grid
    cli_jobs: int  # --jobs of the timed CLI runs
    generate: Callable[[int], tuple[wsdlab.Corpus, list[tuple[str, str]]]]
    layer_share: tuple[str, ...]  # span-name prefixes that must dominate the traced time
    min_share: float

    def cli_args(self, inputs: Path, output: Path, jobs: int) -> list[str]:
        return [
            "grid", "--corpus", str(inputs / "corpus.tsv"),
            "--targets", str(inputs / "targets.tsv"), "-o", str(output),
            "--grid", str(inputs / "grid.conf") if self.grid else "default",
            "--classifier", self.classifier,
            "--k", str(K), "--seed", str(FOLD_SEED), "--jobs", str(jobs),
        ]


def _pseudoword(seed: int, **fields) -> wsdlab.Corpus:
    """The ROADMAP baseline recipe: two senses of 200, width 8, noise 0.2."""
    config = wsdlab.PseudowordConfig(
        sources=("banane", "porte"), counts=(200, 200), width=8, noise=0.2,
        vocabulary=50,
    )
    return wsdlab.generate_pseudoword_corpus(replace(config, **fields), seed)


def _short_docs(seed: int):
    corpus = _pseudoword(seed)
    return corpus, [("bananeporte", "noun")]


def _long_docs(seed: int):
    """The 400 short documents joined 20 at a time into ~340-token documents."""
    short = _pseudoword(seed).documents
    documents = [
        wsdlab.Document(
            f"long-{start // 20:03d}",
            tuple(tok for doc in short[start:start + 20] for tok in doc.tokens),
        )
        for start in range(0, len(short), 20)
    ]
    return wsdlab.Corpus(tuple(documents)), [("bananeporte", "noun")]


def _sixty_targets(seed: int):
    """60 two-sense pseudo-words, 20 per category, 50 occurrences per sense."""
    documents = []
    targets = []
    for i in range(60):
        category = ("noun", "adjective", "verb")[i // 20]
        target = f"pw{i:02d}"
        corpus = _pseudoword(
            seed * 100 + i, sources=(f"{target}a", f"{target}b"), counts=(50, 50),
            width=30, target=target, category=category,
            target_pos=CATEGORY_POS[category],
        )
        documents.extend(corpus.documents)
        targets.append((target, category))
    return wsdlab.Corpus(tuple(documents)), targets


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-nb",
            "the paper's headline run: one word x 576 criteria loads extraction "
            "and fold training, not parsing; --jobs 2 exercises the fork pool",
            classifier="nb",
            grid=None,
            cli_jobs=2,
            generate=_short_docs,
            layer_share=("criteria.extract", "classifiers.train"),
            min_share=0.75,
        ),
        Workload(
            "grid-dl-longdoc",
            "article-length documents, where extraction cost grows with "
            "document length; the decision list makes train_dl the other heavy layer",
            classifier="dl",
            grid=LONGDOC_GRID,
            cli_jobs=2,
            generate=_long_docs,
            layer_share=("criteria.extract", "classifiers.train"),
            min_share=0.75,
        ),
        Workload(
            "corpus-wide",
            "60 targets and one criterion: parsing and per-target occurrence "
            "rescans dominate, so per-word precomputation shows its cost here",
            classifier="nb",
            grid=ONE_CRITERION_GRID,
            cli_jobs=1,
            generate=_sixty_targets,
            layer_share=("corpus.",),
            min_share=0.5,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated input files plus the facts every ratio is stated against."""

    corpus_text: str
    targets_text: str
    tokens: int
    documents: int
    targets: int
    occurrences: int  # sense-tagged target occurrences, over all targets
    cells: int  # grid cells over all targets
    decisions: int  # held-out classifications per CLI run

    def facts(self) -> dict:
        return {name: getattr(self, name) for name in
                ("tokens", "documents", "targets", "occurrences", "cells", "decisions")}


def make_inputs(workload: Workload, seed: int) -> Inputs:
    corpus, targets = workload.generate(seed)
    criteria = len(wsdlab.parse_grid_config(workload.grid) if workload.grid
                   else wsdlab.default_grid())
    occurrences = sum(
        1 for doc in corpus.documents for tok in doc.tokens if tok.sense is not None
    )
    return Inputs(
        corpus_text=wsdlab.serialize_corpus(corpus),
        targets_text="".join(f"{lemma}\t{category}\n" for lemma, category in targets),
        tokens=sum(len(doc.tokens) for doc in corpus.documents),
        documents=len(corpus.documents),
        targets=len(targets),
        occurrences=occurrences,
        cells=criteria * len(targets),
        # Every cell classifies each of its word's occurrences exactly once.
        decisions=criteria * occurrences,
    )


def write_inputs(workload: Workload, inputs: Inputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "corpus.tsv").write_text(inputs.corpus_text, encoding="utf-8")
    (directory / "targets.tsv").write_text(inputs.targets_text, encoding="utf-8")
    if workload.grid:
        (directory / "grid.conf").write_text(workload.grid, encoding="utf-8")
