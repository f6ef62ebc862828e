"""Whole grid runs against the plain grid oracle.

Each example draws a small corpus (one or two pseudo-words, untagged target
tokens, and a rare target below k whose tokens may sit at a document's
edge), a small grid config, one cell of shifted, anchored or combined
criteria and one unigram criterion.  Two properties compare the oracle's
rows with the program's: one runs the CLI (``grid`` and ``evaluate``, and
``evidence`` for the decision list) at ``--jobs 1`` and ``--jobs 2`` and
compares the report bytes; the other, much cheaper per example and so run
on many more, calls ``grid_search`` under both classifiers and both prior
modes and compares the rows.  Both compare every decision too: each
result's correct and fallback bits with the oracle's index sets, and under
``grid_search`` each decision's evidence.
NB decisions come from the per-key references, which are bit-identical to
``classify_nb``, so exact ties need not be avoided.
"""

import csv
import io
import itertools
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsdlab import (
    Corpus,
    Criterion,
    CVParams,
    Document,
    PseudowordConfig,
    SmoothingParams,
    Token,
    generate_pseudoword_corpus,
    grid_search,
    parse_corpus,
)
from wsdlab import cli
from wsdlab.analysis import grid_rows
from wsdlab.cli import main
from wsdlab.corpus import TOKEN_FIELDS
from wsdlab.criteria import CONTENT_MODES, FILTERS, POSITIONINGS
from oracles import (
    evidence_reports_reference,
    grid_rows_oracle,
    parse_corpus_plain,
    serialize_corpus_lines,
)

RARE = "rare"
# Fillers in and out of the content and selected tag sets.
FILLER_POS = ("NCOM", "DET", "PREP", "ADJ", "VINF")


def subset(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True)


@st.composite
def corpora(draw, k):
    """The corpus text, the targets file text and the targets: one or two
    pseudo-words, each with at least k occurrences, in either signal mode;
    then untagged target tokens and at most k - 1 tagged tokens of a rare
    target written over tokens other than the pseudo-words' own."""
    mode = draw(st.sampled_from(["unigram", "pair"]))
    width = draw(st.integers(2 if mode == "pair" else 1, 3))
    offsets = draw(st.sampled_from([(-2, -1), (1, 2)] if mode == "pair" else
                                   [(-1,), (1,), (-1, 1), (-width,)]))
    noise = draw(st.sampled_from([0.0, 0.5, 1.0]))
    documents = []
    targets = []
    for sources in (("ba", "po", "mi"), ("ca", "do"))[:draw(st.integers(1, 2))]:
        sources = sources[:2] if mode == "pair" else sources
        counts = [draw(st.integers(1, 6)) for _ in sources]
        counts[-1] += max(0, k - sum(counts))
        config = PseudowordConfig(
            sources, tuple(counts), signal_offsets=offsets, signal_mode=mode, noise=noise,
            vocabulary=draw(st.sampled_from([1, 3, 10, 40])), width=width,
            category=draw(st.sampled_from(["noun", "adjective", "verb"])),
            signal_pos=draw(st.sampled_from(["NCOM", "DET"])), filler_pos=FILLER_POS,
        )
        corpus = generate_pseudoword_corpus(config, draw(st.integers(0, 9)))
        documents += [list(doc.tokens) for doc in corpus.documents]
        targets.append((config.target_lemma, config.category))
    spots = st.tuples(st.integers(0, len(documents) - 1), st.integers(0, 2 * width))
    for d, i in draw(st.lists(spots, max_size=3)):
        if i != width:
            documents[d][i] = Token(targets[0][0], targets[0][0], "NCOM", "NCOM", None)
    for d, i in draw(st.lists(spots, max_size=k - 1, unique=True)):
        if i != width:
            documents[d][i] = Token(RARE, RARE, "ADJ", "ADJ", draw(st.sampled_from(["r1", "r2"])))
    targets.append((RARE, "noun"))
    corpus = Corpus(tuple(Document(f"d{n}", tuple(tokens)) for n, tokens in enumerate(documents)))
    return (serialize_corpus_lines(corpus),
            "".join(f"{lemma}\t{category}\n" for lemma, category in targets), targets)


def criteria(order=st.integers(1, 3)):
    return st.builds(
        lambda order, tag, positioning, filt, size, shift, anchored: Criterion(
            order, tag, positioning, filt, size, shift, anchored and order > 1),
        order, st.sampled_from(TOKEN_FIELDS), st.sampled_from(POSITIONINGS), st.sampled_from(FILTERS),
        st.integers(1, 3), st.integers(-2, 2), st.booleans())


@st.composite
def runs(draw):
    k = draw(st.integers(2, 3))
    corpus, targets_text, targets = draw(corpora(k))
    grid = {"orders": draw(subset([1, 2, 3])), "tags": draw(subset(TOKEN_FIELDS)),
            "positionings": draw(subset(POSITIONINGS)), "filters": draw(subset(FILTERS)),
            "sizes": draw(subset([1, 2, 3]))}
    cells = [(Criterion(*values),) for values in itertools.product(*grid.values())]
    assume(len(cells) <= 12)
    return {
        "corpus": corpus, "targets_text": targets_text, "targets": targets, "k": k,
        "grid": grid, "grid_cells": cells,
        "cell": tuple(draw(st.lists(criteria(), min_size=1, max_size=2, unique=True))),
        "unigram": draw(criteria(st.just(1))),
        "classifier": draw(st.sampled_from(["nb", "dl"])),
        "smoothing": SmoothingParams(draw(st.sampled_from([0.0, 1.0, 10.0])),
                                     draw(st.sampled_from(["feature-values", "senses"]))),
        "seed": draw(st.integers(0, 3)),
        "content_mode": draw(st.sampled_from(CONTENT_MODES)),
    }


def oracle(run, cells, classifier, smoothing):
    return grid_rows_oracle(parse_corpus_plain(run["corpus"]), run["targets"], cells,
                            classifier, smoothing, run["k"], run["seed"],
                            content_mode=run["content_mode"])


def bits(mask):
    """The indices of the set bits of ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def decisions(grid_result):
    """Each result's key, the run's classifier, and the result's decision
    count and correct and fallback indices."""
    return [(r.lemma, r.category, r.cell, grid_result.params.classifier, r.decisions,
             bits(r.correct), bits(r.fallback)) for r in grid_result.results]


def oracle_decisions(outcomes):
    return [(o.lemma, o.category, o.cell, o.classifier, len(o.records), o.correct, o.fallback)
            for o in outcomes]


def keeping(results):
    """``cli.grid_search`` patched to add each ``GridResult`` to ``results``."""
    def search(*args, **kwargs):
        results.append(grid_search(*args, **kwargs))
        return results[-1]
    return mock.patch.object(cli, "grid_search", search)


def csv_text(rows):
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerows(rows)
    return stream.getvalue()


@settings(max_examples=25, deadline=None)
@given(runs())
def test_cli_reports_equal_the_whole_grid_oracle(run):
    smoothing = run["smoothing"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus.tsv").write_text(run["corpus"], encoding="utf-8")
        (root / "targets.tsv").write_text(run["targets_text"], encoding="utf-8")
        (root / "grid.cfg").write_text("".join(
            f"{key} = {', '.join(map(str, values))}\n" for key, values in run["grid"].items()),
            encoding="utf-8")
        # (command, its own options, classifier, the cells it runs); evidence
        # runs the decision list, so it takes no --classifier or --prior-mode.
        choice = ["--classifier", run["classifier"], "--prior-mode", smoothing.prior_mode]
        plans = [
            ("grid", ["--grid", str(root / "grid.cfg"), *choice], run["classifier"],
             run["grid_cells"]),
            ("evaluate", ["--criterion", "+".join(map(str, run["cell"])), *choice],
             run["classifier"], [run["cell"]]),
        ]
        if run["classifier"] == "dl":
            plans.append(("evidence", ["--criterion", str(run["unigram"])], "dl",
                          [(run["unigram"],)]))
        for command, options, classifier, cells in plans:
            rows, outcomes = oracle(run, cells, classifier, smoothing)
            if command == "evidence":
                want = {name: csv_text(rows)
                        for name, rows in evidence_reports_reference(outcomes).items()}
            else:
                want = {f"{command}.csv": csv_text(rows)}
            for jobs in ("1", "2"):
                out = root / f"{command}{jobs}"
                results = []
                with keeping(results):
                    status = main([
                        command, "--corpus", str(root / "corpus.tsv"),
                        "--targets", str(root / "targets.tsv"), *options,
                        "--m", str(smoothing.m), "--k", str(run["k"]),
                        "--seed", str(run["seed"]), "--content-mode", run["content_mode"],
                        "--jobs", jobs, "-o", str(out)])
                assert status == 0
                for name, text in want.items():
                    assert (out / name).read_text(encoding="utf-8") == text, (command, jobs, name)
                (result,) = results
                assert decisions(result) == oracle_decisions(outcomes), (command, jobs)


@settings(max_examples=150, deadline=None)
@given(runs())
def test_grid_search_equals_the_whole_grid_oracle(run):
    corpus = parse_corpus(run["corpus"])
    cells = run["grid_cells"] + [run["cell"]]
    for classifier, prior_mode in (("nb", "feature-values"), ("nb", "senses"), ("dl", "senses")):
        smoothing = SmoothingParams(run["smoothing"].m, prior_mode)
        rows, outcomes = oracle(run, cells, classifier, smoothing)
        params = CVParams(classifier, smoothing, run["k"], run["seed"], run["content_mode"],
                          keep_records=True)
        result = grid_search(corpus, run["targets"], cells, params)
        assert result.params == params
        assert grid_rows(result) == rows
        assert decisions(result) == oracle_decisions(outcomes)
        assert [r.evidence for r in result.results] == [
            tuple(record.evidence for record in o.records) for o in outcomes]
