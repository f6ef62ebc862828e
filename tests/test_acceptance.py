"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import wsdlab
from wsdlab import (
    CVParams,
    PseudowordConfig,
    SmoothingParams,
    classify_dl,
    classify_nb,
    cross_validate,
    default_grid,
    enumerate_grid,
    evidence_reports,
    extract_occurrences,
    generate_pseudoword_corpus,
    kfold_split,
    m_estimate,
    parse_corpus,
    parse_criterion,
    serialize_corpus,
    stats_rows,
    train_dl,
    train_nb,
)
from oracles import dl_scan_oracle, mfs_baseline, nb_posterior_oracle
from wsdlab.criteria import parse_cell
from wsdlab.evaluation import GridResult


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def vec(*keys):
    """A feature vector whose key at argument position i has offset i + 1."""
    return {key: ((keys.index(key) + 1,), ("NCOM",)) for key in sorted(set(keys))}


def test_criterion_01_grid_combinatorics():
    started = time.perf_counter()
    criteria = enumerate_grid(default_grid())
    assert len(criteria) == 576
    assert len(set(criteria)) == 576
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"default grid enumerates exactly 576 criteria in {elapsed:.3f}s")


def _random_training(rng, senses, features, max_instances=40, max_span=4):
    training = []
    for _ in range(rng.randint(1, max_instances)):
        span = rng.randint(0, min(max_span, len(features)))
        training.append((vec(*rng.sample(features, span)), rng.choice(senses)))
    return training


def test_criterion_02_nb_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20_240_001)
    cases = 0
    for _ in range(1000):
        senses = [f"s{i}" for i in range(rng.randint(1, 5))]
        features = [f"f{i}" for i in range(rng.randint(1, 6))]
        smoothing = SmoothingParams(
            rng.choice([0.1, 1.0, 10.0]),
            rng.choice(["feature-values", "senses"]),
        )
        training = _random_training(rng, senses, features)
        pool = features + ["unseen1", "unseen2"]
        query = vec(*rng.sample(pool, rng.randint(0, min(5, len(pool)))))
        got = classify_nb(train_nb(training, smoothing), query)
        want_sense, want_fallback = nb_posterior_oracle(training, smoothing, query)
        assert got.sense == want_sense
        assert got.used_fallback == want_fallback
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 1000 and elapsed < 10.0
    report(2, f"NB matched the exhaustive posterior on {cases}/{cases} cases "
              f"in {elapsed:.2f}s")


def test_criterion_03_dl_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20_240_002)
    cases = 0
    for _ in range(1000):
        senses = [f"s{i}" for i in range(rng.randint(1, 5))]
        features = [f"f{i}" for i in range(rng.randint(1, 50))]
        smoothing = SmoothingParams(rng.choice([0.0, 0.1, 1.0, 10.0]))
        training = _random_training(rng, senses, features, max_instances=60)
        pool = features + ["unseen"]
        query = vec(*rng.sample(pool, rng.randint(0, min(6, len(pool)))))
        got = classify_dl(train_dl(training, smoothing), query)
        want_sense, want_fallback, want_key = dl_scan_oracle(training, smoothing, query)
        assert got.sense == want_sense
        assert got.used_fallback == want_fallback
        assert got.key == want_key
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 1000 and elapsed < 10.0
    report(3, f"DL matched the brute-force strength scan on {cases}/{cases} cases "
              f"in {elapsed:.2f}s")


def test_criterion_04_m_estimate_laws():
    sweep = [m_estimate(c, 100, 0.3, 2.0) for c in range(101)]
    assert all(a <= b for a, b in zip(sweep, sweep[1:]))
    for event, condition, prior in ((0, 7, 0.2), (37, 80, 0.25), (99, 100, 0.6)):
        assert abs(m_estimate(event, condition, prior, 1e9) - prior) < 1e-6
        assert abs(m_estimate(event, condition, prior, 0.0) - event / condition) < 1e-12
    report(4, "m-estimate is monotone in the event count and reaches both limits")


def test_criterion_05_entropy_anchor():
    corpus = parse_corpus("\n".join(f"w\tw\tA\tB\t{s}" for s in ["a"] * 723 + ["b"] * 277))
    entropy = float(stats_rows(corpus, [("w", "noun")])[1][4])
    assert abs(entropy - 0.851) <= 0.005
    report(5, f"two-sense entropy H(0.723, 0.277) = {entropy:.4f} bits")


def test_criterion_06_fold_laws():
    corpus = parse_corpus(
        "\n".join(f"w\tw\tA\tB\t{s}" for s in ["x"] * 140 + ["y"] * 60)
    )
    occurrences = extract_occurrences(corpus, "w", "noun")
    plan = kfold_split(occurrences, 10, 0)
    # The folds cover every occurrence exactly once.
    assert sorted(i for fold in plan.folds for i in fold) == list(range(200))
    assert [len(fold) for fold in plan.folds] == [20] * 10
    assert all(Counter(plan.occurrences[i].sense for i in fold) == Counter({"x": 14, "y": 6})
               for fold in plan.folds)
    report(6, "stratified 10-fold split of 200 occurrences: folds of 20, 14/6 per sense")


def test_criterion_07_planted_signal_separation():
    started = time.perf_counter()
    # (a) fully discriminative lemma at offset -1
    config = PseudowordConfig(
        sources=("banane", "porte"), counts=(200, 200), signal_offsets=(-1,)
    )
    corpus = generate_pseudoword_corpus(config, 11)
    occurrences = extract_occurrences(corpus, config.target_lemma, "noun")
    plan = kfold_split(occurrences, 10, 0)
    unigram1 = parse_cell("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(plan, unigram1, CVParams(classifier))
        assert result.precision == 1.0

    # (b) the signal lives only in the left-adjacent lemma pair: each token
    # value appears with both senses, so unigrams carry nothing
    pair_config = PseudowordConfig(
        sources=("banane", "porte"), counts=(200, 200),
        signal_offsets=(-2, -1), signal_mode="pair", vocabulary=1,
    )
    pair_corpus = generate_pseudoword_corpus(pair_config, 7)
    pair_occurrences = extract_occurrences(pair_corpus, pair_config.target_lemma, "noun")
    pair_plan = kfold_split(pair_occurrences, 10, 0)
    baseline = mfs_baseline(pair_occurrences)
    bigram = parse_cell("[2gr|lemma|leftright|all]@2")
    unigram2 = parse_cell("[1gr|lemma|ordered|all]@2")
    for classifier in ("nb", "dl"):
        pair_result = cross_validate(pair_plan, bigram, CVParams(classifier))
        assert pair_result.precision >= 0.99
        unigram_result = cross_validate(pair_plan, unigram2, CVParams(classifier))
        assert unigram_result.precision <= baseline + 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(7, f"unigram signal separated at 1.000; pair-only signal: bigrams >= 0.99, "
              f"unigrams <= MFS + 0.05 ({elapsed:.1f}s)")


def test_criterion_08_fallback_accounting():
    # the filler vocabulary is astronomically large, so test-fold contexts
    # share no feature key with training: every decision must be the fallback
    config = PseudowordConfig(
        sources=("banane", "porte"), counts=(70, 30),
        signal_offsets=(-1,), noise=1.0, vocabulary=10**9, width=1,
    )
    corpus = generate_pseudoword_corpus(config, 23)
    occurrences = extract_occurrences(corpus, config.target_lemma, "noun")
    plan = kfold_split(occurrences, 10, 0)
    cell = parse_cell("[1gr|lemma|ordered|all]@1")
    for classifier in ("nb", "dl"):
        result = cross_validate(plan, cell, CVParams(classifier, keep_records=True))
        # Every decision falls back to banane: right exactly on its occurrences.
        assert result.fallback == (1 << len(occurrences)) - 1
        assert result.correct == sum(1 << i for i, occ in enumerate(occurrences)
                                     if occ.sense == "banane")
        assert result.precision == 0.7
    report(8, "zero-overlap test folds: 100% fallback to the training MFS")


def test_criterion_09_evidence_profile_consistency():
    config = PseudowordConfig(
        sources=("banane", "porte"), counts=(120, 80),
        signal_offsets=(-1,), noise=0.5, vocabulary=3000,
    )
    corpus = generate_pseudoword_corpus(config, 29)
    occurrences = extract_occurrences(corpus, config.target_lemma, "noun")
    plan = kfold_split(occurrences, 10, 0)
    params = CVParams("dl", keep_records=True)
    result = cross_validate(plan, parse_cell("[1gr|lemma|ordered|all]@1"), params)
    rows = evidence_reports(GridResult((result,), (), params))["evidence_profile.csv"][1:]
    fallbacks = result.fallback.bit_count()
    correct = sum(row[3] for row in rows) + (result.correct & result.fallback).bit_count()
    assert correct / result.decisions == result.precision
    uses = sum(row[2] for row in rows)
    assert uses == result.decisions - fallbacks
    report(9, f"profile reconstructs precision {result.precision:.4f} exactly; "
              f"usage sums to 100% ({uses} decisions besides {fallbacks} fallbacks)")


PW_CONFIGS = {
    "noun": ("banane", "porte", "noun", 40, 41),
    "adjective": ("frais", "sec", "adjective", 36, 42),
    "verb": ("ouvrir", "tendre", "verb", 44, 43),
}

SMALL_GRID = (
    "orders = 1,2\ntags = lemma\npositionings = ordered,leftright\n"
    "filters = all,content\nsizes = 1,2,3\n"
)


def _build_three_category_workspace(root):
    corpus_parts = []
    target_lines = []
    for category, (a, b, cat, count, seed) in PW_CONFIGS.items():
        config = PseudowordConfig(
            sources=(a, b), counts=(count, count), signal_offsets=(-1,),
            noise=0.3, vocabulary=25, category=cat,
        )
        corpus_parts.append(serialize_corpus(generate_pseudoword_corpus(config, seed)))
        target_lines.append(f"{config.target_lemma}\t{cat}")
    (root / "corpus.tsv").write_text("".join(corpus_parts), encoding="utf-8")
    (root / "targets.tsv").write_text("\n".join(target_lines) + "\n", encoding="utf-8")
    (root / "small.grid").write_text(SMALL_GRID, encoding="utf-8")


def _run_cli(root, *args):
    # The subprocess runs in ``root``, so the package goes on its path by its
    # absolute location.
    src = str(Path(wsdlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "wsdlab", *args],
        cwd=root, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


def test_criterion_10_jobs_determinism(tmp_path):
    _build_three_category_workspace(tmp_path)
    common = ("--corpus", "corpus.tsv", "--targets", "targets.tsv",
              "--grid", "small.grid", "--classifier", "nb",
              "--k", "10", "--seed", "42")
    one = _run_cli(tmp_path, "grid", *common, "--jobs", "1", "-o", "j1")
    eight = _run_cli(tmp_path, "grid", *common, "--jobs", "8", "-o", "j8")
    assert one.returncode == 0, one.stderr
    assert eight.returncode == 0, eight.stderr
    for name in ("grid.csv", "context.csv", "context_curves.csv"):
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j8" / name).read_bytes()
    report(10, "grid runs with --jobs 1 and --jobs 8 are byte-identical")


def test_criterion_11_report_schema_fidelity(tmp_path):
    started = time.perf_counter()
    _build_three_category_workspace(tmp_path)
    common = ("--corpus", "corpus.tsv", "--targets", "targets.tsv",
              "--k", "10", "--seed", "7")
    categories = ("noun", "adjective", "verb")
    grid_criteria = 2 * 1 * 2 * 2 * 3  # orders x tags x positionings x filters x sizes

    # grid: one row per (word, criterion); per-word precision and size columns
    result = _run_cli(tmp_path, "grid", *common, "--grid", "small.grid", "-o", "grid")
    assert result.returncode == 0, result.stderr
    header, rows = _read_csv(tmp_path / "grid" / "grid.csv")
    assert header == "word,category,criterion,size,classifier,precision,fold_precisions"
    assert len(rows) == 3 * grid_criteria
    assert {row.split(",")[1] for row in rows} == set(categories)

    # context: one cell per (category, order), averaged optimal sizes
    header, rows = _read_csv(tmp_path / "grid" / "context.csv")
    assert header == "category,order,cells,avg_optimal_size"
    assert len(rows) == 3 * 2
    header, rows = _read_csv(tmp_path / "grid" / "context_curves.csv")
    assert header == "category,family,size,words,precision"
    assert len(rows) == 3 * 8 * 3  # categories x families x sizes

    # evidence: per-category tag profile plus offset histograms
    result = _run_cli(tmp_path, "evidence", *common,
                      "--criterion", "[1gr|mform|ordered|all]@2", "-o", "evid")
    assert result.returncode == 0, result.stderr
    header, rows = _read_csv(tmp_path / "evid" / "evidence_profile.csv")
    assert header == "category,tag,uses,correct,precision_pct,usage_pct"
    assert {row.split(",")[0] for row in rows} == set(categories)
    header, rows = _read_csv(tmp_path / "evid" / "evidence_space.csv")
    assert header == "category,tag,offset,uses,correct"
    assert all(int(row.split(",")[3]) >= int(row.split(",")[4]) for row in rows)
    header, rows = _read_csv(tmp_path / "evid" / "evidence_summary.csv")
    assert header == "category,tag,offsets"

    # ablation: (category, order) cells of all-vs-content decreases
    result = _run_cli(tmp_path, "ablation", *common, "--grid", "small.grid",
                      "--classifier", "dl", "-o", "abl")
    assert result.returncode == 0, result.stderr
    header, rows = _read_csv(tmp_path / "abl" / "ablation.csv")
    assert header == ("category,order,pairs,baseline_mean,variant_mean,"
                      "decrease_points,decrease_relative_pct")
    assert len(rows) == 3 * 2
    assert all(int(row.split(",")[2]) == 6 for row in rows)  # 2 positionings x 3 sizes

    # selection: three filter rows per category
    result = _run_cli(tmp_path, "selection", *common,
                      "--criterion", "[1gr|mform|ordered|all]@2", "-o", "sel")
    assert result.returncode == 0, result.stderr
    header, rows = _read_csv(tmp_path / "sel" / "selection.csv")
    assert header == "criterion,category,words,precision"
    assert len(rows) == 3 * 3
    filters = [row.split(",")[0] for row in rows]
    assert any("|all]" in f for f in filters)
    assert any("|content]" in f for f in filters)
    assert any("|selected]" in f for f in filters)

    # shift: per-shift rows with deltas against the symmetric window
    result = _run_cli(tmp_path, "shift", *common,
                      "--criterion", "[1gr|lemma|ordered|all]@2",
                      "--shifts", "0,1", "-o", "shift")
    assert result.returncode == 0, result.stderr
    header, rows = _read_csv(tmp_path / "shift" / "shift.csv")
    assert header == "shift,category,words,precision,delta_vs_zero"
    assert len(rows) == 2 * 4  # shifts x (three categories + "all")
    zero_rows = [row for row in rows if row.startswith("0,")]
    assert all(row.endswith("0.000000") for row in zero_rows)

    # adjacency: anchored combination vs the plain bigram, with the delta
    result = _run_cli(tmp_path, "adjacency", *common, "-o", "adj")
    assert result.returncode == 0, result.stderr
    header, rows = _read_csv(tmp_path / "adj" / "adjacency.csv")
    assert header == "anchored_combination,plain_bigram,delta"
    assert len(rows) == 1
    combined, plain, delta = (float(v) for v in rows[0].split(","))
    assert delta == pytest.approx(plain - combined, abs=1e-6)

    # every run leaves a replayable run.meta
    for directory in ("grid", "evid", "abl", "sel", "shift", "adj"):
        meta = json.loads((tmp_path / directory / "run.meta").read_text())
        assert meta["seed"] == 7 and meta["corpus"] == "corpus.tsv"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(11, f"all seven report kinds match their documented schemas ({elapsed:.1f}s)")
