import dataclasses
import math
import pickle
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsdlab.corpus
from oracles import (
    mfs_baseline,
    occurrences_scan,
    parse_corpus_plain,
    sense_distribution,
    sense_entropy,
    serialize_corpus_lines,
    word_stats,
)
from wsdlab import (
    Corpus,
    CorpusParseError,
    Document,
    Occurrence,
    PseudowordConfig,
    Token,
    extract_occurrences,
    generate_pseudoword_corpus,
    parse_corpus,
    parse_grid_config,
    parse_pseudoword_config,
    parse_targets,
    serialize_corpus,
    stats_rows,
)


# --- parsing -----------------------------------------------------------------

def test_parse_single_line_token():
    corpus = parse_corpus("mettre\tmettre\tVINF\tVINF\t1.12.7")
    assert len(corpus.documents) == 1
    token = corpus.documents[0].tokens[0]
    assert token == Token("mettre", "mettre", "VINF", "VINF", "1.12.7")


def test_parse_empty_stream():
    assert parse_corpus("") == Corpus(())


def test_parse_wrong_column_count():
    with pytest.raises(CorpusParseError) as err:
        parse_corpus("ok\tok\tA\tB\t\nfin\tfin\tNCFS")
    assert err.value.line_number == 2
    assert "3" in str(err.value)


def test_parse_empty_tag_field():
    with pytest.raises(CorpusParseError) as err:
        parse_corpus("mot\t\tA\tB\t")
    assert "lemma" in str(err.value)
    assert str(err.value) == "line 1: empty lemma field (column 2)"
    with pytest.raises(CorpusParseError, match="^line 2: empty cgems field \\(column 4\\)$"):
        parse_corpus("#doc d\nmot\tmot\tA\t\t")


def test_parse_documents_and_blank_lines(table_corpus):
    assert [d.id for d in table_corpus.documents] == ["t1"]
    assert len(table_corpus.documents[0].tokens) == 7
    two = parse_corpus("#doc a\nx\tx\tA\tB\ts\n\n#doc b\ny\ty\tA\tB\t")
    assert [d.id for d in two.documents] == ["a", "b"]
    assert two.documents[1].tokens[0].sense is None


def test_parse_duplicate_document_ids_rejected():
    with pytest.raises(ValueError, match="duplicate document id"):
        parse_corpus("#doc a\nx\tx\tA\tB\t\n#doc a\ny\ty\tA\tB\t")


@pytest.mark.parametrize("text, line", [
    ("#doc a\nx\tx\tA\tB\t\n#doc a\ny\ty\tA\tB\t", 3),
    ("x\tx\tA\tB\t\n\n#doc doc0\ny\ty\tA\tB\t", 3),
    ("#doc a\n#doc b\n#doc a\n", 3),
])
def test_parse_duplicate_document_id_reports_its_line(text, line):
    with pytest.raises(CorpusParseError, match="duplicate document id") as err:
        parse_corpus(text)
    assert err.value.line_number == line


def test_corpus_rejects_duplicate_document_ids():
    with pytest.raises(ValueError, match="duplicate document id"):
        Corpus((Document("a", ()), Document("a", ())))


def test_tokens_before_first_header_get_implicit_document():
    corpus = parse_corpus("x\tx\tA\tB\t\n#doc named\ny\ty\tA\tB\t")
    assert [d.id for d in corpus.documents] == ["doc0", "named"]


def test_token_pickles_and_replaces():
    constructed = Token("maison", "maison", "NCFS", "NCOM", "1.2")
    parsed = parse_corpus("maison\tmaison\tNCFS\tNCOM\t1.2").documents[0].tokens[0]
    for token in (constructed, parsed):
        assert token == constructed and hash(token) == hash(constructed)
        assert pickle.loads(pickle.dumps(token)) == token
        assert dataclasses.replace(token, sense=None) == Token("maison", "maison", "NCFS", "NCOM")
        with pytest.raises(dataclasses.FrozenInstanceError):
            token.lemma = "porte"


def test_token_field_validation():
    with pytest.raises(ValueError):
        Token("", "x", "A", "B")
    with pytest.raises(ValueError):
        Token("x", "x", "A", "B", sense="")


_word = st.text(alphabet="abcdefgé", min_size=1, max_size=6)
_token = st.builds(
    Token,
    mform=_word, lemma=_word, ems=_word, cgems=_word,
    sense=st.one_of(st.none(), _word),
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.uuids().map(str), st.lists(_token, max_size=5)),
        max_size=4,
        unique_by=lambda d: d[0],
    )
)
def test_serialize_parse_round_trip(docs):
    corpus = Corpus(tuple(Document(doc_id, tuple(tokens)) for doc_id, tokens in docs))
    text = serialize_corpus(corpus)
    assert text == serialize_corpus_lines(corpus)
    assert parse_corpus(text) == corpus


# Every boundary str.splitlines() knows, "\r\n" included.
_LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
_CORPUS_LINE = st.sampled_from((
    "maison\tmaison\tNCFS\tNCOM\t", "maison\tmaison\tNCFS\tNCOM\t1.2",
    "maisons\tmaison\tNCFP\tNCOM\t", "le\tle\tDET\tDET\t", "", "  ", "\t",
    "#doc a", "#doc b", "#doc doc0", "#doc", "only\tthree\tcolumns", "a\tb\tc\td\te\tf",
    "mot\t\tA\tB\t", "mot\tmot\t\tB\t", "mot\tmot\tA\t\ts", "\tmot\tA\tB\t",
))


def _parsed(parse, source):
    """The parsed corpus, or the line number and message of the parse error."""
    try:
        return parse(source)
    except CorpusParseError as exc:
        return exc.line_number, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.tuples(_CORPUS_LINE, st.sampled_from(_LINE_BREAKS)), max_size=30),
    trailing_break=st.booleans(),
    chunk=st.integers(min_value=1, max_value=7),
    memo=st.integers(min_value=0, max_value=3),
)
def test_parse_equals_plain_parse(lines, trailing_break, chunk, memo):
    text = "".join(line + brk for line, brk in lines)
    if lines and not trailing_break:
        text = text[:-len(lines[-1][1])]
    with mock.patch.object(wsdlab.corpus, "_CHUNK_CHARS", chunk), \
            mock.patch.object(wsdlab.corpus, "_MEMO_LINES", memo):
        assert list(wsdlab.corpus._split_lines(text)) == text.splitlines()
        parsed = _parsed(parse_corpus, text)
    assert parsed == _parsed(parse_corpus_plain, text)
    if isinstance(parsed, Corpus):
        assert serialize_corpus(parsed) == serialize_corpus_lines(parsed)


def _assert_equal_values_shared(corpus):
    """Equal field values are one string object, across tokens and columns."""
    first: dict[str, str] = {}
    for doc in corpus.documents:
        for tok in doc.tokens:
            for value in (tok.mform, tok.lemma, tok.ems, tok.cgems, tok.sense):
                if value is not None:
                    assert first.setdefault(value, value) is value


def test_parse_shares_equal_field_values():
    text = (
        "#doc a\nmaison\tmaison\tNCFS\tNCOM\t\nmaisons\tmaison\tNCFP\tNCOM\t1.2\n"
        "#doc b\nmaison\tmaison\tNCFS\tNCOM\t1.2\nmaison\tmaison\tNCFS\tNCOM\t\n"
    )
    _assert_equal_values_shared(parse_corpus(text))


# --- occurrences -------------------------------------------------------------

def test_extract_occurrences_table_fragment(table_corpus):
    occurrences = extract_occurrences(table_corpus, "détention", "noun")
    assert len(occurrences) == 1
    assert occurrences[0].sense == "1"
    assert occurrences[0].token_index == 6


def test_extract_occurrences_absent_lemma(table_corpus):
    assert extract_occurrences(table_corpus, "xyz", "noun") == ()


def test_extract_occurrences_skips_untagged(table_corpus):
    # "fin" appears with an empty sense column: not a usable instance.
    assert extract_occurrences(table_corpus, "fin", "noun") == ()


def test_extract_occurrences_count_matches_tagged_tokens(table_corpus):
    tagged = sum(
        1
        for doc in table_corpus.documents
        for tok in doc.tokens
        if tok.lemma == "mettre" and tok.sense is not None
    )
    assert len(extract_occurrences(table_corpus, "mettre", "verb")) == tagged


def test_extract_occurrences_rejects_unknown_category(table_corpus):
    with pytest.raises(ValueError, match="category"):
        extract_occurrences(table_corpus, "mettre", "adverb")


def test_occurrences_hold_their_documents_token_tuple(table_corpus):
    # "copy" holds a token tuple equal to the first document's, not the same.
    first = table_corpus.documents[0]
    corpus = Corpus(table_corpus.documents + (Document("copy", tuple(list(first.tokens))),))
    documents = {doc.id: doc for doc in corpus.documents}
    occurrences = (extract_occurrences(corpus, "mettre", "verb")
                   + extract_occurrences(corpus, "détention", "noun"))
    assert [occ.document_id for occ in occurrences] == [first.id, "copy"] * 2
    for occ in occurrences:
        assert occ.tokens is documents[occ.document_id].tokens


def test_occurrence_tokens_are_left_out_of_equality_hash_and_repr():
    tokens = (Token("x", "x", "X", "X"), Token("w", "w", "W", "W", "s"))
    occurrence = Occurrence("d", 1, "w", "noun", "s", tokens)
    other = dataclasses.replace(occurrence, tokens=tokens[1:])
    assert occurrence == other
    assert hash(occurrence) == hash(other)
    assert repr(occurrence) == repr(other) == (
        "Occurrence(document_id='d', token_index=1, lemma='w', category='noun', sense='s')"
    )


_indexed_token = st.builds(
    Token,
    mform=st.just("f"),
    lemma=st.sampled_from(("a", "b", "c")),
    ems=st.just("E"),
    cgems=st.just("C"),
    sense=st.one_of(st.none(), st.sampled_from(("s1", "s2"))),
)


@settings(max_examples=100, deadline=None)
@given(
    documents=st.lists(st.lists(_indexed_token, max_size=8), max_size=5),
    lemma=st.sampled_from(("a", "b", "c", "absent")),
    category=st.sampled_from(("noun", "adjective", "verb")),
)
def test_extract_occurrences_equals_corpus_scan(documents, lemma, category):
    corpus = Corpus(tuple(Document(f"d{n}", tuple(t)) for n, t in enumerate(documents)))
    assert extract_occurrences(corpus, lemma, category) == occurrences_scan(
        corpus, lemma, category
    )


# --- distribution / entropy / baseline ---------------------------------------
#
# sense_distribution, sense_entropy and mfs_baseline are the reference that
# stats_rows is held to (tests/test_analysis.py); these pin the reference.

def _corpus(senses):
    return parse_corpus("\n".join(f"w\tw\tA\tB\t{sense}" for sense in senses))


def _occurrences(senses):
    return extract_occurrences(_corpus(senses), "w", "noun")


def _stats_row(senses):
    """The stats.csv row of a noun "w" with these occurrence senses."""
    return stats_rows(_corpus(senses), [("w", "noun")])[1]


def test_sense_distribution_counts():
    occurrences = _occurrences(["a"] * 723 + ["b"] * 277)
    assert sense_distribution(occurrences) == {"a": 0.723, "b": 0.277}


def test_sense_distribution_degenerate():
    assert sense_distribution(_occurrences(["a", "a"])) == {"a": 1.0}
    four = sense_distribution(_occurrences(["a", "b", "c", "d"]))
    assert four == {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}
    with pytest.raises(ValueError):
        sense_distribution([])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=60))
def test_sense_distribution_sums_to_one(senses):
    distribution = sense_distribution(_occurrences(senses))
    assert math.isclose(sum(distribution.values()), 1.0, abs_tol=1e-9)
    entropy = sense_entropy(distribution)
    assert 0.0 <= entropy <= math.log2(len(distribution)) + 1e-12
    uniform = len(set(senses)) > 0 and all(
        math.isclose(p, 1.0 / len(distribution)) for p in distribution.values()
    )
    if uniform:
        assert math.isclose(entropy, math.log2(len(distribution)), abs_tol=1e-9)
    assert mfs_baseline(_occurrences(senses)) >= 1.0 / len(distribution) - 1e-12


def test_sense_entropy_two_senses():
    # -0.723*log2(0.723) - 0.277*log2(0.277) = 0.85132...
    assert sense_entropy({"a": 0.723, "b": 0.277}) == pytest.approx(0.851, abs=5e-4)
    assert float(_stats_row(["a"] * 723 + ["b"] * 277)[4]) == pytest.approx(0.851, abs=5e-4)


def test_sense_entropy_degenerate():
    assert sense_entropy({"a": 1.0}) == 0.0
    assert sense_entropy({s: 0.25 for s in "abcd"}) == pytest.approx(2.0)
    # One sense prints a zero entropy, not a negative zero.
    assert _stats_row(["a", "a"]) == ("w", "noun", 2, 1, "0.000000", "1.000000")
    assert _stats_row(list("abcd"))[4] == "2.000000"


def test_sense_entropy_rejects_bad_distribution():
    with pytest.raises(ValueError):
        sense_entropy({"a": 0.2, "b": 0.2})


def test_mfs_baseline_values():
    skew = _occurrences(["a"] * 933 + ["b"] * 40 + ["c"] * 20 + ["d"] * 7)
    assert mfs_baseline(skew) == pytest.approx(0.933)
    assert mfs_baseline(_occurrences(["a", "b"])) == 0.5
    assert mfs_baseline(_occurrences(["a"] * 7 + ["b"] * 3)) == pytest.approx(0.7)
    assert mfs_baseline(_occurrences(["a"] * 5)) == 1.0
    with pytest.raises(ValueError):
        mfs_baseline([])


# --- word stats ---------------------------------------------------------------

def test_word_stats_values():
    corpus = _corpus(["x"] * 70 + ["y"] * 30)
    header, row, average = stats_rows(corpus, [("w", "noun")])
    assert header == ("word", "category", "frequency", "senses", "entropy", "mfs")
    assert row[:4] == ("w", "noun", 100, 2)
    # independent entropy computation: H(0.7, 0.3)
    expected = -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3))
    (reference,) = word_stats(corpus, [("w", "noun")])
    assert reference.entropy == pytest.approx(expected, abs=1e-9)
    assert row[4] == f"{expected:.6f}"
    assert float(row[4]) == pytest.approx(0.881, abs=5e-4)
    assert row[5] == "0.700000"
    assert average == ("AVERAGE", "noun", "100.0", "2.0", row[4], row[5])


def test_word_stats_zero_occurrence_target(table_corpus):
    assert stats_rows(table_corpus, [("absent", "noun")])[1:] == [
        ("absent", "noun", 0, 0, "", "")
    ]


def test_category_averages_mean_of_two():
    # two words with mfs 0.761 and 0.760 (1000 occurrences each)
    corpus = parse_corpus("\n".join(
        [f"u\tu\tA\tB\t{s}" for s in ["x"] * 761 + ["y"] * 239]
        + [f"v\tv\tA\tB\t{s}" for s in ["x"] * 760 + ["y"] * 240]
    ))
    rows = stats_rows(corpus, [("u", "noun"), ("v", "noun"), ("ghost", "noun")])
    assert rows[3] == ("ghost", "noun", 0, 0, "", "")
    average = rows[4]
    assert average[:2] == ("AVERAGE", "noun")
    assert average[5] == "0.760500"
    # the zero-occurrence word is excluded: the mean of 1000 and 1000, not of
    # 1000, 1000 and 0
    assert average[2:4] == ("1000.0", "2.0")
    assert len(rows) == 5


# --- targets file -------------------------------------------------------------

def test_parse_targets():
    targets = parse_targets("# comment\nchef\tnoun\nmettre\tverb\n\n")
    assert targets == [("chef", "noun"), ("mettre", "verb")]


@pytest.mark.parametrize(
    "text", ["chef noun", "chef\tadverb", "chef\tnoun\nchef\tnoun", "\tnoun"]
)
def test_parse_targets_rejects(text):
    with pytest.raises(ValueError):
        parse_targets(text)


# --- pseudo-word generation ----------------------------------------------------

def _config(**kwargs):
    base = dict(sources=("banane", "porte"), counts=(50, 50), signal_offsets=(-1,))
    base.update(kwargs)
    return PseudowordConfig(**base)


def test_generator_is_deterministic():
    config = _config(noise=0.3)
    first = generate_pseudoword_corpus(config, 9)
    second = generate_pseudoword_corpus(config, 9)
    assert serialize_corpus(first) == serialize_corpus(second)
    different = generate_pseudoword_corpus(config, 10)
    assert serialize_corpus(first) != serialize_corpus(different)


def test_generator_counts_and_gold_senses():
    corpus = generate_pseudoword_corpus(_config(), 1)
    occurrences = extract_occurrences(corpus, "bananeporte", "noun")
    assert len(occurrences) == 100
    assert sorted(set(o.sense for o in occurrences)) == ["banane", "porte"]
    assert mfs_baseline(occurrences) == 0.5


def test_generator_plants_signals_at_offsets():
    corpus = generate_pseudoword_corpus(_config(signal_offsets=(-2, 3)), 1)
    for doc in corpus.documents:
        target_index = next(
            i for i, t in enumerate(doc.tokens) if t.sense is not None
        )
        sense_index = 0 if doc.tokens[target_index].sense == "banane" else 1
        assert doc.tokens[target_index - 2].lemma == f"cue{sense_index}"
        assert doc.tokens[target_index + 3].lemma == f"cue{sense_index}"


@pytest.mark.parametrize("fields", [
    {"signal_offsets": (-1, 2), "noise": 0.5},
    {"signal_offsets": (-2, -1), "signal_mode": "pair", "noise": 0.3},
    {"signal_values": ("rouge", "vert"), "noise": 0.2},
])
def test_generator_shares_equal_field_values(fields):
    config = PseudowordConfig(
        sources=("banane", "porte"), counts=(20, 20), width=4, vocabulary=6, **fields
    )
    _assert_equal_values_shared(generate_pseudoword_corpus(config, 3))


def test_generator_validation():
    with pytest.raises(ValueError, match="at least 2"):
        _config(sources=("solo",), counts=(10,))
    with pytest.raises(ValueError, match="non-zero"):
        _config(signal_offsets=(0,))
    with pytest.raises(ValueError, match="width"):
        _config(signal_offsets=(-9,))
    with pytest.raises(ValueError, match="consecutive"):
        _config(signal_mode="pair", signal_offsets=(-2, 1))
    with pytest.raises(ValueError, match="noise"):
        _config(noise=1.5)
    with pytest.raises(ValueError) as err:
        PseudowordConfig(sources=("solo",), counts=(1,), noise=1.5)
    assert str(err.value).splitlines() == [
        "a pseudo-word needs at least 2 source lemmas", "noise must be in [0, 1]",
    ]


def test_parse_pseudoword_config():
    config = parse_pseudoword_config(
        """
        # two-sense pseudo-word
        sources = banane, porte
        counts = 30
        signal_offsets = -2, -1
        signal_mode = pair
        noise = 0.25
        vocabulary = 9
        width = 4
        category = verb
        """
    )
    assert config.sources == ("banane", "porte")
    assert config.counts == (30, 30)
    assert config.signal_offsets == (-2, -1)
    assert config.signal_mode == "pair"
    assert config.noise == 0.25
    assert config.category == "verb"


@pytest.mark.parametrize("text, field, expected", [
    ("counts = 10-11", "counts", (10, 11)),
    ("signal_offsets = -2, 1-2\nwidth = 3", "signal_offsets", (-2, 1, 2)),
    ("filler_pos =  NCOM , DET", "filler_pos", ("NCOM", "DET")),
])
def test_every_pseudoword_list_reads_the_grid_config_list_syntax(text, field, expected):
    """Items are stripped, and integer lists take ascending ranges, as a grid
    config's ``orders`` and ``sizes`` do."""
    config = parse_pseudoword_config(f"sources = a, b\n{text}")
    assert getattr(config, field) == expected


@pytest.mark.parametrize("hint, text, expected", [
    (int, " 7", 7),
    (float, "0.25", 0.25),
    (str, "x", "x"),
    (Path | None, "a/b.tsv", Path("a/b.tsv")),
    (tuple[int, ...], "1, 3-4", (1, 3, 4)),
    (tuple[str, ...] | None, "a, b", ("a", "b")),
    (tuple[int, ...], "", ()),
])
def test_convert_reads_a_fields_text_by_its_annotation(hint, text, expected):
    assert wsdlab.corpus.convert(hint, text) == expected


@pytest.mark.parametrize("hint, text, problem", [
    (int, "2.0", "invalid literal for int() with base 10: '2.0'"),
    (float, "x", "could not convert string to float: 'x'"),
    (tuple[int, ...], "1,,2", "empty item in '1,,2'"),
    (tuple[int, ...], "3-1", "reversed range '3-1'"),
])
def test_convert_rejects_text_that_does_not_convert(hint, text, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        wsdlab.corpus.convert(hint, text)


def test_parse_pseudoword_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config keys"):
        parse_pseudoword_config("sources = a, b\nbogus = 1")
    with pytest.raises(ValueError, match="sources"):
        parse_pseudoword_config("counts = 5")


def test_parse_pseudoword_config_reports_every_problem():
    with pytest.raises(ValueError) as err:
        parse_pseudoword_config("counts = 5, x\nbogus = 1\nwidth = 4\nnoise = s\nno equals")
    assert str(err.value).splitlines() == [
        "config line 5: expected 'key = value', got 'no equals'",
        "unknown config keys: bogus",
        "config is missing the required 'sources' key",
        "config counts: invalid literal for int() with base 10: 'x'",
        "config noise: could not convert string to float: 's'",
    ]


@pytest.mark.parametrize("parse, text, problems", [
    (parse_grid_config, "sizes = 1\nsizes = 2\n# a note\ntags = lemma\ntags = x", [
        "grid config line 2: repeated key 'sizes'",
        "grid config line 5: repeated key 'tags'",
        "grid config tags: unknown tag 'x'; expected one of ('mform', 'lemma', 'ems', 'cgems')",
    ]),
    (parse_pseudoword_config, "sources = a, b\ncounts = 3\nsources = c\nbogus = 1\ncounts = 4", [
        "config line 3: repeated key 'sources'",
        "config line 5: repeated key 'counts'",
        "unknown config keys: bogus",
        "a pseudo-word needs at least 2 source lemmas",
    ]),
])
def test_a_repeated_config_key_is_listed_with_every_other_problem(parse, text, problems):
    with pytest.raises(ValueError) as err:
        parse(text)
    assert str(err.value).splitlines() == problems


def test_the_readme_pseudoword_config_block_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Config file keys:\n\n```\n", 1)[1].split("\n```\n", 1)[0]
    config = parse_pseudoword_config(block)
    assert config == PseudowordConfig(
        sources=("banane", "porte"), counts=(200, 200), signal_values=("jaune", "bois"),
        target="bananeporte", filler_pos=("NCOM", "DET", "PREP"),
    )


def _readme_config_block():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("Config file keys:\n\n```\n", 1)[1].split("\n```\n", 1)[0]


@pytest.mark.parametrize("text, values", [
    ("sources = a, b\ncounts = 30", {"sources": ("a", "b"), "counts": (30,)}),
    ("sources = a, b", {"sources": ("a", "b")}),
    ("sources = a, b\ncounts = 10-11", {"sources": ("a", "b"), "counts": (10, 11)}),
    (_readme_config_block(), {
        "sources": ("banane", "porte"), "counts": (200,), "signal_values": ("jaune", "bois"),
        "target": "bananeporte", "filler_pos": ("NCOM", "DET", "PREP")}),
], ids=["single-count", "no-counts", "count-range", "readme"])
def test_a_config_file_reads_as_the_config_built_in_python(text, values):
    """``PseudowordConfig`` holds the ``counts`` default and broadcasts a
    single count, so a file and a config built in Python agree."""
    assert parse_pseudoword_config(text) == PseudowordConfig(**values)


def test_generator_custom_signal_values():
    config = _config(signal_values=("jaune", "bois"))
    corpus = generate_pseudoword_corpus(config, 2)
    planted = {
        (doc.tokens[8].sense, doc.tokens[7].lemma) for doc in corpus.documents
    }
    assert planted == {("banane", "jaune"), ("porte", "bois")}
    with pytest.raises(ValueError, match="one-to-one"):
        _config(signal_values=("seul",))
    with pytest.raises(ValueError, match="unigram"):
        _config(signal_mode="pair", signal_offsets=(-2, -1), signal_values=("a", "b"))


def test_bundled_french_target_list():
    from importlib import resources

    text = (resources.files("wsdlab") / "data" / "french_targets.tsv").read_text(
        encoding="utf-8"
    )
    targets = parse_targets(text)
    assert len(targets) == 60
    counts = Counter(category for _, category in targets)
    assert counts == Counter({"noun": 20, "adjective": 20, "verb": 20})
