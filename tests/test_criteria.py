import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import features_full_context
from wsdlab import (
    Corpus,
    Criterion,
    CriterionGrid,
    CriterionParseError,
    Document,
    Occurrence,
    Token,
    combine_features,
    default_grid,
    enumerate_grid,
    extract_features,
    extract_occurrences,
    format_criterion,
    parse_corpus,
    parse_criterion,
    parse_grid_config,
)
from wsdlab.criteria import cell_name, family_name, parse_cell


# --- grid enumeration ----------------------------------------------------------

def test_default_grid_has_576_criteria():
    criteria = enumerate_grid(default_grid())
    assert len(criteria) == 576
    assert len(set(criteria)) == 576
    assert all(c.shift == 0 and not c.anchored for c in criteria)


def test_grid_restricted_sizes():
    assert len(enumerate_grid(CriterionGrid(sizes=(1,)))) == 72


def test_grid_single_family():
    criteria = enumerate_grid(
        CriterionGrid(orders=(2,), tags=("lemma",), positionings=("leftright",),
                      filters=("all",))
    )
    assert [c.size for c in criteria] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_grid_enumeration_order():
    criteria = enumerate_grid(default_grid())
    # sizes vary fastest, orders slowest
    assert format_criterion(criteria[0]) == "[1gr|mform|ordered|all]@1"
    assert format_criterion(criteria[1]) == "[1gr|mform|ordered|all]@2"
    assert format_criterion(criteria[-1]) == "[3gr|cgems|unordered|content]@8"


def test_grid_rejects_empty_set():
    with pytest.raises(ValueError, match="empty"):
        enumerate_grid(CriterionGrid(orders=()))


@given(
    orders=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True),
)
def test_grid_cardinality_is_product(orders, sizes):
    grid = CriterionGrid(orders=tuple(orders), sizes=tuple(sizes))
    assert len(enumerate_grid(grid)) == len(grid)


def test_parse_grid_config():
    grid = parse_grid_config(
        "orders = 1,2\ntags = lemma\npositionings = ordered, leftright\n"
        "filters = all, content\nsizes = 1-3, 5\n"
    )
    assert grid.orders == (1, 2)
    assert grid.sizes == (1, 2, 3, 5)
    assert len(enumerate_grid(grid)) == 2 * 1 * 2 * 2 * 4
    with pytest.raises(ValueError):
        parse_grid_config("tags = bogus")


# --- criterion grammar -----------------------------------------------------------

def test_parse_criterion_basic():
    criterion = parse_criterion("[2gr|lemma|leftright|all]@4")
    assert criterion == Criterion(2, "lemma", "leftright", "all", 4)
    assert criterion.shift == 0 and not criterion.anchored


def test_parse_criterion_shift():
    assert parse_criterion("[1gr|mform|ordered|all]@2shift+1").shift == 1
    assert parse_criterion("[1gr|mform|ordered|all]@2shift-3").shift == -3


def test_parse_criterion_anchored_and_alias():
    anchored = parse_criterion("[3gr|lemma|leftright|all]@2anchored")
    assert anchored.anchored and anchored.order == 3
    assert parse_criterion("[1gr|lemma|position|all]@1").positioning == "ordered"


@pytest.mark.parametrize(
    "bad",
    ["[9zz|lemma|x|all]@1", "[1gr|word|ordered|all]@1", "[1gr|lemma|ordered]@1",
     "[1gr|lemma|ordered|all]", "[1gr|lemma|ordered|all]@x",
     "[1gr|lemma|ordered|all]@0", "[1gr|lemma|ordered|all]@1anchored"],
)
def test_parse_criterion_rejects(bad):
    with pytest.raises(CriterionParseError):
        parse_criterion(bad)


_criterion = st.builds(
    Criterion,
    order=st.integers(1, 5),
    tag=st.sampled_from(("mform", "lemma", "ems", "cgems")),
    positioning=st.sampled_from(("ordered", "leftright", "unordered")),
    filter=st.sampled_from(("all", "content", "selected")),
    size=st.integers(1, 9),
    shift=st.integers(-3, 3),
    anchored=st.just(False),
) | st.builds(
    Criterion,
    order=st.integers(2, 5),
    tag=st.sampled_from(("mform", "lemma", "ems", "cgems")),
    positioning=st.sampled_from(("ordered", "leftright", "unordered")),
    filter=st.sampled_from(("all", "content", "selected")),
    size=st.integers(1, 9),
    shift=st.integers(-3, 3),
    anchored=st.just(True),
)


@given(_criterion)
def test_parse_format_round_trip(criterion):
    assert parse_criterion(format_criterion(criterion)) == criterion


def test_criterion_validation():
    with pytest.raises(ValueError):
        Criterion(0, "lemma", "ordered", "all", 1)
    with pytest.raises(ValueError):
        Criterion(1, "lemma", "ordered", "all", 1, anchored=True)


def test_criterion_reports_every_bad_field():
    with pytest.raises(ValueError) as raised:
        Criterion(0, "word", "bogus", "none", 0)
    lines = str(raised.value).splitlines()
    assert len(lines) == 5
    for name in ("n-gram order", "'word'", "'bogus'", "'none'", "context size"):
        assert sum(name in line for line in lines) == 1
    with pytest.raises(CriterionParseError) as raised:
        parse_criterion("[1gr|word|bogus|none]@1")
    lines = str(raised.value).splitlines()
    assert len(lines) == 3
    assert all(line.startswith("'[1gr|word|bogus|none]@1': unknown ") for line in lines)


@given(st.lists(_criterion, min_size=1, max_size=4, unique=True))
@example([Criterion(1, "mform", "ordered", "all", 2, 1), Criterion(2, "lemma", "ordered", "all", 1)])
def test_cell_name_round_trip(cell):
    assert parse_cell(cell_name(cell)) == tuple(cell)


def test_parse_cell_rejects_a_repeated_criterion():
    with pytest.raises(CriterionParseError, match=r"repeats \[1gr\|lemma\|ordered\|all\]@1$"):
        parse_cell("[1gr|lemma|ordered|all]@1+[2gr|lemma|leftright|all]@2"
                   "+[1gr|lemma|position|all]@1")


def test_family_name_is_the_name_without_size():
    criterion = parse_criterion("[2gr|ems|leftright|content]@3shift-1anchored")
    assert family_name(criterion) == "[2gr|ems|leftright|content]shift-1anchored"
    assert family_name(parse_criterion("[1gr|lemma|ordered|all]@8")) == (
        "[1gr|lemma|ordered|all]"
    )


# --- extraction: worked examples ---------------------------------------------------

# Same document as the shared fixture, but with "pratique" sense-tagged so a
# mid-document target with context on both sides is available.
MID_TARGET_CORPUS = parse_corpus(
    "#doc t1\n"
    "mettre\tmettre\tVINF\tVINF\t\n"
    "fin\tfin\tNCFS\tNCOM\t\n"
    "à\tà\tPREP\tPREP\t\n"
    "la\tle\tDETDFS\tDET\t\n"
    "pratique\tpratique\tNCFS\tNCOM\tp1\n"
    "des\tde\tDETDPIG\tDET\t\n"
    "détentions\tdétention\tNCFP\tNCOM\t\n"
)


def _occurrence(corpus, lemma, category="noun"):
    (occurrence,) = extract_occurrences(corpus, lemma, category)
    return occurrence


def test_extract_unigrams_ordered(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = extract_features(
        table_corpus, occurrence, parse_criterion("[1gr|lemma|ordered|all]@2")
    )
    assert vector.keys() == {"-2:pratique", "-1:de"}
    assert {offsets for offsets, _ in vector.values()} == {(-2,), (-1,)}


def test_extract_bigram_leftright(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = extract_features(
        table_corpus, occurrence, parse_criterion("[2gr|lemma|leftright|all]@2")
    )
    assert vector.keys() == {"L:pratique_de"}


def test_extract_content_filter_reindexes(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = extract_features(
        table_corpus, occurrence, parse_criterion("[1gr|lemma|ordered|content]@1")
    )
    # "des" (DET) is dropped; "pratique" (NCOM) becomes the new offset -1
    assert vector.keys() == {"-1:pratique"}
    assert list(vector.values()) == [((-1,), ("NCOM",))]


def test_extract_content_filter_keep_gaps(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = extract_features(
        table_corpus, occurrence, parse_criterion("[1gr|lemma|ordered|content]@1"),
        content_mode="keep_gaps",
    )
    assert vector.keys() == set()  # offset -1 holds a dropped DET; no survivor at -1
    wider = extract_features(
        table_corpus, occurrence, parse_criterion("[1gr|lemma|ordered|content]@2"),
        content_mode="keep_gaps",
    )
    assert wider.keys() == {"-2:pratique"}  # original offsets preserved


def test_extract_document_edge_truncates(table_corpus):
    occurrence = _occurrence(table_corpus, "mettre", "verb")
    vector = extract_features(
        table_corpus, occurrence, parse_criterion("[1gr|lemma|ordered|all]@2")
    )
    assert vector.keys() == {"1:fin", "2:à"}  # no left context at all


def test_extract_empty_vector_at_edge():
    corpus = parse_corpus("seul\tseul\tADJ\tADJ\ts1")
    occurrence = _occurrence(corpus, "seul", "adjective")
    vector = extract_features(
        corpus, occurrence, parse_criterion("[1gr|lemma|ordered|all]@3")
    )
    assert len(vector) == 0


def test_extract_shifted_window(table_corpus):
    occurrence = _occurrence(table_corpus, "mettre", "verb")
    vector = extract_features(
        table_corpus, occurrence, parse_criterion("[1gr|lemma|ordered|all]@1shift+2")
    )
    assert vector.keys() == {"1:fin", "2:à", "3:le"}  # window [1, 3]


def test_extract_unordered_drops_position():
    corpus = parse_corpus(
        "même\tmême\tA\tA\t\ncible\tcible\tN\tN\ts\nmême\tmême\tA\tA\t"
    )
    occurrence = _occurrence(corpus, "cible")
    vector = extract_features(
        corpus, occurrence, parse_criterion("[1gr|lemma|unordered|all]@1")
    )
    # identical lemma left and right collapses to a single positionless key
    assert vector.keys() == {"même"}
    ordered = extract_features(
        corpus, occurrence, parse_criterion("[1gr|lemma|ordered|all]@1")
    )
    assert ordered.keys() == {"-1:même", "1:même"}


def test_ngrams_never_span_target():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    for positioning in ("ordered", "leftright", "unordered"):
        vector = extract_features(
            MID_TARGET_CORPUS, occurrence,
            Criterion(2, "lemma", positioning, "all", size=2),
        )
        for offsets, _ in vector.values():
            assert 0 not in offsets
            assert all(o < 0 for o in offsets) or all(o > 0 for o in offsets)
            assert offsets[1] == offsets[0] + 1


def test_features_lie_in_shifted_window():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    criterion = Criterion(1, "lemma", "ordered", "all", size=2, shift=-1)
    vector = extract_features(MID_TARGET_CORPUS, occurrence, criterion)
    for offsets, _ in vector.values():
        for offset in offsets:
            assert -3 <= offset <= 1 and offset != 0


def test_window_monotone_in_size():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    previous = set()
    for size in range(1, 6):
        vector = extract_features(
            MID_TARGET_CORPUS, occurrence, Criterion(1, "lemma", "ordered", "all", size)
        )
        assert previous <= vector.keys()
        previous = vector.keys()


def test_anchored_spans_contain_target():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    vector = extract_features(
        MID_TARGET_CORPUS, occurrence, parse_criterion("[2gr|lemma|leftright|all]@1anchored")
    )
    assert vector.keys() == {"A-1:le_pratique", "A0:pratique_de"}
    for offsets, _ in vector.values():
        assert 0 in offsets


def test_anchored_trigram_windows():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    vector = extract_features(
        MID_TARGET_CORPUS, occurrence, parse_criterion("[3gr|lemma|leftright|all]@2anchored")
    )
    assert vector.keys() == {
        "A-2:à_le_pratique", "A-1:le_pratique_de", "A0:pratique_de_détention",
    }


def test_selected_filter_uses_target_category():
    text = (
        "un\tun\tDET\tDET\t\nmot\tmot\tNCMS\tNCOM\ts\nvite\tvite\tADV\tADV\t"
    )
    corpus = parse_corpus(text)
    noun_occ = _occurrence(corpus, "mot", "noun")
    selected = extract_features(
        corpus, noun_occ, parse_criterion("[1gr|lemma|ordered|selected]@1")
    )
    # nouns keep neither DET nor ADV: both neighbours are filtered out
    assert selected.keys() == set()
    adjective_like = parse_corpus(
        "un\tun\tDET\tDET\t\nmot\tmot\tADJ\tADJ\ts\nvite\tvite\tADV\tADV\t"
    )
    adj_occ = _occurrence(adjective_like, "mot", "adjective")
    selected_adj = extract_features(
        adjective_like, adj_occ, parse_criterion("[1gr|lemma|ordered|selected]@1")
    )
    # adjectives keep DET and ADV indicators
    assert selected_adj.keys() == {"-1:un", "1:vite"}


def test_key_escaping_keeps_keys_injective():
    corpus = parse_corpus(
        "a_b\ta_b\tX\tX\t\ncible\tcible\tN\tN\ts\nc\tc\tX\tX\t"
    )
    occurrence = _occurrence(corpus, "cible")
    vector = extract_features(
        corpus, occurrence, parse_criterion("[1gr|lemma|ordered|all]@1")
    )
    assert vector.keys() == {"-1:a\\_b", "1:c"}


def test_extraction_is_pure(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    criterion = parse_criterion("[2gr|lemma|leftright|all]@3")
    first = extract_features(table_corpus, occurrence, criterion)
    second = extract_features(table_corpus, occurrence, criterion)
    assert first == second


def test_adjacent_unigram_equivalent_to_anchored_bigram():
    # For a fixed target lemma, the left-adjacent unigram value and the
    # anchored left bigram key carry identical information: the mapping
    # between them over occurrences is a bijection.
    lines = []
    for i, left in enumerate(["chat", "chien", "chat", "lune", "chien"]):
        lines.append(f"#doc d{i}")
        lines.append(f"{left}\t{left}\tN\tN\t")
        lines.append(f"cible\tcible\tN\tN\ts{i % 2}")
    corpus = parse_corpus("\n".join(lines))
    occurrences = extract_occurrences(corpus, "cible", "noun")
    unigram = parse_criterion("[1gr|lemma|ordered|all]@1")
    bigram = parse_criterion("[2gr|lemma|leftright|all]@1anchored")
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    for occ in occurrences:
        u_keys = {
            key for key, (offsets, _) in extract_features(corpus, occ, unigram).items()
            if offsets == (-1,)
        }
        b_keys = {
            key for key, (offsets, _) in extract_features(corpus, occ, bigram).items()
            if offsets == (-1, 0)
        }
        (u,) = u_keys
        (b,) = b_keys
        assert forward.setdefault(u, b) == b
        assert backward.setdefault(b, u) == u
    assert len(forward) == len(backward) == 3


# --- combination ---------------------------------------------------------------

def _vector(*keys):
    return {key: ((1,), ("N",)) for key in keys}


# cgems values inside and outside the content set and every selected set.
_CGEMS = ("NCOM", "ADJ", "VINF", "DET", "PREP", "SUB", "PCTFORTE", "PONCT", "X")
_context_token = st.builds(
    Token,
    mform=st.sampled_from(("a", "b_", "c\\")),
    lemma=st.sampled_from(("a", "b", "c")),
    ems=st.sampled_from(("E1", "E2")),
    cgems=st.sampled_from(_CGEMS),
)


@st.composite
def _window_criterion(draw):
    anchored = draw(st.booleans())
    return Criterion(
        order=draw(st.integers(2 if anchored else 1, 3)),
        tag=draw(st.sampled_from(("mform", "lemma", "ems", "cgems"))),
        positioning=draw(st.sampled_from(("ordered", "leftright", "unordered"))),
        filter=draw(st.sampled_from(("all", "content", "selected"))),
        size=draw(st.integers(1, 8)),
        shift=draw(st.integers(-10, 10)),
        anchored=anchored,
    )


@st.composite
def _context_around_target(draw):
    """A document of 0..40 context tokens with the target at any position."""
    length = draw(st.integers(0, 40))
    context = draw(st.lists(_context_token, min_size=length, max_size=length))
    index = draw(st.integers(0, len(context)))
    target = Token("t", "t", "E1", draw(st.sampled_from(_CGEMS)), "s")
    return tuple(context[:index]) + (target,) + tuple(context[index:]), index


# Context alternating content and closed-class tokens; the shifted examples
# below put the whole window on one side of the target.
_SHIFTED = (
    tuple(Token(f"w{n}", f"w{n}", "E1", ("NCOM", "DET")[n % 2]) for n in range(6))
    + (Token("t", "t", "E1", "NCOM", "s"),)
    + tuple(Token(f"w{n}", f"w{n}", "E1", ("DET", "NCOM")[n % 2]) for n in range(7, 13)),
    6,
)


@settings(max_examples=400, deadline=None)
@given(
    document=_context_around_target(),
    criterion=_window_criterion(),
    category=st.sampled_from(("noun", "adjective", "verb")),
    content_mode=st.sampled_from(("reindex", "keep_gaps")),
)
@example(_SHIFTED, Criterion(2, "lemma", "leftright", "content", 3), "noun", "reindex")
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "content", 1, -2), "noun", "reindex")
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "content", 1, 2), "noun", "reindex")
@example(_SHIFTED, Criterion(2, "lemma", "ordered", "content", 2, -3, True), "noun", "reindex")
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "content", 1, -2), "noun", "keep_gaps")
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "all", 2, 5), "noun", "reindex")
def test_extraction_equals_full_context_reference(document, criterion, category, content_mode):
    tokens, index = document
    corpus = Corpus((Document("d", tokens),))
    occurrence = Occurrence("d", index, "t", category, "s")
    assert extract_features(
        corpus, occurrence, criterion, content_mode=content_mode
    ) == features_full_context(corpus, occurrence, criterion, content_mode=content_mode)


def test_combine_single_vector_is_identity(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    criterion = parse_criterion("[1gr|lemma|ordered|all]@2")
    vector = extract_features(table_corpus, occurrence, criterion)
    assert combine_features((criterion,), [vector]) == vector


def test_combine_disjoint_vectors():
    c1 = parse_criterion("[1gr|lemma|ordered|all]@1")
    c2 = parse_criterion("[1gr|mform|ordered|all]@1")
    v1 = _vector("a", "b")
    v2 = _vector("x", "y", "z")
    combined = combine_features((c1, c2), [v1, v2])
    assert len(combined) == 5
    assert combined.keys() == {
        "[1gr|lemma|ordered|all]@1::a", "[1gr|lemma|ordered|all]@1::b",
        "[1gr|mform|ordered|all]@1::x", "[1gr|mform|ordered|all]@1::y",
        "[1gr|mform|ordered|all]@1::z",
    }


def test_anchored_combination_features_all_contain_target():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    criteria = [
        Criterion(order, "lemma", "leftright", "all", size=order - 1, anchored=True)
        for order in (2, 3, 4, 5)
    ]
    vectors = [extract_features(MID_TARGET_CORPUS, occurrence, c) for c in criteria]
    combined = combine_features(criteria, vectors)
    assert len(combined) > 0
    for offsets, _ in combined.values():
        assert 0 in offsets
