import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cell_features_full_context, features_full_context
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
from wsdlab.criteria import cell_name, family_name, feature_span, parse_cell


# --- grid enumeration ----------------------------------------------------------

def test_default_grid_has_576_criteria():
    cells = enumerate_grid(default_grid())
    assert len(cells) == 576
    assert len(set(cells)) == 576
    assert all(len(cell) == 1 and cell[0].shift == 0 and not cell[0].anchored
               for cell in cells)


def test_grid_restricted_sizes():
    assert len(enumerate_grid(CriterionGrid(sizes=(1,)))) == 72


def test_grid_single_family():
    cells = enumerate_grid(
        CriterionGrid(orders=(2,), tags=("lemma",), positionings=("leftright",),
                      filters=("all",))
    )
    assert [c.size for (c,) in cells] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_grid_enumeration_order():
    cells = enumerate_grid(default_grid())
    # sizes vary fastest, orders slowest
    assert cell_name(cells[0]) == "[1gr|mform|ordered|all]@1"
    assert cell_name(cells[1]) == "[1gr|mform|ordered|all]@2"
    assert cell_name(cells[-1]) == "[3gr|cgems|unordered|content]@8"


def test_grid_rejects_empty_set():
    with pytest.raises(ValueError, match="empty"):
        enumerate_grid(CriterionGrid(orders=()))
    with pytest.raises(ValueError) as err:
        CriterionGrid(orders=(), sizes=(0,))
    assert str(err.value).splitlines() == [
        "grid parameter set 'orders' is empty", "grid config sizes: context size must be >= 1",
    ]


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
    assert parse_grid_config("orders = 2-2\nsizes = 4-4").sizes == (4,)


@pytest.mark.parametrize("text, expected", [
    ("sizes = 1, 8-3", ["grid config sizes: reversed range '8-3'"]),
    # Listed with the grid's other problems.
    ("orders = 3-1\nsizes = 0", ["grid config orders: reversed range '3-1'",
                                 "grid config sizes: context size must be >= 1"]),
])
def test_a_reversed_range_is_a_listed_problem(text, expected):
    with pytest.raises(ValueError) as err:
        parse_grid_config(text)
    assert str(err.value).splitlines() == expected


@pytest.mark.parametrize("grid", [
    CriterionGrid(positionings=("position",)),
    parse_grid_config("positionings = position"),
    parse_grid_config("positionings = ordered"),
])
def test_the_grid_reads_position_as_ordered(grid):
    assert grid == CriterionGrid(positionings=("ordered",))


def test_position_and_ordered_in_one_grid_repeat_a_positioning():
    with pytest.raises(ValueError) as err:
        parse_grid_config("positionings = ordered, position")
    assert str(err.value).splitlines() == ["grid config positionings: repeated ordered"]


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


def _spans(occurrence, cell, *, content_mode="reindex"):
    """Each key of a cell's vector with its ``feature_span``, keys ascending."""
    cell = (cell,) if isinstance(cell, Criterion) else tuple(cell)
    vector = combine_features(cell, [
        extract_features(occurrence, c, content_mode=content_mode) for c in cell
    ])
    return {key: feature_span(occurrence, cell, key, content_mode=content_mode)
            for key in vector}


def test_extract_unigrams_ordered(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = _spans(occurrence, parse_criterion("[1gr|lemma|ordered|all]@2"))
    assert tuple(vector) == ("-1:de", "-2:pratique")
    assert {offsets for offsets, _ in vector.values()} == {(-2,), (-1,)}


def test_extract_bigram_leftright(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = extract_features(
        occurrence, parse_criterion("[2gr|lemma|leftright|all]@2")
    )
    assert vector == ("L:pratique_de",)


def test_extract_content_filter_reindexes(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = _spans(occurrence, parse_criterion("[1gr|lemma|ordered|content]@1"))
    # "des" (DET) is dropped; "pratique" (NCOM) becomes the new offset -1
    assert vector == {"-1:pratique": ((-1,), ("NCOM",))}


def test_extract_content_filter_keep_gaps(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    vector = extract_features(
        occurrence, parse_criterion("[1gr|lemma|ordered|content]@1"),
        content_mode="keep_gaps",
    )
    assert vector == ()  # offset -1 holds a dropped DET; no survivor at -1
    wider = extract_features(
        occurrence, parse_criterion("[1gr|lemma|ordered|content]@2"),
        content_mode="keep_gaps",
    )
    assert wider == ("-2:pratique",)  # original offsets preserved


def test_extract_document_edge_truncates(table_corpus):
    occurrence = _occurrence(table_corpus, "mettre", "verb")
    vector = extract_features(
        occurrence, parse_criterion("[1gr|lemma|ordered|all]@2")
    )
    assert vector == ("1:fin", "2:à")  # no left context at all


def test_extract_empty_vector_at_edge():
    corpus = parse_corpus("seul\tseul\tADJ\tADJ\ts1")
    occurrence = _occurrence(corpus, "seul", "adjective")
    vector = extract_features(
        occurrence, parse_criterion("[1gr|lemma|ordered|all]@3")
    )
    assert len(vector) == 0


def test_extract_shifted_window(table_corpus):
    occurrence = _occurrence(table_corpus, "mettre", "verb")
    vector = extract_features(
        occurrence, parse_criterion("[1gr|lemma|ordered|all]@1shift+2")
    )
    assert vector == ("1:fin", "2:à", "3:le")  # window [1, 3]


def test_extract_unordered_drops_position():
    corpus = parse_corpus(
        "même\tmême\tA\tA\t\ncible\tcible\tN\tN\ts\nmême\tmême\tA\tA\t"
    )
    occurrence = _occurrence(corpus, "cible")
    vector = extract_features(
        occurrence, parse_criterion("[1gr|lemma|unordered|all]@1")
    )
    # identical lemma left and right collapses to a single positionless key
    assert vector == ("même",)
    ordered = extract_features(
        occurrence, parse_criterion("[1gr|lemma|ordered|all]@1")
    )
    assert ordered == ("-1:même", "1:même")


def test_ngrams_never_span_target():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    for positioning in ("ordered", "leftright", "unordered"):
        vector = _spans(
            occurrence, Criterion(2, "lemma", positioning, "all", size=2)
        )
        for offsets, _ in vector.values():
            assert 0 not in offsets
            assert all(o < 0 for o in offsets) or all(o > 0 for o in offsets)
            assert offsets[1] == offsets[0] + 1


def test_features_lie_in_shifted_window():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    criterion = Criterion(1, "lemma", "ordered", "all", size=2, shift=-1)
    vector = _spans(occurrence, criterion)
    assert vector
    for offsets, _ in vector.values():
        for offset in offsets:
            assert -3 <= offset <= 1 and offset != 0


def test_window_monotone_in_size():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    previous = set()
    for size in range(1, 6):
        vector = extract_features(
            occurrence, Criterion(1, "lemma", "ordered", "all", size)
        )
        assert previous <= set(vector)
        previous = set(vector)


def test_anchored_spans_contain_target():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    vector = _spans(
        occurrence, parse_criterion("[2gr|lemma|leftright|all]@1anchored")
    )
    assert tuple(vector) == ("A-1:le_pratique", "A0:pratique_de")
    for offsets, _ in vector.values():
        assert 0 in offsets


def test_anchored_trigram_windows():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    vector = extract_features(
        occurrence, parse_criterion("[3gr|lemma|leftright|all]@2anchored")
    )
    assert set(vector) == {
        "A-2:à_le_pratique", "A-1:le_pratique_de", "A0:pratique_de_détention",
    }


def test_selected_filter_uses_target_category():
    text = (
        "un\tun\tDET\tDET\t\nmot\tmot\tNCMS\tNCOM\ts\nvite\tvite\tADV\tADV\t"
    )
    corpus = parse_corpus(text)
    noun_occ = _occurrence(corpus, "mot", "noun")
    selected = extract_features(
        noun_occ, parse_criterion("[1gr|lemma|ordered|selected]@1")
    )
    # nouns keep neither DET nor ADV: both neighbours are filtered out
    assert selected == ()
    adjective_like = parse_corpus(
        "un\tun\tDET\tDET\t\nmot\tmot\tADJ\tADJ\ts\nvite\tvite\tADV\tADV\t"
    )
    adj_occ = _occurrence(adjective_like, "mot", "adjective")
    selected_adj = extract_features(
        adj_occ, parse_criterion("[1gr|lemma|ordered|selected]@1")
    )
    # adjectives keep DET and ADV indicators
    assert selected_adj == ("-1:un", "1:vite")


def test_key_escaping_keeps_keys_injective():
    corpus = parse_corpus(
        "a_b\ta_b\tX\tX\t\ncible\tcible\tN\tN\ts\nc\tc\tX\tX\t"
    )
    occurrence = _occurrence(corpus, "cible")
    vector = extract_features(
        occurrence, parse_criterion("[1gr|lemma|ordered|all]@1")
    )
    assert vector == ("-1:a\\_b", "1:c")


def test_extraction_is_pure(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    criterion = parse_criterion("[2gr|lemma|leftright|all]@3")
    first = extract_features(occurrence, criterion)
    second = extract_features(occurrence, criterion)
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
            key for key, (offsets, _) in _spans(occ, unigram).items()
            if offsets == (-1,)
        }
        b_keys = {
            key for key, (offsets, _) in _spans(occ, bigram).items()
            if offsets == (-1, 0)
        }
        (u,) = u_keys
        (b,) = b_keys
        assert forward.setdefault(u, b) == b
        assert backward.setdefault(b, u) == u
    assert len(forward) == len(backward) == 3


# --- combination ---------------------------------------------------------------

# cgems values inside and outside the content set and every selected set.
_CGEMS = ("NCOM", "ADJ", "VINF", "DET", "PREP", "SUB", "PCTFORTE", "PONCT", "X")
# Every other tag draws values that key escaping must change: '_' is the
# n-gram separator and '\\' the escape character.
_context_token = st.builds(
    Token,
    mform=st.sampled_from(("a", "b_", "c\\")),
    lemma=st.sampled_from(("a", "b_", "c\\", "_\\")),
    ems=st.sampled_from(("E1", "E_2", "E\\3")),
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
    tags = draw(_context_token)
    target = Token(tags.mform, tags.lemma, tags.ems, tags.cgems, "s")
    return tuple(context[:index]) + (target,) + tuple(context[index:]), index


# Context alternating content and closed-class tokens; the shifted examples
# below put the whole window on one side of the target.
_SHIFTED = (
    tuple(Token(f"w{n}", f"w{n}", "E1", ("NCOM", "DET")[n % 2]) for n in range(6))
    + (Token("t", "t", "E1", "NCOM", "s"),)
    + tuple(Token(f"w{n}", f"w{n}", "E1", ("DET", "NCOM")[n % 2]) for n in range(7, 13)),
    6,
)

# Tag values holding both '_' and '\\' on each side of the target and in it,
# at the gap-free offsets -2..2.
_ESCAPED = (
    tuple(Token(f"m_{n}\\", f"l\\_{n}", "E_\\", "NCOM") for n in range(2))
    + (Token("t_\\", "t\\_", "E\\_", "NCOM", "s"),)
    + tuple(Token(f"m\\{n}_", f"_l{n}\\", "E_\\", "ADJ") for n in range(2, 4)),
    2,
)


@settings(max_examples=400, deadline=None)
@given(
    document=_context_around_target(),
    criterion=_window_criterion(),
    category=st.sampled_from(("noun", "adjective", "verb")),
    content_mode=st.sampled_from(("reindex", "keep_gaps")),
    others=st.lists(_window_criterion(), max_size=2),
)
@example(_SHIFTED, Criterion(2, "lemma", "leftright", "content", 3), "noun", "reindex", ())
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "content", 1, -2), "noun", "reindex", ())
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "content", 1, 2), "noun", "reindex", ())
@example(_SHIFTED, Criterion(2, "lemma", "ordered", "content", 2, -3, True), "noun", "reindex", ())
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "content", 1, -2), "noun", "keep_gaps", ())
@example(_SHIFTED, Criterion(1, "lemma", "ordered", "all", 2, 5), "noun", "reindex", ())
@example(_ESCAPED, Criterion(2, "lemma", "ordered", "all", 2), "noun", "reindex", ())
@example(_ESCAPED, Criterion(2, "lemma", "ordered", "all", 2, 0, True), "noun", "reindex", ())
@example(_ESCAPED, Criterion(2, "mform", "leftright", "all", 2), "noun", "reindex", ())
@example(_ESCAPED, Criterion(2, "mform", "leftright", "all", 2, 0, True), "noun", "reindex", ())
@example(_ESCAPED, Criterion(2, "ems", "unordered", "all", 2), "noun", "reindex", ())
@example(_ESCAPED, Criterion(2, "ems", "unordered", "all", 2, 0, True), "noun", "reindex", ())
def test_extraction_equals_full_context_reference(
    document, criterion, category, content_mode, others
):
    """Every key of the vector, and with ``others`` of a ``+`` cell, and
    every key's ``feature_span`` equal the whole-context reference's."""
    tokens, index = document
    corpus = Corpus((Document("d", tokens),))
    occurrence = Occurrence("d", index, "t", category, "s", tokens)
    reference = features_full_context(corpus, occurrence, criterion, content_mode=content_mode)
    assert extract_features(
        occurrence, criterion, content_mode=content_mode
    ) == tuple(reference)
    cell = tuple(dict.fromkeys((criterion, *others)))
    if len(cell) > 1:
        reference = cell_features_full_context(
            corpus, occurrence, cell, content_mode=content_mode
        )
    assert _spans(occurrence, cell, content_mode=content_mode) == reference
    assert list(reference) == sorted(reference)


def test_combine_single_vector_is_identity(table_corpus):
    occurrence = _occurrence(table_corpus, "détention")
    criterion = parse_criterion("[1gr|lemma|ordered|all]@2")
    vector = extract_features(occurrence, criterion)
    assert combine_features((criterion,), [vector]) == vector


def test_combine_disjoint_vectors():
    c1 = parse_criterion("[1gr|lemma|ordered|all]@1")
    c2 = parse_criterion("[1gr|mform|ordered|all]@1")
    combined = combine_features((c1, c2), [("a", "b"), ("x", "y", "z")])
    assert combined == (
        "[1gr|lemma|ordered|all]@1::a", "[1gr|lemma|ordered|all]@1::b",
        "[1gr|mform|ordered|all]@1::x", "[1gr|mform|ordered|all]@1::y",
        "[1gr|mform|ordered|all]@1::z",
    )


def test_anchored_combination_features_all_contain_target():
    occurrence = _occurrence(MID_TARGET_CORPUS, "pratique")
    criteria = [
        Criterion(order, "lemma", "leftright", "all", size=order - 1, anchored=True)
        for order in (2, 3, 4, 5)
    ]
    combined = _spans(occurrence, criteria)
    assert len(combined) > 0
    for offsets, _ in combined.values():
        assert 0 in offsets
