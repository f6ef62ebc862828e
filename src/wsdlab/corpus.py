"""Tagged-corpus handling: parsing, occurrence lookup, pseudo-word generation.

The corpus file format is vertical UTF-8 text, one token per line with five
tab-separated columns ``mform<TAB>lemma<TAB>ems<TAB>cgems<TAB>sense`` where the
sense column may be empty.  A line starting with ``#doc `` opens a new document
whose id is the remainder of the line; blank lines are ignored.  Context
windows never cross document boundaries, so documents are the unit of context:
an occurrence carries its document's token tuple.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from types import NoneType
from typing import Any, Callable, Iterator, get_args, get_origin, get_type_hints

CATEGORIES = ("noun", "adjective", "verb")

# Document id assigned to tokens that appear before any "#doc " header.
IMPLICIT_DOC_ID = "doc0"

# The tag columns of a token, in file order (a criterion's tags); none may be empty.
TOKEN_FIELDS = ("mform", "lemma", "ems", "cgems")

# About how many characters of its text parse_corpus splits into lines at
# a time, so that no list of every line is built.
_CHUNK_CHARS = 1 << 20

# How many distinct token lines parse_corpus remembers the fields of. A
# repeated line among them is split once; a corpus of mostly distinct lines
# holds no more than this many extra entries (about 3 MB) while it parses.
_MEMO_LINES = 1 << 14


class CorpusParseError(ValueError):
    """Raised on malformed corpus input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True, slots=True)
class Token:
    """One corpus word with its four tags and an optional sense label.

    parse_corpus makes its tokens without __init__ and checks the same
    conditions as __post_init__ itself; a change to one must go to both.
    """

    mform: str
    lemma: str
    ems: str
    cgems: str
    sense: str | None = None

    def __post_init__(self) -> None:
        if not (self.mform and self.lemma and self.ems and self.cgems and self.sense != ""):
            for name in TOKEN_FIELDS:
                if not getattr(self, name):
                    raise ValueError(f"token field {name!r} must be non-empty")
            raise ValueError("sense must be None when absent, not empty")


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    # lemma -> (document, token index, sense) of its sense-tagged tokens, in
    # corpus order.
    _tagged: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        ids: set[str] = set()
        tagged: dict[str, list[tuple[Document, int, str]]] = {}
        for doc in self.documents:
            if doc.id in ids:
                raise ValueError(f"duplicate document id {doc.id!r}")
            ids.add(doc.id)
            for index, tok in enumerate(doc.tokens):
                if tok.sense is not None:
                    tagged.setdefault(tok.lemma, []).append((doc, index, tok.sense))
        object.__setattr__(self, "_tagged", tagged)


@dataclass(frozen=True)
class Occurrence:
    """A single sense-tagged instance of a target word.  ``tokens`` is its
    document's token tuple itself, the context every criterion reads; it is
    left out of equality, hashing and repr."""

    document_id: str
    token_index: int
    lemma: str
    category: str
    sense: str
    tokens: tuple[Token, ...] = field(compare=False, repr=False)


def _split_lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split about _CHUNK_CHARS characters at a time.

    Each chunk ends just after a ``"\n"``, which no line boundary straddles
    (``"\r\n"`` ends with it), so the chunks' lines are the text's lines.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_corpus(text: str) -> Corpus:
    """Parse vertical corpus text into a Corpus.

    Raises CorpusParseError on a wrong column count, an empty tag field or a
    repeated document id.  Equal field values share one string object, and a
    repeated line is split and checked once.
    """
    documents: list[Document] = []
    seen_ids: set[str] = set()
    current_id: str | None = None
    current_tokens: list[Token] = []
    # Token line -> its checked fields, the sense None when empty, for the
    # first _MEMO_LINES distinct lines; field value -> its one string object.
    checked: dict[str, tuple[str | None, ...]] = {}
    strings: dict[str, str] = {}
    # The fields are checked here, so each Token is filled through its slots
    # without running the dataclass __init__ and its check again.
    new_token = object.__new__
    set_mform, set_lemma, set_ems, set_cgems, set_sense = (
        getattr(Token, name).__set__ for name in (*TOKEN_FIELDS, "sense")
    )

    def flush() -> None:
        if current_id is not None:
            documents.append(Document(current_id, tuple(current_tokens)))

    for number, line in enumerate(_split_lines(text), start=1):
        fields = checked.get(line)
        if fields is None:
            if not line.strip():
                continue
            if line.startswith("#doc "):
                flush()
                current_id = line[len("#doc "):]
                if current_id in seen_ids:
                    raise CorpusParseError(number, f"duplicate document id {current_id!r}")
                seen_ids.add(current_id)
                current_tokens = []
                continue
            values = line.split("\t")
            if len(values) != 5:
                raise CorpusParseError(
                    number, f"expected 5 tab-separated columns, got {len(values)}"
                )
            if not (values[0] and values[1] and values[2] and values[3]):
                position = values.index("")
                raise CorpusParseError(
                    number, f"empty {TOKEN_FIELDS[position]} field (column {position + 1})"
                )
            mform, lemma, ems, cgems, sense = map(strings.setdefault, values, values)
            fields = mform, lemma, ems, cgems, sense or None
            if len(checked) < _MEMO_LINES:
                checked[line] = fields
        mform, lemma, ems, cgems, sense = fields
        token = new_token(Token)
        set_mform(token, mform)
        set_lemma(token, lemma)
        set_ems(token, ems)
        set_cgems(token, cgems)
        set_sense(token, sense)
        if current_id is None:
            current_id = IMPLICIT_DOC_ID
            seen_ids.add(current_id)
            current_tokens = []
        current_tokens.append(token)
    flush()
    return Corpus(tuple(documents))


def serialize_corpus(corpus: Corpus) -> str:
    """Render a Corpus back to the vertical format (inverse of parse_corpus)."""
    return "".join(
        f"#doc {doc.id}\n" + "".join(
            f"{tok.mform}\t{tok.lemma}\t{tok.ems}\t{tok.cgems}\t{tok.sense or ''}\n"
            for tok in doc.tokens
        )
        for doc in corpus.documents
    )


def extract_occurrences(corpus: Corpus, lemma: str, category: str) -> tuple[Occurrence, ...]:
    """All sense-tagged tokens of ``lemma``, in corpus order.

    Tokens with a matching lemma but no sense label are excluded: they cannot
    serve as training or test instances.
    """
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    return tuple(
        Occurrence(doc.id, index, lemma, category, sense, doc.tokens)
        for doc, index, sense in corpus._tagged.get(lemma, ())
    )


def parse_targets(text: str) -> list[tuple[str, str]]:
    """Parse a targets file: one ``lemma<TAB>category`` per line.

    Blank lines and lines starting with ``#`` are ignored.  Every bad line
    is named, one per line of the ``ValueError``.
    """
    targets: list[tuple[str, str]] = []
    seen = set()
    problems = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        target = tuple(line.split("\t"))
        if len(target) != 2:
            problem = f"expected 'lemma<TAB>category', got {line!r}"
        elif not target[0]:
            problem = "empty lemma"
        elif target[1] not in CATEGORIES:
            problem = f"unknown category {target[1]!r}; expected one of {CATEGORIES}"
        elif target in seen:
            problem = f"duplicate target {target[0]!r}"
        else:
            seen.add(target)
            targets.append(target)
            continue
        problems.append(f"targets line {number}: {problem}")
    if problems:
        raise ValueError("\n".join(problems))
    return targets


# --- pseudo-word corpus generation -----------------------------------------

SIGNAL_MODES = ("unigram", "pair")


class ConfigError(ValueError):
    """A config type's problems, one per line of the message, each given as
    ``(fields, problem)``: the space-separated fields it reads, and its text."""

    def __init__(self, problems: list[tuple[str, str]]) -> None:
        super().__init__("\n".join(problem for _, problem in problems))
        self.problems = problems


@dataclass(frozen=True)
class PseudowordConfig:
    """Recipe for a synthetic ambiguous-word corpus.

    Two or more source lemmas are merged into one pseudo-target; each source
    acts as a "sense".  Discriminative context tokens are planted at
    ``signal_offsets`` around every occurrence, then destroyed with
    probability ``noise``.  In ``pair`` mode the two planted tokens are only
    informative jointly: each token value occurs equally often with both
    senses, but the pair determines the sense.
    """

    sources: tuple[str, ...]
    counts: tuple[int, ...]
    signal_offsets: tuple[int, ...] = (-1,)
    signal_mode: str = "unigram"
    signal_values: tuple[str, ...] | None = None
    noise: float = 0.0
    vocabulary: int = 50
    width: int = 8
    category: str = "noun"
    target: str | None = None
    target_pos: str = "NCOM"
    signal_pos: str = "NCOM"
    filler_pos: tuple[str, ...] = ("NCOM", "DET", "PREP", "ADJ", "ADV", "VCON")
    seed: int = 0

    def __post_init__(self) -> None:
        pair = self.signal_mode == "pair"
        offsets = sorted(self.signal_offsets)
        problems = [(fields, problem) for fields, bad, problem in (
            ("sources", len(self.sources) < 2, "a pseudo-word needs at least 2 source lemmas"),
            ("counts sources", len(self.counts) != len(self.sources),
             "counts must match sources one-to-one"),
            ("counts", any(c < 1 for c in self.counts), "per-sense counts must be positive"),
            ("signal_mode", self.signal_mode not in SIGNAL_MODES,
             f"signal_mode must be one of {SIGNAL_MODES}"),
            ("signal_offsets", not offsets, "at least one signal offset is required"),
            ("signal_offsets", 0 in offsets, "signal offsets must be non-zero"),
            ("signal_offsets width", any(abs(o) > self.width for o in offsets),
             "signal offsets must lie within the context width"),
            ("signal_mode sources", pair and len(self.sources) != 2,
             "pair mode supports exactly 2 sources"),
            ("signal_mode signal_offsets",
             pair and (len(offsets) != 2 or offsets[1] != offsets[0] + 1),
             "pair mode needs exactly 2 consecutive offsets"),
            ("signal_mode signal_values", pair and self.signal_values is not None,
             "signal_values apply to unigram mode only"),
            ("signal_values sources",
             self.signal_values is not None and len(self.signal_values) != len(self.sources),
             "signal_values must match sources one-to-one"),
            ("noise", not 0.0 <= self.noise <= 1.0, "noise must be in [0, 1]"),
            ("vocabulary", self.vocabulary < 1, "vocabulary size must be >= 1"),
            ("width", self.width < 1, "context width must be >= 1"),
            ("category", self.category not in CATEGORIES, f"category must be one of {CATEGORIES}"),
            ("filler_pos", not self.filler_pos, "filler_pos must be non-empty"),
        ) if bad]
        # Each value is written as a column of a corpus or targets line.
        values = {"sources": self.sources, "signal_values": self.signal_values or (),
                  "target": (self.target,) if self.target else (),
                  "target_pos": (self.target_pos,), "signal_pos": (self.signal_pos,),
                  "filler_pos": self.filler_pos}
        problems.extend((name, f"{name} value {value!r} must be non-empty, with no tab or "
                         "line break") for name, given in values.items() for value in given
                        if "\t" in value or value.splitlines() != [value])
        # The target lemma starts its targets line, and it and each signal value
        # start corpus token lines.
        if self.target_lemma.startswith("#"):
            problems.append(("sources target", f"target lemma {self.target_lemma!r} must not "
                             "start with '#', which opens a comment in the targets file"))
        problems.extend((fields, f"{name} {value!r} must not start with '#doc ', "
                         "which opens a document in the corpus file")
                        for fields, name, value in (
                            ("sources target", "target lemma", self.target_lemma),
                            *(("signal_values", "signal_values value", value)
                              for value in self.signal_values or ()))
                        if value.startswith("#doc "))
        if problems:
            raise ConfigError(problems)

    @property
    def target_lemma(self) -> str:
        return self.target if self.target else "".join(self.sources)


def _parse_csv_list(value: str) -> tuple[str, ...]:
    """The comma-separated items of a value, stripped: none for an empty
    value, and an empty item among others is an error."""
    items = tuple(item.strip() for item in value.split(",")) if value.strip() else ()
    if "" in items:
        raise ValueError(f"empty item in {value!r}")
    return items


def _parse_int_list(value: str) -> tuple[int, ...]:
    """A comma-separated list of integers and ascending ``low-high`` ranges."""
    items: list[int] = []
    for part in _parse_csv_list(value):
        span = re.fullmatch(r"(\d+)-(\d+)", part)
        low, high = map(int, span.groups()) if span else (int(part),) * 2
        if low > high:
            raise ValueError(f"reversed range {part!r}")
        items.extend(range(low, high + 1))
    return tuple(items)


def _unwrap(hint: Any) -> Any:
    """A field's annotation ``X | None`` as ``X``; any other as it is."""
    return get_args(hint)[0] if NoneType in get_args(hint) else hint


def convert(hint: Any, text: str) -> Any:
    """The value of a field annotated ``hint`` (``int``, ``float``, ``str``,
    ``Path`` or a tuple of ints or strs, each possibly ``| None``) read from
    its ``text``; a tuple's text is a comma-separated list (``_parse_csv_list``,
    or ``_parse_int_list`` for ints).  ``ValueError`` if it does not convert."""
    hint = _unwrap(hint)
    if get_origin(hint) is tuple:
        return _parse_int_list(text) if get_args(hint)[0] is int else _parse_csv_list(text)
    return hint(text)


def _read_config(text: str, label: str, owner: type, build: Callable[..., Any] | None = None,
                 required: tuple[str, ...] = ()) -> Any:
    """``build(**values)``, or ``owner(**values)``, from the flat ``key =
    value`` format, which skips blank and ``#`` lines: each key is a field of
    ``owner``, its value converted by the field's annotation (``convert``).
    Malformed lines, repeated and unknown keys, missing ``required`` keys,
    values that do not convert (nothing is built while a ``required`` one is
    missing or does not convert) and the build's ``ConfigError`` problems are
    raised together in one ``ValueError``, one per line, named by ``label``;
    no problem that reads the default behind a bad value is listed."""
    hints = get_type_hints(owner)
    raw: dict[str, str] = {}
    problems: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            problems.append(f"{label} line {number}: expected 'key = value', got {line!r}")
            continue
        key = key.strip()
        if key in raw:
            problems.append(f"{label} line {number}: repeated key {key!r}")
        raw[key] = value.strip()

    unknown = sorted(set(raw) - set(hints))
    if unknown:
        problems.append(f"unknown {label} keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in raw]
    problems.extend(f"{label} is missing the required {key!r} key" for key in missing)
    values: dict[str, Any] = {}
    for key, hint in hints.items():
        if key in raw:
            try:
                values[key] = convert(hint, raw[key])
            except ValueError as exc:
                problems.append(f"{label} {key}: {exc}")
    try:
        built = (build or owner)(**values) if all(key in values for key in required) else None
    except ConfigError as exc:
        problems.extend(problem for fields, problem in exc.problems
                        if all(key in values or key not in raw for key in fields.split()))
    if problems:
        raise ValueError("\n".join(problems))
    return built


def _pseudoword_config(sources: tuple[str, ...], counts: tuple[int, ...] = (100,),
                       **values) -> PseudowordConfig:
    """A single per-sense count broadcasts to every source."""
    return PseudowordConfig(sources, counts * len(sources) if len(counts) == 1 else counts,
                            **values)


def parse_pseudoword_config(text: str) -> PseudowordConfig:
    """Parse the flat ``key = value`` pseudo-word config format
    (``_read_config``), whose ``sources`` key is required."""
    return _read_config(text, "config", PseudowordConfig, _pseudoword_config,
                        required=("sources",))


def generate_pseudoword_corpus(config: PseudowordConfig, seed: int) -> Corpus:
    """Build a deterministic pseudo-word corpus: one document per occurrence.

    Every occurrence is a run of filler tokens with the pseudo-target in the
    middle; its gold sense is the source lemma it stands for.  Pure function
    of (config, seed).
    """
    rng = random.Random(seed)
    target = config.target_lemma
    pair_offsets = tuple(sorted(config.signal_offsets))
    # Drawn filler index -> its lemma, so that each filler word is one string.
    fillers: dict[int, str] = {}
    cues = config.signal_values or tuple(f"cue{n}" for n in range(len(config.sources)))
    pair_values = ("u0", "u1"), ("v0", "v1")

    def filler_token() -> Token:
        index = rng.randrange(config.vocabulary)
        lemma = fillers.get(index)
        if lemma is None:
            lemma = fillers[index] = f"w{index}"
        pos = config.filler_pos[rng.randrange(len(config.filler_pos))]
        return Token(lemma, lemma, pos, pos)

    def signal_token(lemma: str) -> Token:
        if rng.random() < config.noise:
            return filler_token()
        return Token(lemma, lemma, config.signal_pos, config.signal_pos)

    documents = []
    for sense_index, (source, count) in enumerate(zip(config.sources, config.counts)):
        for _ in range(count):
            if config.signal_mode == "pair":
                flip = rng.randrange(2)
                planted = {
                    pair_offsets[0]: pair_values[0][flip],
                    pair_offsets[1]: pair_values[1][flip if sense_index == 0 else 1 - flip],
                }
            else:
                planted = dict.fromkeys(config.signal_offsets, cues[sense_index])
            tokens = tuple(
                Token(target, target, config.target_pos, config.target_pos, source)
                if offset == 0 else signal_token(planted[offset]) if offset in planted
                else filler_token()
                for offset in range(-config.width, config.width + 1)
            )
            documents.append(Document(f"{target}-{len(documents):05d}", tokens))
    return Corpus(tuple(documents))
