"""Homogeneous disambiguation criteria and contextual feature extraction.

A criterion is named ``[<n>gr|<tag>|<positioning>|<filter>]@<size>`` with
optional ``shift<sign><digits>`` and ``anchored`` suffixes, e.g.
``[2gr|lemma|leftright|all]@4`` or ``[1gr|mform|ordered|all]@2shift+1``.
It maps a target occurrence to a set of features: n-grams of tag values drawn
from the context window ``[-size+shift, size+shift]`` around the target, read
from the occurrence's own ``tokens`` (its document's).

Positioning decides how much location information a feature key retains:

* ``ordered``    - keys carry the exact window offsets;
* ``leftright``  - keys carry only the side of the target (left or right);
* ``unordered``  - keys carry the values alone.

Word filters (``content``, ``selected``) remove closed-class context tokens
*before* the window is applied: surviving tokens are re-indexed so that the
nearest kept token on each side sits at offset +/-1.  This widens the lexical
reach of a fixed window size.  The alternative ``keep_gaps`` extraction mode
preserves original offsets instead (n-grams then only form across adjacent
survivors).

Non-anchored n-grams never span the target; anchored criteria instead keep
exactly the n-grams that contain it, with the target's own tag value filling
its slot.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

from .corpus import TOKEN_FIELDS, ConfigError, Occurrence, Token, _read_config

POSITIONINGS = ("ordered", "leftright", "unordered")
FILTERS = ("all", "content", "selected")
CONTENT_MODES = ("reindex", "keep_gaps")
# The problem with any other content mode, wherever one is checked.
CONTENT_MODE_PROBLEM = f"content mode must be one of {CONTENT_MODES}"

# Coarse tags counted as content words (open classes).
CONTENT_TAGS = frozenset({"NCOM", "NPRO", "ADJ", "ADV", "VCON", "VINF", "VPAR"})

# Per-category tag lists for the "selected" filter: the coarse parts-of-speech
# that act as the most reliable indicators for each target category.
SELECTED_TAGS: Mapping[str, frozenset[str]] = {
    "noun": frozenset({"NCOM", "PREP", "ADJ", "SUB", "VINF", "NPRO", "VPAR", "PRODE"}),
    "adjective": frozenset({"NCOM", "DET", "ADJ", "ADV", "VINF", "NPRO"}),
    "verb": frozenset(
        {"NCOM", "ADJ", "PROPE", "PCTFORTE", "SUB", "VINF", "NPRO", "VPAR", "PRODE"}
    ),
}


class CriterionParseError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Criterion:
    """One feature-extraction recipe: n-gram order, tag, positioning, filter,
    window size, window shift, and whether n-grams must contain the target.
    Criteria compare field by field, in this order."""

    order: int
    tag: str
    positioning: str
    filter: str
    size: int
    shift: int = 0
    anchored: bool = False

    def __post_init__(self) -> None:
        problems = [problem for bad, problem in (
            (self.order < 1, "n-gram order must be >= 1"),
            (self.tag not in TOKEN_FIELDS,
             f"unknown tag {self.tag!r}; expected one of {TOKEN_FIELDS}"),
            (self.positioning not in POSITIONINGS,
             f"unknown positioning {self.positioning!r}; expected one of {POSITIONINGS}"),
            (self.filter not in FILTERS,
             f"unknown filter {self.filter!r}; expected one of {FILTERS}"),
            (self.size < 1, "context size must be >= 1"),
            (self.anchored and self.order < 2, "anchored criteria need n-gram order >= 2"),
        ) if bad]
        if problems:
            raise ValueError("\n".join(problems))

    def __str__(self) -> str:
        return format_criterion(self)


def format_criterion(criterion: Criterion) -> str:
    """Canonical string form; round-trips through parse_criterion."""
    return _format(criterion, f"@{criterion.size}")


def family_name(criterion: Criterion) -> str:
    """The canonical form without ``@<size>``: the name shared by the
    criteria that differ only in window size."""
    return _format(criterion, "")


def _format(criterion: Criterion, size: str) -> str:
    return (
        f"[{criterion.order}gr|{criterion.tag}|{criterion.positioning}|{criterion.filter}]"
        + size
        + (f"shift{criterion.shift:+d}" if criterion.shift else "")
        + ("anchored" if criterion.anchored else "")
    )


# A grid cell: the criteria whose feature vectors combine into one.
Cell = tuple[Criterion, ...]


def cell_name(cell: Cell) -> str:
    """The name of a grid cell: its criteria joined by '+'."""
    return "+".join(format_criterion(c) for c in cell)


def parse_cell(text: str) -> Cell:
    """The criteria of a cell name, the inverse of ``cell_name``; only a '+'
    before a '[' joins, as ``shift+1`` holds one too.  A cell may not repeat
    a criterion."""
    cell = tuple(parse_criterion(part) for part in re.split(r"\+(?=\s*\[)", text))
    repeated = [str(c) for c, n in Counter(cell).items() if n > 1]
    if repeated:
        raise CriterionParseError(f"{text!r} repeats {', '.join(repeated)}")
    return cell


def _positioning(name: str) -> str:
    """A positioning as written in a criterion or a grid config: ``position``
    is read as ``ordered``."""
    return "ordered" if name == "position" else name


_SUFFIX_RE = re.compile(r"^(\d+)(?:shift([+-]\d+))?(anchored)?$")


def parse_criterion(text: str) -> Criterion:
    """Parse the criterion grammar; accepts ``position`` as an alias of
    ``ordered``.  The parameter values are checked by ``Criterion``."""
    stripped = text.strip()
    if not stripped.startswith("[") or "]@" not in stripped:
        raise CriterionParseError(f"expected '[...]@<size>' syntax in {text!r}")
    body, _, suffix = stripped[1:].partition("]@")
    params = body.split("|")
    if len(params) != 4:
        raise CriterionParseError(
            f"expected 4 '|'-separated parameters, got {len(params)} in {text!r}"
        )
    par1, tag, positioning, filt = params
    match = re.fullmatch(r"(\d+)gr", par1)
    if not match:
        raise CriterionParseError(f"bad n-gram parameter {par1!r} (expected e.g. '2gr')")
    order = int(match.group(1))
    suffix_match = _SUFFIX_RE.match(suffix)
    if not suffix_match:
        raise CriterionParseError(f"bad size/shift/anchored suffix {suffix!r}")
    size = int(suffix_match.group(1))
    shift = int(suffix_match.group(2)) if suffix_match.group(2) else 0
    anchored = suffix_match.group(3) is not None
    try:
        return Criterion(order, tag, _positioning(positioning), filt, size, shift, anchored)
    except ValueError as exc:
        raise CriterionParseError(
            "\n".join(f"{text!r}: {problem}" for problem in str(exc).splitlines())
        ) from exc


@dataclass(frozen=True)
class CriterionGrid:
    """Finite parameter sets whose Cartesian product is a criterion space.
    ``position`` among the positionings is read as ``ordered``."""

    orders: tuple[int, ...] = (1, 2, 3)
    tags: tuple[str, ...] = TOKEN_FIELDS
    positionings: tuple[str, ...] = POSITIONINGS
    filters: tuple[str, ...] = ("all", "content")
    sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)

    def __post_init__(self) -> None:
        object.__setattr__(self, "positionings", tuple(map(_positioning, self.positionings)))
        probe = Criterion(1, TOKEN_FIELDS[0], POSITIONINGS[0], FILTERS[0], 1)
        problems = []
        for name in ("orders", "tags", "positionings", "filters", "sizes"):
            values = getattr(self, name)
            if not values:
                problems.append((name, f"grid parameter set {name!r} is empty"))
            for value in values:
                try:
                    # Each set is named by the plural of the field it varies.
                    replace(probe, **{name[:-1]: value})
                except ValueError as exc:
                    problems.append((name, f"grid config {name}: {exc}"))
            repeated = sorted({str(v) for v, n in Counter(values).items() if n > 1})
            if repeated:
                problems.append((name, f"grid config {name}: repeated {', '.join(repeated)}"))
        if problems:
            raise ConfigError(problems)

    def __len__(self) -> int:
        return (
            len(self.orders) * len(self.tags) * len(self.positionings)
            * len(self.filters) * len(self.sizes)
        )


def default_grid() -> CriterionGrid:
    """The standard 576-criterion grid: 3 orders x 4 tags x 3 positionings
    x 2 filters x sizes 1..8."""
    return CriterionGrid()


def enumerate_grid(grid: CriterionGrid) -> list[Cell]:
    """The grid's one-criterion cells, its Cartesian product in deterministic
    order: orders, then tags, then positionings, then filters, then sizes.
    Shift 0 and non-anchored throughout."""
    return [
        (Criterion(order, tag, positioning, filt, size),)
        for order, tag, positioning, filt, size in itertools.product(
            grid.orders, grid.tags, grid.positionings, grid.filters, grid.sizes
        )
    ]


def parse_grid_config(text: str) -> CriterionGrid:
    """Parse a grid config file (``_read_config``): a comma-separated list
    for each ``CriterionGrid`` field, with ``1-8`` ranges among the ints."""
    return _read_config(text, "grid config", CriterionGrid)


# A feature vector is the ascending tuple of its keys.  A span, the window
# offsets and coarse tags of the first n-gram that produced a key, is a
# decision's evidence: evaluation asks ``feature_span`` for the deciding
# key's span only when it keeps records.
Span = tuple[tuple[int, ...], tuple[str, ...]]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("_", "\\_")


def _survivors(
    tokens: Sequence[Token], positions: range, allowed: frozenset[str], limit: int
) -> list[tuple[int, Token]]:
    """The first ``limit`` tokens at ``positions`` whose cgems is allowed,
    each with its rank among them (1 for the nearest)."""
    kept: list[tuple[int, Token]] = []
    if limit > 0:
        for p in positions:
            if tokens[p].cgems in allowed:
                kept.append((len(kept) + 1, tokens[p]))
                if len(kept) == limit:
                    break
    return kept


def _ngrams(
    occurrence: Occurrence, criterion: Criterion, content_mode: str
) -> Iterator[tuple[str, list[tuple[int, Token]]]]:
    """Each n-gram a criterion takes from an occurrence's window, in emission
    order: its key and its window entries, (offset, token) pairs."""
    if content_mode not in CONTENT_MODES:
        raise ValueError(CONTENT_MODE_PROBLEM)
    tokens = occurrence.tokens
    index = occurrence.token_index
    if criterion.filter == "all":
        allowed = None
    elif criterion.filter == "content":
        allowed = CONTENT_TAGS
    else:
        allowed = SELECTED_TAGS[occurrence.category]
    low = -criterion.size + criterion.shift
    high = criterion.size + criterion.shift

    # The window in ascending offset order, offsets relative to the target;
    # only the tokens the window can reach are visited.  With a word filter
    # in reindex mode, offsets count surviving tokens only.
    if allowed is None or content_mode == "keep_gaps":
        reach = range(max(index + low, 0), min(index + high, len(tokens) - 1) + 1)
        window = [
            (p - index, tokens[p])
            for p in reach
            if p != index and (allowed is None or tokens[p].cgems in allowed)
        ]
    else:
        left = _survivors(tokens, range(index - 1, -1, -1), allowed, -low)
        right = _survivors(tokens, range(index + 1, len(tokens)), allowed, high)
        window = [(-k, t) for k, t in reversed(left) if -k <= high]
        window += [(k, t) for k, t in right if k >= low]

    anchored = criterion.anchored
    if anchored:
        window = sorted(window + [(0, tokens[index])])

    # Each window entry's key text once, escaped only where it needs it, and
    # the key prefix's form once: unordered keys carry none, anchored or not.
    offsets = [o for o, _ in window]
    texts = [getattr(t, criterion.tag) for _, t in window]
    texts = [_escape(v) if "_" in v or "\\" in v else v for v in texts]
    if criterion.positioning == "ordered":
        prefix = "{}:".format
    elif criterion.positioning == "unordered":
        prefix = lambda start: ""
    elif anchored:
        prefix = "A{}:".format
    else:
        prefix = lambda start: "L:" if start < 0 else "R:"

    # Offsets ascend without repeats, so an n-gram's offsets are consecutive
    # exactly when its last is ``order - 1`` past its first.  Anchored
    # n-grams must contain offset 0.
    order = criterion.order
    tail = order - 1
    for s in range(len(offsets) - tail):
        first, last = offsets[s], offsets[s + tail]
        if last - first != tail or (anchored and not first <= 0 <= last):
            continue
        yield prefix(first) + "_".join(texts[s:s + order]), window[s:s + order]


def extract_features(occurrence: Occurrence, criterion: Criterion, *,
                     content_mode: str = "reindex") -> tuple[str, ...]:
    """The feature vector a criterion yields for one occurrence: its distinct
    keys, ascending.  Pure function of the occurrence's document slice and
    the criterion; at a document edge the window truncates silently, so the
    vector may be empty."""
    return tuple(sorted({key for key, _ in _ngrams(occurrence, criterion, content_mode)}))


def feature_span(occurrence: Occurrence, cell: Cell, key: str,
                 *, content_mode: str = "reindex") -> Span:
    """The span of a key of a cell's vector for one occurrence: the window
    offsets and coarse tags of the first n-gram that yields it.  In a cell
    of several criteria, a key names its criterion before ``::``."""
    criterion = cell[0]
    if len(cell) > 1:
        name, _, key = key.partition("::")
        criterion = {format_criterion(c): c for c in cell}[name]
    for found, entries in _ngrams(occurrence, criterion, content_mode):
        if found == key:
            return tuple(o for o, _ in entries), tuple(t.cgems for _, t in entries)
    raise KeyError(key)


def combine_features(cell: Cell, vectors: Sequence[tuple[str, ...]]) -> tuple[str, ...]:
    """Union of the vectors that the criteria of one cell extract from the
    same occurrence, ``vectors[i]`` from ``cell[i]``, keys ascending.

    A one-criterion cell's union is its vector; with several criteria, keys
    are namespaced by their criterion's canonical string so features from
    different criteria can never collide.
    """
    if len(cell) == 1:
        return vectors[0]
    return tuple(sorted(
        f"{format_criterion(criterion)}::{key}"
        for criterion, vector in zip(cell, vectors, strict=True)
        for key in vector
    ))
