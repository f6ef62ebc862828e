"""Homogeneous disambiguation criteria and contextual feature extraction.

A criterion is named ``[<n>gr|<tag>|<positioning>|<filter>]@<size>`` with
optional ``shift<sign><digits>`` and ``anchored`` suffixes, e.g.
``[2gr|lemma|leftright|all]@4`` or ``[1gr|mform|ordered|all]@2shift+1``.
It maps a target occurrence to a set of features: n-grams of tag values drawn
from the context window ``[-size+shift, size+shift]`` around the target.

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
from typing import Mapping, Sequence

from .corpus import Corpus, Occurrence, Token

TAGS = ("mform", "lemma", "ems", "cgems")
POSITIONINGS = ("ordered", "leftright", "unordered")
FILTERS = ("all", "content", "selected")
CONTENT_MODES = ("reindex", "keep_gaps")

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
            (self.tag not in TAGS, f"unknown tag {self.tag!r}; expected one of {TAGS}"),
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


def cell_name(cell: Sequence[Criterion]) -> str:
    """The name of a grid cell: its criteria joined by '+'."""
    return "+".join(format_criterion(c) for c in cell)


def parse_cell(text: str) -> tuple[Criterion, ...]:
    """The criteria of a cell name, the inverse of ``cell_name``; only a '+'
    before a '[' joins, as ``shift+1`` holds one too.  A cell may not repeat
    a criterion."""
    cell = tuple(parse_criterion(part) for part in re.split(r"\+(?=\s*\[)", text))
    repeated = [str(c) for c, n in Counter(cell).items() if n > 1]
    if repeated:
        raise CriterionParseError(f"{text!r} repeats {', '.join(repeated)}")
    return cell


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
    if positioning == "position":
        positioning = "ordered"
    suffix_match = _SUFFIX_RE.match(suffix)
    if not suffix_match:
        raise CriterionParseError(f"bad size/shift/anchored suffix {suffix!r}")
    size = int(suffix_match.group(1))
    shift = int(suffix_match.group(2)) if suffix_match.group(2) else 0
    anchored = suffix_match.group(3) is not None
    try:
        return Criterion(order, tag, positioning, filt, size, shift, anchored)
    except ValueError as exc:
        raise CriterionParseError(
            "\n".join(f"{text!r}: {problem}" for problem in str(exc).splitlines())
        ) from exc


@dataclass(frozen=True)
class CriterionGrid:
    """Finite parameter sets whose Cartesian product is a criterion space."""

    orders: tuple[int, ...] = (1, 2, 3)
    tags: tuple[str, ...] = TAGS
    positionings: tuple[str, ...] = POSITIONINGS
    filters: tuple[str, ...] = ("all", "content")
    sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)

    def __len__(self) -> int:
        return (
            len(self.orders) * len(self.tags) * len(self.positionings)
            * len(self.filters) * len(self.sizes)
        )


def default_grid() -> CriterionGrid:
    """The standard 576-criterion grid: 3 orders x 4 tags x 3 positionings
    x 2 filters x sizes 1..8."""
    return CriterionGrid()


def enumerate_grid(grid: CriterionGrid) -> list[Criterion]:
    """Cartesian product in deterministic order: orders, then tags, then
    positionings, then filters, then sizes.  Shift 0 and non-anchored
    throughout."""
    for name in ("orders", "tags", "positionings", "filters", "sizes"):
        if not getattr(grid, name):
            raise ValueError(f"grid parameter set {name!r} is empty")
    return [
        Criterion(order, tag, positioning, filt, size)
        for order, tag, positioning, filt, size in itertools.product(
            grid.orders, grid.tags, grid.positionings, grid.filters, grid.sizes
        )
    ]


def _parse_int_list(value: str) -> tuple[int, ...]:
    items: list[int] = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        span = re.fullmatch(r"(\d+)-(\d+)", part)
        if span:
            items.extend(range(int(span.group(1)), int(span.group(2)) + 1))
        else:
            items.append(int(part))
    return tuple(items)


def parse_grid_config(text: str) -> CriterionGrid:
    """Parse a grid config file: ``orders/tags/positionings/filters/sizes``
    keys with comma-separated values (sizes also accept ``1-8`` ranges).

    Every value is checked; all problems are raised together in one
    ``ValueError``, one per line of its message.
    """
    raw: dict[str, str] = {}
    problems: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            problems.append(f"grid config line {number}: expected 'key = value'")
            continue
        raw[key.strip()] = value.strip()
    fields = {"orders": "order", "tags": "tag", "positionings": "positioning",
              "filters": "filter", "sizes": "size"}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        problems.append(f"unknown grid config keys: {', '.join(unknown)}")
    kwargs: dict = {}
    for key in (key for key in fields if key in raw):
        if key in ("orders", "sizes"):
            try:
                kwargs[key] = _parse_int_list(raw[key])
            except ValueError as exc:
                problems.append(f"grid config {key}: {exc}")
            continue
        values = tuple(v for v in (s.strip() for s in raw[key].split(",")) if v)
        if key == "positionings":
            values = tuple("ordered" if v == "position" else v for v in values)
        kwargs[key] = values
    probe = Criterion(1, TAGS[0], POSITIONINGS[0], FILTERS[0], 1)
    for key, values in kwargs.items():
        if not values:
            problems.append(f"grid parameter set {key!r} is empty")
        for value in values:
            try:
                replace(probe, **{fields[key]: value})
            except ValueError as exc:
                problems.append(f"grid config {key}: {exc}")
        repeated = sorted({str(v) for v, n in Counter(values).items() if n > 1})
        if repeated:
            problems.append(f"grid config {key}: repeated {', '.join(repeated)}")
    if problems:
        raise ValueError("\n".join(problems))
    return CriterionGrid(**kwargs)


# A feature vector maps each feature key to the span that first produced it:
# the window offsets and coarse tags of that n-gram's tokens.  Keys ascend,
# so downstream arithmetic is order-independent.
Span = tuple[tuple[int, ...], tuple[str, ...]]
FeatureVector = dict[str, Span]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("_", "\\_")


def _span_key(criterion: Criterion, span: Sequence[tuple[int, str]]) -> str:
    values = "_".join(_escape(value) for _, value in span)
    start = span[0][0]
    if criterion.positioning == "ordered":
        return f"{start}:{values}"
    if criterion.positioning == "leftright":
        if criterion.anchored:
            return f"A{start}:{values}"
        return f"{'L' if start < 0 else 'R'}:{values}"
    return values  # unordered: values alone, internal order preserved


def _consecutive_runs(entries: list[tuple[int, Token]]) -> list[list[tuple[int, Token]]]:
    runs: list[list[tuple[int, Token]]] = []
    for offset, token in entries:
        if runs and offset == runs[-1][-1][0] + 1:
            runs[-1].append((offset, token))
        else:
            runs.append([(offset, token)])
    return runs


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


def extract_features(
    corpus: Corpus,
    occurrence: Occurrence,
    criterion: Criterion,
    *,
    content_mode: str = "reindex",
) -> FeatureVector:
    """Extract the feature vector a criterion yields for one occurrence.

    Pure function of the occurrence's document slice and the criterion; an
    occurrence at a document edge may yield an empty vector (windows truncate
    silently, spans are never padded).
    """
    if content_mode not in CONTENT_MODES:
        raise ValueError(f"content_mode must be one of {CONTENT_MODES}")
    doc = corpus.document(occurrence.document_id)
    tokens = doc.tokens
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

    spans: FeatureVector = {}

    def emit(span: list[tuple[int, Token]]) -> None:
        key = _span_key(criterion, [(o, getattr(t, criterion.tag)) for o, t in span])
        if key not in spans:  # the first span of a key wins
            spans[key] = (tuple(o for o, _ in span), tuple(t.cgems for _, t in span))

    if criterion.anchored:
        entries = sorted(window + [(0, tokens[index])])
        for run in _consecutive_runs(entries):
            for start in range(len(run) - criterion.order + 1):
                span = run[start:start + criterion.order]
                if any(o == 0 for o, _ in span):
                    emit(span)
    else:
        for run in _consecutive_runs(window):
            for start in range(len(run) - criterion.order + 1):
                emit(run[start:start + criterion.order])

    return {key: spans[key] for key in sorted(spans)}


def combine_features(
    criteria: Sequence[Criterion], vectors: Sequence[FeatureVector]
) -> FeatureVector:
    """Union of the vectors that the criteria of one cell extract from the
    same occurrence, ``vectors[i]`` from ``criteria[i]``.

    A one-criterion cell's union is its vector; with several criteria, keys
    are namespaced by their criterion's canonical string so features from
    different criteria can never collide.
    """
    if len(criteria) == 1:
        return vectors[0]
    return dict(sorted(
        (f"{format_criterion(criterion)}::{key}", span)
        for criterion, vector in zip(criteria, vectors, strict=True)
        for key, span in vector.items()
    ))
