"""Feed-survey analysis: conditional favorite distributions and rank tests.

Works on user-supplied CSV files of tweet records (feed, genre, angriness,
favorites). The conditional distributions compare favorites on the log
scale via ln(1 + favorites), which keeps zero-favorite tweets in the data;
the rank test ranks the counts themselves. Angriness plays the role of the
gaming coordinate and favorites the role of quality.

The survey is held column by column in a :class:`Survey`: feed and genre
as int8 codes into ``FEEDS`` and ``GENRES``, angriness and favorites as
int64. ``load_records`` reads the file once and builds the columns from
one numpy scan over its bytes when the file is canonical: LF line ends
only, unpadded fields, plain digits (the grammar is in its docstring).
Any other file, CRLF exports such as ``csv.writer``'s default output
included, goes through a per-row ``csv`` loop over the same bytes, which
gives the same columns wherever the scan applies; ``TweetRecord``
validates only the rows that fail that loop, so malformed rows are
reported exactly as the record validator words them. Every analysis
selects its feed, genre and angriness slice as row indices into the
columns, and also accepts a sequence of ``TweetRecord``, which it
converts once. Mid-ranks are computed with numpy on the integer columns;
scipy is used only for the Student t tail (``scipy.special.stdtr``), and
the CLI imports this module only when the ``empirics`` command runs.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np
from scipy import special

from ._frozen import Frozen

FEEDS = ("E", "C")
GENRES = ("P", "NP")
ANGRINESS_LEVELS = (0, 1, 2, 3, 4)
CSV_HEADER = ["feed", "genre", "angriness", "favorites"]

_FEED_CODES = {f: i for i, f in enumerate(FEEDS)}
_GENRE_CODES = {g: i for i, g in enumerate(GENRES)}
_INT64_MAX = 2 ** 63 - 1
_HEADER_LINE = (",".join(CSV_HEADER) + "\n").encode()
_MAX_DIGITS = 18  # every 18-digit count fits in int64
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


class RecordParseError(ValueError):
    """One or more malformed rows; carries (line_number, reason) pairs."""

    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = problems
        lines = "; ".join(f"line {ln}: {why}" for ln, why in problems[:20])
        extra = "" if len(problems) <= 20 else f" (+{len(problems) - 20} more)"
        super().__init__(f"malformed rows: {lines}{extra}")


class EmptyConditionalError(ValueError):
    """No records match the requested conditional."""


class TweetRecord(Frozen):
    def __init__(self, feed: str, genre: str, angriness: int,
                 favorites: int) -> None:
        if feed not in FEEDS:
            raise ValueError(f"feed must be one of {FEEDS}, got {feed!r}")
        if genre not in GENRES:
            raise ValueError(f"genre must be one of {GENRES}, got {genre!r}")
        if angriness not in ANGRINESS_LEVELS:
            raise ValueError(f"angriness must be in 0..4, got {angriness!r}")
        if favorites < 0:
            raise ValueError(f"favorites must be >= 0, got {favorites!r}")
        self.__dict__.update(feed=feed, genre=genre, angriness=angriness,
                             favorites=favorites)


class Survey(Frozen):
    """Validated survey records, one array per CSV column.

    ``feed`` and ``genre`` are int8 indices into ``FEEDS`` and ``GENRES``;
    ``angriness`` and ``favorites`` are int64. All four have one entry per
    record, in file order.
    """

    def __init__(self, feed: np.ndarray, genre: np.ndarray,
                 angriness: np.ndarray, favorites: np.ndarray) -> None:
        self.__dict__.update(feed=feed, genre=genre, angriness=angriness,
                             favorites=favorites)

    def __len__(self) -> int:
        return len(self.feed)

    @classmethod
    def from_records(cls, records: Iterable[TweetRecord]) -> "Survey":
        return _survey([(_FEED_CODES[r.feed], _GENRE_CODES[r.genre],
                         r.angriness, r.favorites) for r in records])


def _survey(rows: list[tuple[int, int, int, int]]) -> Survey:
    table = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return Survey(feed=table[:, 0].astype(np.int8),
                  genre=table[:, 1].astype(np.int8),
                  angriness=np.ascontiguousarray(table[:, 2]),
                  favorites=np.ascontiguousarray(table[:, 3]))


def _row_problem(row: list[str]) -> str:
    """Why a nonblank row was rejected, in the record validator's words."""
    if len(row) != 4:
        return f"expected 4 fields, got {len(row)}"
    try:
        TweetRecord(row[0].strip(), row[1].strip(), int(row[2]), int(row[3]))
    except ValueError as exc:
        return str(exc)
    return f"favorites must be <= {_INT64_MAX}, got {int(row[3])!r}"


def load_records(path) -> Survey:
    """Parse a UTF-8 record CSV; malformed rows are rejected with line numbers.

    A canonical file is parsed by one scan over its bytes: the header line
    is exactly ``feed,genre,angriness,favorites``, and every later line
    matches ``^(E|C),(P|NP),[0-4],[0-9]{1,18}$`` and ends in ``\n``, or
    ends the file. Every other file (padded or quoted fields, signs, CR or
    CRLF line ends, blank lines, favorites of 19 or more digits, non-ASCII
    bytes such as a leading UTF-8 byte-order mark, malformed rows) goes
    through the ``csv`` row loop over the same bytes, which gives the same
    columns on canonical files.
    """
    data = Path(path).read_bytes()
    survey = _scan(data)
    return survey if survey is not None else _load_rows(data)


def _scan(data: bytes) -> Survey | None:
    """The columns of a canonical record CSV, or None for any other file."""
    if not data.startswith(_HEADER_LINE):
        return None
    body = np.frombuffer(data, dtype=np.uint8)[len(_HEADER_LINE):]
    if len(body) == 0:
        return _survey([])
    ends = np.flatnonzero(body == ord("\n"))
    n_digits = np.count_nonzero(body - np.uint8(ord("0")) < 10)
    if body[-1] != ord("\n"):
        ends = np.append(ends, len(body))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(body == ord(","))
    if len(commas) != 3 * len(ends):
        return None
    # Row i of the comma triples lies inside line i once its first comma
    # follows the line start and its last precedes the line end; the
    # commas being sorted and three per line, each line then holds its own.
    first, second, third = commas.reshape(-1, 3).T
    np_genre = second - starts == 4
    fav_len = ends - third - 1
    if not (np.array_equal(first, starts + 1)
            and np.all(np_genre | (second - starts == 3))
            and np.array_equal(third, second + 2)
            and fav_len.min() >= 1 and fav_len.max() <= _MAX_DIGITS):
        return None
    feed, angriness = body[starts], body[second + 1] - np.uint8(ord("0"))
    if not (np.all((feed == ord("E")) | (feed == ord("C")))
            and np.all(body[second - 1] == ord("P"))
            and np.all(body[starts[np_genre] + 2] == ord("N"))
            and angriness.max() <= 4
            # the angriness byte is the only other digit of a line, so this
            # holds exactly when every favorites byte is a digit
            and n_digits == len(ends) + fav_len.sum()):
        return None
    seg = np.cumsum(fav_len) - fav_len
    offset = np.arange(fav_len.sum()) - np.repeat(seg, fav_len)
    digits = body[np.repeat(third + 1, fav_len) + offset] - np.uint8(ord("0"))
    place = _POW10[np.repeat(fav_len - 1, fav_len) - offset]
    return Survey(feed=(feed == ord("C")).astype(np.int8),
                  genre=np_genre.astype(np.int8),
                  angriness=angriness.astype(np.int64),
                  favorites=np.add.reduceat(place * digits, seg))


def _load_rows(data: bytes) -> Survey:
    """The row loop: ``csv`` rows, each validated; malformed ones reported."""
    with io.StringIO(data.decode("utf-8-sig"), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordParseError([(1, "empty file, expected header "
                                        + ",".join(CSV_HEADER))])
        if [h.strip() for h in header] != CSV_HEADER:
            raise RecordParseError([(1, f"bad header {header!r}, expected "
                                        + ",".join(CSV_HEADER))])
        rows: list[tuple[int, int, int, int]] = []
        problems: list[tuple[int, str]] = []
        for line_no, row in enumerate(reader, start=2):
            try:
                feed, genre, a, favs = row
                feed, genre = _FEED_CODES[feed.strip()], _GENRE_CODES[genre.strip()]
                a, favs = int(a), int(favs)
                ok = a in ANGRINESS_LEVELS and 0 <= favs <= _INT64_MAX
            except (ValueError, KeyError):
                ok = False
            if ok:
                rows.append((feed, genre, a, favs))
            elif row and any(c.strip() for c in row):
                problems.append((line_no, _row_problem(row)))
    if problems:
        raise RecordParseError(problems)
    return _survey(rows)


SurveyData = Union[Survey, Sequence[TweetRecord]]


def _as_survey(data: SurveyData) -> Survey:
    return data if isinstance(data, Survey) else Survey.from_records(data)


def _rows(survey: Survey, feed: str, genres: set[str],
          a: int | None = None) -> np.ndarray:
    """Indices, in file order, of the records in one feed and genre slice,
    and at angriness ``a`` if it is given."""
    if feed not in FEEDS:
        raise ValueError(f"feed must be one of {FEEDS}")
    if not genres or not genres.issubset(GENRES):
        raise ValueError(f"genres must be a nonempty subset of {GENRES}")
    mask = survey.feed == _FEED_CODES[feed]
    if len(genres) == 1:
        mask &= survey.genre == _GENRE_CODES[next(iter(genres))]
    if a is not None:
        mask &= survey.angriness == a
    return np.flatnonzero(mask)


def conditional_ecdf(data: SurveyData, a: int, feed: str,
                     genres: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """Step points ``(xs, ys)`` of the right-continuous ECDF of
    ln(1 + favorites) at one angriness level in one feed slice: each run of
    equal sorted values is a step, and the count up to its end, over the
    slice's size, is the right-side ``searchsorted`` rank."""
    survey, genres = _as_survey(data), set(genres)
    rows = _rows(survey, feed, genres, a)
    if rows.size == 0:
        raise EmptyConditionalError(
            f"no records with angriness={a}, feed={feed}, genres={sorted(genres)}")
    vals = np.sort(np.log1p(survey.favorites[rows].astype(float)))
    starts = np.flatnonzero(np.append(True, vals[1:] != vals[:-1]))
    return vals[starts], np.append(starts[1:], len(vals)) / len(vals)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group given its average rank.

    Bit-for-bit ``scipy.stats.rankdata(values, method="average")`` on data
    without NaN: a group spanning sorted positions start..end-1 gets
    (start + 1 + end) / 2, an exact half-integer.
    """
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[inverse]


class SpearmanResult(Frozen):
    """Rank correlation, its one-sided p-value and the slice size; two
    results are equal when all three are."""

    def __init__(self, rho: float, p_value: float, n: int) -> None:
        self.__dict__.update(rho=rho, p_value=p_value, n=n)

    def __eq__(self, other) -> bool:
        if type(other) is not SpearmanResult:
            return NotImplemented
        return (self.rho, self.p_value, self.n) == (other.rho, other.p_value,
                                                    other.n)


def spearman_rho(data: SurveyData, feed: str,
                 genres: Iterable[str]) -> SpearmanResult:
    """Rank correlation between angriness and favorites in a feed slice.

    Mid-rank tie handling, Pearson correlation of the ranks, and a
    one-sided (positive association) p-value from the t approximation with
    n - 2 degrees of freedom. The ranks are taken on the int64 columns: a
    float copy would tie distinct favorite counts of 2**53 and more.
    """
    survey = _as_survey(data)
    rows = _rows(survey, feed, set(genres))
    a = survey.angriness[rows]
    favs = survey.favorites[rows]
    n = len(a)
    if n < 3:
        raise ValueError(f"need at least 3 matching records, got {n}")
    if np.all(a == a[0]) or np.all(favs == favs[0]):
        raise ValueError("rank correlation undefined: a coordinate has zero variance")
    ra, rl = _midranks(a), _midranks(favs)
    ra = ra - ra.mean()
    rl = rl - rl.mean()
    rho = float(np.dot(ra, rl) / math.sqrt(np.dot(ra, ra) * np.dot(rl, rl)))
    rho = max(-1.0, min(1.0, rho))
    if rho >= 1.0:
        p = 0.0
    elif rho <= -1.0:
        p = 1.0
    else:
        t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        # the upper tail of Student's t, as scipy.stats.t.sf computes it
        p = float(special.stdtr(n - 2, -t_stat))
    return SpearmanResult(rho=rho, p_value=p, n=n)
