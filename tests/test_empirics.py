import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from creatorsim.empirics import (
    FEEDS,
    GENRES,
    EmptyConditionalError,
    RecordParseError,
    Survey,
    TweetRecord,
    _load_rows,
    _midranks,
    _scan,
    conditional_ecdf,
    load_records,
    spearman_rho,
)
from oracles import brute_force_spearman


def write_csv(tmp_path, rows, header="feed,genre,angriness,favorites"):
    path = tmp_path / "records.csv"
    path.write_text("\n".join([header] + rows) + ("\n" if rows else "\n"))
    return path


def rec(feed="E", genre="P", a=0, favs=0):
    return TweetRecord(feed, genre, a, favs)


class TestLoadRecords:
    def test_direct_parse(self, tmp_path):
        path = write_csv(tmp_path, ["E,P,3,120", "C, NP ,0,7"])
        survey = load_records(path)
        assert len(survey) == 2
        assert survey.feed.dtype == np.int8 and survey.genre.dtype == np.int8
        assert survey.angriness.dtype == np.int64
        assert survey.favorites.dtype == np.int64
        # feed and genre are indices into FEEDS = (E, C) and GENRES = (P, NP)
        assert survey.feed.tolist() == [0, 1]
        assert survey.genre.tolist() == [0, 1]
        assert survey.angriness.tolist() == [3, 0]
        assert survey.favorites.tolist() == [120, 7]

    def test_out_of_range_angriness_reports_line(self, tmp_path):
        path = write_csv(tmp_path, ["E,P,3,120", "C,NP,5,10"])
        with pytest.raises(RecordParseError) as info:
            load_records(path)
        assert info.value.problems[0][0] == 3
        assert "angriness" in info.value.problems[0][1]

    def test_negative_favorites_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["E,P,3,-1"])
        with pytest.raises(RecordParseError):
            load_records(path)

    def test_empty_file_with_header(self, tmp_path):
        survey = load_records(write_csv(tmp_path, []))
        assert len(survey) == 0
        for column in (survey.feed, survey.genre, survey.angriness,
                       survey.favorites):
            assert column.shape == (0,)

    def test_from_records_matches_parsed_columns(self, tmp_path):
        survey = load_records(write_csv(tmp_path, ["E,P,3,120", "C,NP,0,7"]))
        records = Survey.from_records([TweetRecord("E", "P", 3, 120),
                                       TweetRecord("C", "NP", 0, 7)])
        for name in ("feed", "genre", "angriness", "favorites"):
            got, want = getattr(records, name), getattr(survey, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_favorites_beyond_int64_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["E,P,3,9223372036854775807",
                                    "E,P,3,9223372036854775808"])
        with pytest.raises(RecordParseError) as info:
            load_records(path)
        assert info.value.problems == [
            (3, "favorites must be <= 9223372036854775807, "
                "got 9223372036854775808")]

    def test_record_favorites_bounded_like_the_csv(self):
        # a larger count would overflow the int64 column of every analysis
        with pytest.raises(ValueError, match="favorites must be <= "
                                             "9223372036854775807, got "
                                             "9223372036854775808"):
            rec(favs=2 ** 63)
        records = [rec(a=a, favs=2 ** 63 - 5 + a) for a in range(5)]
        assert spearman_rho(records, "E", ("P",)).rho == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_records(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, ["E,P,3,120"], header="a,b,c,d")
        with pytest.raises(RecordParseError, match="header"):
            load_records(path)

    def test_bad_feed_value(self, tmp_path):
        path = write_csv(tmp_path, ["X,P,3,120"])
        with pytest.raises(RecordParseError, match="feed"):
            load_records(path)

    def test_every_malformed_kind_reported_in_line_order(self, tmp_path):
        rows = ["E,P,3,120", "E,P,3", "C,NP,three,4", "X,P,1,2", "E,Q,1,2",
                "C,NP,5,10", "E,P,2,-1", "", ",,,", "C,P,0,0", "E,NP,1,2,3",
                "E, P , 4 ,7", "E,P,2,1.5", "  ", "E,NP,-1,0"]
        with pytest.raises(RecordParseError) as info:
            load_records(write_csv(tmp_path, rows))
        assert info.value.problems == [
            (3, "expected 4 fields, got 3"),
            (4, "invalid literal for int() with base 10: 'three'"),
            (5, "feed must be one of ('E', 'C'), got 'X'"),
            (6, "genre must be one of ('P', 'NP'), got 'Q'"),
            (7, "angriness must be in 0..4, got 5"),
            (8, "favorites must be >= 0, got -1"),
            (12, "expected 4 fields, got 5"),
            (14, "invalid literal for int() with base 10: '1.5'"),
            (16, "angriness must be in 0..4, got -1"),
        ]


HEADER = b"feed,genre,angriness,favorites"


def row_loop(path):
    return _load_rows(Path(path).read_bytes())


def parse_outcome(load, path):
    """What a loader makes of a file: columns with dtypes, or its error."""
    try:
        survey = load(path)
    except RecordParseError as exc:
        return ("problems", exc.problems)
    except UnicodeDecodeError:
        return ("not utf-8",)
    return ("survey", [(col.dtype.str, col.tolist()) for col in
                       (survey.feed, survey.genre, survey.angriness,
                        survey.favorites)])


canonical_favorites = st.one_of(
    st.integers(0, 99).map(str),
    st.integers(0, 10 ** 18 - 1).map(str),
    st.integers(10 ** 17, 10 ** 18 - 1).map(str),  # 18 digits
    st.sampled_from(["00", "007", "000000000000000000"]))
canonical_fields = st.tuples(
    st.sampled_from(FEEDS), st.sampled_from(GENRES),
    st.integers(0, 4).map(str), canonical_favorites)
canonical_line = canonical_fields.map(lambda row: ",".join(row).encode())
# values the row loop accepts or rejects in place of one canonical field;
# "\udcff" stands for the byte 0xff, which is not UTF-8
ODD_FIELDS = (
    ["X", "P", "e", "EC", " E", '"E"', "", "\u00e9", "\udcff"],
    ["Q", "E", "N", "PP", "EP", "PN", "p", " NP", '"P"', ""],
    ["5", "7", "9", "A", "-1", "03", " 3", "+3", "", "\u0663"],
    ["E", "1E", "+4", "-0", "1_0", " 2", "1.5", "", '"22"', '"2\n3"',
     "\u0663", "\udcff", "2\x00"])


@st.composite
def odd_line(draw, kind):
    """A canonical line with one field replaced, or a line of another shape."""
    fields = list(draw(canonical_fields))
    if kind == "field":
        i = draw(st.integers(0, 3))
        fields[i] = draw(st.sampled_from(ODD_FIELDS[i]))
    elif kind == "long":
        # 19 digits up to the int64 limit, 19 digits above it, 20 digits
        fields[3] = str(draw(st.one_of(st.integers(10 ** 18, 2 ** 63 - 1),
                                       st.integers(2 ** 63, 10 ** 19 - 1),
                                       st.integers(10 ** 19, 10 ** 20 - 1))))
    else:
        return draw(st.sampled_from([
            b"", b",,,", b"  ", b",".join(f.encode() for f in fields[:3]),
            b",".join(f.encode() for f in fields + ["1"]),
            b'"E\nX",P,1,2', b"\xc3,P,1,2"]))
    return ",".join(fields).encode("utf-8", "surrogateescape")


ODD_HEADERS = [b" feed,genre,angriness,favorites", HEADER + b"\r",
               b"feed, genre,angriness,favorites", b"\xef\xbb\xbf" + HEADER,
               HEADER + b","]
SPECIAL_FILES = [b"", HEADER, HEADER + b"\n", HEADER + b"\r\n",
                 HEADER + b"\n\n"]
DEPARTURES = (["none"] * 4 + ["field"] * 3
              + ["long", "shape", "line end", "header", "file"])


@st.composite
def record_files(draw):
    """A canonical record file with at most one departure from the grammar.

    One departure at a time shows each to the scan on its own, and about a
    third of the draws stay canonical, so the scan's arithmetic is tested.
    """
    departure = draw(st.sampled_from(DEPARTURES))
    if departure == "file":
        return draw(st.sampled_from(SPECIAL_FILES))
    lines = draw(st.lists(canonical_line, max_size=12))
    if departure in ("field", "long", "shape"):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(odd_line(departure)))
    header = draw(st.sampled_from(ODD_HEADERS)) if departure == "header" \
        else HEADER
    ends = [b"\n"] * (len(lines) + 1)
    if departure == "line end" and lines:
        ends[draw(st.integers(1, len(lines)))] = draw(
            st.sampled_from([b"\r\n", b"\r"]))
    data = b"".join(line + end for line, end in zip([header] + lines, ends))
    return data[:-len(ends[-1])] if draw(st.booleans()) else data


class TestByteScan:
    """The byte scan and the row loop read every file the same way."""

    @settings(max_examples=400, deadline=None)
    @given(record_files())
    def test_load_records_matches_row_loop(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_bytes(data)
            assert parse_outcome(load_records, path) == \
                parse_outcome(row_loop, path)

    @pytest.mark.parametrize("tail", [b"\n", b""])
    def test_scan_parses_canonical_files(self, tmp_path, tail):
        path = tmp_path / "records.csv"
        path.write_bytes(HEADER + b"\nE,P,0,0\nC,NP,4,999999999999999999\n"
                         b"E,NP,2,007\nC,P,3,123456789012345678" + tail)
        survey = _scan(path.read_bytes())
        assert survey is not None
        assert parse_outcome(lambda _: survey, path) == \
            parse_outcome(row_loop, path)
        assert len(_scan(HEADER + b"\n")) == 0

    @pytest.mark.parametrize("line", [
        b"E,P,1,2\r", b"E,P,1,1234567890123456789", b"E,P,1,", b" E,P,1,2",
        b"E,P,1,+2", b"", b",,,", b'"E",P,1,2', b"E,P,1,\xd9\xa3",
        b"E,P,5,1", b"P,P,1,2", b"E,N,1,2", b"E,EP,1,2", b"E,PN,1,2",
        b"E,P,1,2E"])
    def test_scan_leaves_other_files_to_the_row_loop(self, line):
        assert _scan(HEADER + b"\nE,P,0,1\n" + line + b"\n") is None


class TestConditionalEcdf:
    def test_single_zero_favorite_record(self):
        xs, ys = conditional_ecdf([rec(a=2, favs=0)], 2, "E", ("P", "NP"))
        assert xs.tolist() == [0.0] and ys.tolist() == [1.0]

    def test_two_record_steps(self):
        records = [rec(a=1, favs=0), rec(a=1, favs=1)]
        xs, ys = conditional_ecdf(records, 1, "E", ("P",))
        assert xs.tolist() == [0.0, math.log(2.0)]
        assert ys.tolist() == [0.5, 1.0]

    def test_empty_conditional_signal(self):
        with pytest.raises(EmptyConditionalError):
            conditional_ecdf([rec(a=1)], 2, "E", ("P",))

    def test_ecdf_shape_properties(self):
        rng = np.random.default_rng(0)
        records = [rec(a=0, favs=int(f)) for f in rng.integers(0, 50, size=200)]
        xs, ys = conditional_ecdf(records, 0, "E", ("P",))
        assert np.all(np.diff(xs) > 0.0) and np.all(np.diff(ys) > 0.0)
        assert 0.0 < ys[0] and ys[-1] == 1.0
        assert xs[-1] <= float(np.log1p(49))

    @pytest.mark.parametrize("levels", [1, 3, 50])
    def test_step_points_are_the_distinct_values_and_their_ranks(self, levels):
        favs = np.random.default_rng(levels).integers(0, levels, 200)
        records = [rec(a=0, favs=int(f)) for f in favs]
        xs, ys = conditional_ecdf(records, 0, "E", ("P",))
        distinct, counts = np.unique(favs, return_counts=True)
        assert np.array_equal(xs, np.log1p(distinct.astype(float)))
        assert np.array_equal(ys, np.cumsum(counts) / len(favs))
        # each step's height is the right-continuous ECDF at its value
        sorted_values = np.sort(np.log1p(favs.astype(float)))
        assert np.array_equal(
            ys, np.searchsorted(sorted_values, xs, side="right") / len(favs))


class TestSpearman:
    def test_perfectly_concordant(self):
        records = [rec(a=a, favs=a) for a in range(5)]
        out = spearman_rho(records, "E", ("P",))
        assert out.rho == pytest.approx(1.0)
        assert out.p_value == 0.0

    def test_hand_case(self):
        records = [rec(a=1, favs=2), rec(a=2, favs=1), rec(a=3, favs=3)]
        out = spearman_rho(records, "E", ("P",))
        assert out.rho == pytest.approx(0.5, abs=1e-12)

    def test_perfectly_discordant(self):
        records = [rec(a=a, favs=10 - a) for a in range(5)]
        out = spearman_rho(records, "E", ("P",))
        assert out.rho == pytest.approx(-1.0)
        assert out.p_value == 1.0

    def test_too_few_records(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman_rho([rec(), rec()], "E", ("P",))

    def test_zero_variance(self):
        records = [rec(a=2, favs=f) for f in (1, 2, 3)]
        with pytest.raises(ValueError, match="variance"):
            spearman_rho(records, "E", ("P",))

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        records = [rec(a=int(a), favs=int(f))
                   for a, f in zip(rng.integers(0, 5, 80), rng.integers(0, 30, 80))]
        base = spearman_rho(records, "E", ("P",))
        for transform in (lambda f: f * f + f, lambda f: 3 * f + 1,
                          lambda f: f ** 3):
            mapped = [rec(a=r.angriness, favs=int(transform(r.favorites)))
                      for r in records]
            out = spearman_rho(mapped, "E", ("P",))
            assert out.rho == pytest.approx(base.rho, abs=1e-12)
            assert out.p_value == pytest.approx(base.p_value, abs=1e-12)

    def test_matches_brute_force_on_tied_data(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            a = rng.integers(0, 5, size=n)
            f = rng.integers(0, 6, size=n)
            if len(set(a.tolist())) < 2 or len(set(f.tolist())) < 2:
                continue
            records = [rec(a=int(x), favs=int(y)) for x, y in zip(a, f)]
            out = spearman_rho(records, "E", ("P",))
            assert out.rho == pytest.approx(
                brute_force_spearman(a.tolist(), f.tolist()), abs=1e-12)

    def test_p_value_matches_t_approximation(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 5, size=60)
        f = rng.integers(0, 40, size=60)
        records = [rec(a=int(x), favs=int(y)) for x, y in zip(a, f)]
        out = spearman_rho(records, "E", ("P",))
        t = out.rho * math.sqrt((out.n - 2) / (1 - out.rho ** 2))
        assert out.p_value == float(sps.t.sf(t, out.n - 2))

    @pytest.mark.parametrize("form", ["csv", "records"])
    def test_favorites_past_2_to_53_are_ranked_as_integers(self, form, tmp_path):
        # as floats, 2**53 + 1 rounds to 2**53 and the two would tie
        favs = [2 ** 53 + 1, 2 ** 53, 5, 7]
        data = [rec(a=a, favs=f) for a, f in enumerate(favs)]
        if form == "csv":
            path = write_csv(tmp_path, [f"E,P,{a},{f}" for a, f in enumerate(favs)])
            assert _scan(path.read_bytes()) is not None
            data = load_records(path)
        out = spearman_rho(data, "E", ("P",))
        assert out.rho == pytest.approx(sps.spearmanr(range(4), favs).statistic,
                                        abs=1e-12)
        assert out.rho == pytest.approx(-0.8, abs=1e-12)

    def test_genre_filtering(self):
        records = [rec(genre="P", a=a, favs=a) for a in range(5)]
        records += [rec(genre="NP", a=a, favs=5 - a) for a in range(5)]
        assert spearman_rho(records, "E", ("P",)).rho == pytest.approx(1.0)
        assert spearman_rho(records, "E", ("NP",)).rho == pytest.approx(-1.0)

    @pytest.mark.parametrize("feed, genres, message", [
        ("X", ("P",), "feed must be one of"),
        ("E", (), "genres must be a nonempty subset"),
        ("E", ("P", "Q"), "genres must be a nonempty subset"),
    ])
    def test_unknown_feed_or_genre_slice_rejected(self, feed, genres, message):
        records = [rec(a=a, favs=a) for a in range(5)]
        with pytest.raises(ValueError, match=message):
            spearman_rho(records, feed, genres)


class TestMidranks:
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=300))
    def test_matches_scipy_on_tied_integers(self, values):
        values = np.asarray(values, dtype=float)
        ranks = _midranks(values)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, sps.rankdata(values, method="average"))

    @given(st.lists(st.sampled_from([-1e300, -2.5, -0.0, 0.0, 1e-300, 7.0]),
                    min_size=1, max_size=300))
    def test_matches_scipy_on_tied_floats(self, values):
        values = np.asarray(values, dtype=float)
        assert np.array_equal(_midranks(values),
                              sps.rankdata(values, method="average"))

    def test_matches_scipy_on_large_tied_arrays(self):
        rng = np.random.default_rng(4)
        for levels in (1, 2, 5, 50, 10_000):
            values = rng.integers(0, levels, size=20_000).astype(float)
            assert np.array_equal(_midranks(values),
                                  sps.rankdata(values, method="average"))


class TestSurveyAndRecordForms:
    """The record-list and columnar forms of one dataset agree exactly."""

    @pytest.fixture
    def data(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [f"{f},{g},{int(a)},{int(v)}"
                for f, g, a, v in zip(rng.choice(["E", "C"], 400),
                                      rng.choice(["P", "NP"], 400),
                                      rng.integers(0, 5, 400),
                                      rng.integers(0, 60, 400))]
        records = [TweetRecord(f, g, int(a), int(v))
                   for f, g, a, v in (row.split(",") for row in rows)]
        return records, load_records(write_csv(tmp_path, rows))

    @pytest.mark.parametrize("feed", ["E", "C"])
    @pytest.mark.parametrize("genres", [("P", "NP"), ("P",), ("NP",)])
    def test_spearman_identical(self, data, feed, genres):
        records, survey = data
        assert (vars(spearman_rho(records, feed, genres))
                == vars(spearman_rho(survey, feed, genres)))

    @pytest.mark.parametrize("feed", ["E", "C"])
    @pytest.mark.parametrize("genres", [("P", "NP"), ("P",), ("NP",)])
    def test_ecdf_identical(self, data, feed, genres):
        records, survey = data
        for a in range(5):
            from_records = conditional_ecdf(records, a, feed, genres)
            from_survey = conditional_ecdf(survey, a, feed, genres)
            for got, want in zip(from_records, from_survey):
                assert np.array_equal(got, want)
