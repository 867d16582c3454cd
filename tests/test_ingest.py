"""CSV ingestion: schema validation, age binning, normalization, round trips."""

import csv
import datetime
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losanova import ValidationError, bin_age, generate, ingest_csv, season_from_date, write_csv
from losanova.synth import reference_cohort_spec


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_age_binning_boundaries():
    assert bin_age(1) == "1"
    assert bin_age(10) == "1"
    assert bin_age(11) == "2"
    assert bin_age(25) == "2"
    assert bin_age(26) == "3"
    assert bin_age(40) == "3"
    assert bin_age(41) == "4"
    assert bin_age(60) == "4"
    assert bin_age(61) == "5"
    assert bin_age(99) == "5"
    with pytest.raises(ValidationError, match="below 1"):
        bin_age(0)


def test_ingest_with_age_column(tmp_path):
    path = _write(
        tmp_path,
        "gender,season,age,los\n"
        "male,spring,10,3.5\n"
        "female,winter,61,12\n",
    )
    d = ingest_csv(path)
    assert d.n == 2
    assert d.layout.cell_names(d.level_matrix[0]) == ("male", "spring", "1")
    assert d.layout.cell_names(d.level_matrix[1]) == ("female", "winter", "5")


def test_ingest_normalizes_case_and_spaces(tmp_path):
    path = _write(
        tmp_path,
        "Gender,SEASON,age_group,LOS\n"
        "  Male ,  SPRING , 3 , 4.25\n",
    )
    d = ingest_csv(path)
    assert d.layout.cell_names(d.level_matrix[0]) == ("male", "spring", "3")
    assert d.responses[0] == 4.25


def test_ingest_errors_carry_line_numbers(tmp_path):
    bad_los = _write(
        tmp_path,
        "gender,season,age_group,los\nmale,spring,3,2.0\nmale,spring,3,0\n",
        "bad_los.csv",
    )
    with pytest.raises(ValidationError, match=r":3:.*los"):
        ingest_csv(bad_los)

    bad_season = _write(
        tmp_path, "gender,season,age_group,los\nmale,monsoon,3,2.0\n", "bad_season.csv"
    )
    with pytest.raises(ValidationError, match=r":2:.*monsoon"):
        ingest_csv(bad_season)

    bad_age = _write(
        tmp_path, "gender,season,age,los\nmale,spring,zero,2.0\n", "bad_age.csv"
    )
    with pytest.raises(ValidationError, match=r":2:.*age"):
        ingest_csv(bad_age)

    infant = _write(
        tmp_path, "gender,season,age,los\nmale,spring,0,2.0\n", "infant.csv"
    )
    with pytest.raises(ValidationError, match=r":2:"):
        ingest_csv(infant)


def test_ingest_schema_guards(tmp_path):
    with pytest.raises(ValidationError, match="missing required column"):
        ingest_csv(_write(tmp_path, "gender,age_group,los\nmale,1,2\n", "no_season.csv"))
    with pytest.raises(ValidationError, match="exactly one"):
        ingest_csv(_write(
            tmp_path,
            "gender,season,age,age_group,los\nmale,spring,9,1,2\n",
            "both_age.csv",
        ))
    with pytest.raises(ValidationError, match="exactly one"):
        ingest_csv(_write(tmp_path, "gender,season,los\nmale,spring,2\n", "no_age.csv"))
    with pytest.raises(ValidationError, match="empty"):
        ingest_csv(_write(tmp_path, "", "empty.csv"))
    with pytest.raises(ValidationError, match="no data rows"):
        ingest_csv(_write(tmp_path, "gender,season,age_group,los\n", "headers.csv"))


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_csv(tmp_path / "absent.csv")


def test_id_column_ignored(tmp_path):
    path = _write(
        tmp_path,
        "id,gender,season,age_group,los\n17,male,summer,2,5.5\n",
    )
    d = ingest_csv(path)
    assert d.n == 1
    assert d.responses[0] == 5.5


def test_synth_round_trip(tmp_path):
    original = generate(reference_cohort_spec(n=500, seed=7))
    path = tmp_path / "cohort.csv"
    write_csv(original, path)
    restored = ingest_csv(path)
    assert restored.layout == original.layout
    assert np.array_equal(restored.codes, original.codes)
    assert np.array_equal(restored.responses, original.responses)
    assert restored.response_name == original.response_name


def test_season_from_date():
    assert season_from_date("2024-03-01") == "spring"
    assert season_from_date("2024-07-15") == "summer"
    assert season_from_date("2024-10-09") == "autumn"
    assert season_from_date("2024-01-20") == "winter"
    assert season_from_date("2024-12-31") == "winter"
    with pytest.raises(ValidationError, match="date"):
        season_from_date("not-a-date")


def test_ingest_season_from_date_flag(tmp_path):
    path = _write(
        tmp_path,
        "gender,date,age_group,los\nmale,2024-06-05,4,2.5\n",
        "dated.csv",
    )
    d = ingest_csv(path, use_date_season=True)
    assert d.layout.cell_names(d.level_matrix[0]) == ("male", "summer", "4")
    with pytest.raises(ValidationError, match="date"):
        ingest_csv(path)  # without the flag, a season column is required


_HEADER = "gender,season,age_group,los\n"


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-inf"])
def test_ingest_non_finite_los_carries_path_and_line(tmp_path, value):
    path = _write(tmp_path, _HEADER + f"male,spring,3,2.0\nmale,spring,3,{value}\n")
    with pytest.raises(ValidationError, match=r"data\.csv:3: los must be a finite") as info:
        ingest_csv(path)
    assert str(info.value).endswith(f"got {value}")


@pytest.mark.parametrize(
    "line2, line4, expected",
    [
        ("male,spring,3,-1", "robot,spring,3,2.0", r":2: los must be > 0"),
        ("robot,spring,3,2.0", "male,spring,3,-1", r":2: unknown gender 'robot'"),
        ("male,spring,9,2.0", "male,spring,3,x", r":2: unknown age_group '9' \(1-5\)"),
        ("male,spring,3,x", "male,monsoon,3,2.0", r":2: unparseable los 'x'"),
        ("male,spring,3", "male,monsoon,3,2.0", r":2: expected 4 fields, got 3"),
        ("male,monsoon,3,2.0", "male,spring,3", r":2: unknown season 'monsoon'"),
    ],
)
def test_ingest_reports_the_first_bad_line(tmp_path, line2, line4, expected):
    path = _write(tmp_path, _HEADER + f"{line2}\nfemale,winter,5,1.5\n{line4}\n")
    with pytest.raises(ValidationError, match=expected):
        ingest_csv(path)


def test_ingest_reports_first_bad_field_within_a_row(tmp_path):
    path = _write(tmp_path, _HEADER + "male,spring,3,2.0\nrobot,monsoon,9,-4\n")
    with pytest.raises(ValidationError, match=r":3: unknown gender 'robot' \(male/female\)$"):
        ingest_csv(path)
    path = _write(tmp_path, _HEADER + "male,monsoon,9,-4\n", "season_first.csv")
    with pytest.raises(ValidationError, match=r":2: unknown season 'monsoon' "
                       r"\(spring/summer/autumn/winter\)$"):
        ingest_csv(path)


def test_ingest_numbers_multiline_records_by_their_last_line(tmp_path):
    # the quoted id of the first record spans lines 2-4
    text = 'id,gender,season,age_group,los\n"a\nb\nc",male,spring,3,2.0\n7,male,summer,2,0\n'
    with pytest.raises(ValidationError, match=r":5: los must be > 0"):
        ingest_csv(_write(tmp_path, text))
    # a bad record whose quoted field spans lines 2-3
    text = 'id,gender,season,age_group,los\n"a\nb",male,summer,2,0\n'
    with pytest.raises(ValidationError, match=r":3: los must be > 0"):
        ingest_csv(_write(tmp_path, text, "spanning.csv"))


def test_ingest_skips_blank_rows(tmp_path):
    text = _HEADER + "\nmale,spring,3,2.0\n,,,\n  , ,\t,\nfemale,winter,5,4.0\n\n"
    d = ingest_csv(_write(tmp_path, text))
    assert d.n == 2
    assert d.responses.tolist() == [2.0, 4.0]
    with pytest.raises(ValidationError, match=r":5: unknown gender 'x'"):
        ingest_csv(_write(tmp_path, _HEADER + "\n,,,\nmale,spring,3,2.0\nx,spring,3,2.0\n",
                          "blank_then_bad.csv"))
    with pytest.raises(ValidationError, match="no data rows"):
        ingest_csv(_write(tmp_path, _HEADER + ",,,\n\n", "only_blank.csv"))


def test_ingest_age_and_date_paths_report_line(tmp_path):
    ages = "gender,season,age,los\nmale,spring,30,2.0\nmale,spring,-3,2.0\nmale,spring,x,2.0\n"
    with pytest.raises(ValidationError, match=r"ages\.csv:3: age -3 is below 1"):
        ingest_csv(_write(tmp_path, ages, "ages.csv"))
    dates = ("gender,date,age_group,los\nmale,2024-06-05,4,2.5\n"
             "male,2024-13-01,4,2.5\nmale,2024-02-01,4,-1\n")
    with pytest.raises(ValidationError, match=r"dates\.csv:3: cannot parse date '2024-13-01'"):
        ingest_csv(_write(tmp_path, dates, "dates.csv"), use_date_season=True)


def test_ingest_codes_each_column(tmp_path):
    path = _write(
        tmp_path,
        "gender,date,age,los\n"
        "female,2024-01-20,5,1.25\n"
        "MALE,2024-07-15,61,3\n"
        "female,2024-01-20,5,7.5\n",
    )
    d = ingest_csv(path, use_date_season=True)
    names = [d.layout.cell_names(cell) for cell in d.level_matrix.tolist()]
    assert names == [("female", "winter", "1"), ("male", "summer", "5"),
                     ("female", "winter", "1")]
    assert d.responses.tolist() == [1.25, 3.0, 7.5]
    cells = list(d.layout.cells())
    assert [cells[c] for c in d.codes.tolist()] == [tuple(r) for r in d.level_matrix.tolist()]


def test_ingest_keeps_order_and_first_bad_line(tmp_path):
    rows = list(zip(["male", "female"] * 4, ["spring", "winter"] * 4, "12345123",
                    [1.5, 2.0, 3.25, 4.0, 5.0, 6.5, 7.0, 8.0]))
    text = _HEADER + "".join(f"{g},{s},{a},{los}\n" for g, s, a, los in rows)
    d = ingest_csv(_write(tmp_path, text))
    assert [d.layout.cell_names(cell) for cell in d.level_matrix.tolist()] == [
        (g, s, a) for g, s, a, _ in rows]
    assert d.responses.tolist() == [los for *_, los in rows]
    # line 6 is bad; lines 8 and 9 are later in the file
    bad = _HEADER + "male,spring,1,1.0\n" * 4 + "male,spring,1,-2\n" + (
        "male,spring,1,1.0\nrobot,spring,1,1.0\nmale,spring\n")
    with pytest.raises(ValidationError, match=r":6: los must be > 0"):
        ingest_csv(_write(tmp_path, bad, "bad_line.csv"))
    # a short record, the file's last but one, comes before a bad gender
    misfit = _HEADER + "male,spring,1,1.0\n" * 4 + "male,spring\nrobot,spring,1,1.0\n"
    with pytest.raises(ValidationError, match=r":6: expected 4 fields, got 2"):
        ingest_csv(_write(tmp_path, misfit, "misfit.csv"))


# --- traps between numpy's reader and csv.reader ------------------------------

def _message(path, **kwargs):
    with pytest.raises(ValidationError) as info:
        ingest_csv(path, **kwargs)
    return str(info.value)


def test_ingest_hash_is_not_a_comment(tmp_path):
    path = _write(tmp_path, _HEADER + "male,spring,3,2.0\n#male,spring,3,2.0\n")
    assert _message(path) == f"{path}:3: unknown gender '#male' (male/female)"
    d = ingest_csv(_write(tmp_path, "id,gender,season,age_group,los\n#1,male,spring,3,2.0\n",
                          "hash_id.csv"))
    assert d.responses.tolist() == [2.0]


def test_ingest_padded_values_wider_than_a_key(tmp_path):
    text = ("gender,season,age,los\n"
            "   female   ,\tWINTER\t\t\t,     61     ,   2.5   \n"
            '"   male   ","  spring  ",     7,1\n')
    d = ingest_csv(_write(tmp_path, text))
    assert [d.layout.cell_names(c) for c in d.level_matrix.tolist()] == [
        ("female", "winter", "5"), ("male", "spring", "1")]
    assert d.responses.tolist() == [2.5, 1.0]
    dated = ingest_csv(_write(tmp_path, "gender,date,age_group,los\n"
                              "male,     2024-06-05       ,4,2.5\n", "dated.csv"),
                       use_date_season=True)
    assert dated.layout.cell_names(dated.level_matrix[0]) == ("male", "summer", "4")


def test_ingest_value_that_fills_or_overflows_a_key(tmp_path):
    for value in ("femalexy", "femalexyz"):
        path = _write(tmp_path, _HEADER + f"male,spring,3,2.0\n{value},spring,3,2.0\n")
        assert _message(path) == f"{path}:3: unknown gender {value!r} (male/female)"


def test_ingest_trailing_nul_is_kept(tmp_path):
    path = _write(tmp_path, _HEADER + "male\0,spring,3,2.0\n")
    assert _message(path) == f"{path}:2: unknown gender 'male\\x00' (male/female)"


def test_ingest_extra_field_is_counted(tmp_path):
    path = _write(tmp_path, _HEADER + "male,spring,3,2.0\nmale,spring,3,2.0,9\n")
    assert _message(path) == f"{path}:3: expected 4 fields, got 5"


def test_ingest_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (_HEADER + "male,spring,3,2.0\r\n"
                                          "female,winter,1,3.5\r\n").encode())
    d = ingest_csv(path)
    assert d.responses.tolist() == [2.0, 3.5]
    path.write_bytes(b"\xef\xbb\xbf" + (_HEADER + "male,spring,3,2.0\nmale,x,3,2.0\n").encode())
    assert _message(path) == f"{path}:3: unknown season 'x' (spring/summer/autumn/winter)"


def test_ingest_header_spanning_lines(tmp_path):
    text = 'id,"gender\n",season,age_group,los\n"1",male,spring,3,2.0\n2,male,x,3,2.0\n'
    path = _write(tmp_path, text)
    assert _message(path) == f"{path}:4: unknown season 'x' (spring/summer/autumn/winter)"
    d = ingest_csv(_write(tmp_path, text.replace(",x,", ",winter,"), "ok.csv"))
    assert d.responses.tolist() == [2.0, 2.0]


def test_ingest_blank_and_whitespace_only_rows(tmp_path):
    text = _HEADER + "\n   \nmale,spring,3,2.0\r\n\t\r\n , , , \n\"\"\nfemale,winter,5,4.0"
    d = ingest_csv(_write(tmp_path, text))
    assert d.responses.tolist() == [2.0, 4.0]
    path = _write(tmp_path, _HEADER + "   \n\t\n", "blank.csv")
    assert _message(path) == f"{path}: no data rows"


def test_ingest_quoted_newlines_escapes_and_commas(tmp_path):
    text = ('id,gender,season,age_group,los\n'
            '"a,""b""\nc",male,"spring\n",3,2.0\n'
            '"x\r\ny",FEMALE,"""winter""",1,1.0\n')
    path = _write(tmp_path, text)
    assert _message(path) == (f"{path}:6: unknown season " + repr('"winter"')
                              + " (spring/summer/autumn/winter)")
    d = ingest_csv(_write(tmp_path, text.replace('"""winter"""', '" winter\n"'), "ok.csv"))
    assert [d.layout.cell_names(c) for c in d.level_matrix.tolist()] == [
        ("male", "spring", "3"), ("female", "winter", "1")]
    path = _write(tmp_path, _HEADER + '"ma\nle",spring,3,2.0\n', "split.csv")
    assert _message(path) == f"{path}:3: unknown gender 'ma\\nle' (male/female)"
    path = _write(tmp_path, _HEADER + '"male,",spring,3,2.0\n', "comma.csv")
    assert _message(path) == f"{path}:2: unknown gender 'male,' (male/female)"


def test_ingest_los_as_python_float_reads_it(tmp_path):
    d = ingest_csv(_write(tmp_path, _HEADER + "male,spring,3,1_000\nmale,spring,3,\u0661\u0662\n"))
    assert d.responses.tolist() == [1000.0, 12.0]


@pytest.mark.parametrize("value, message", [
    (" inf", "los must be a finite number of days, got inf"),
    ("1e-400", "los must be > 0 days, got 1e-400"),
    ("-0", "los must be > 0 days, got -0"),
    ("0x10", "unparseable los '0x10'"),
])
def test_ingest_los_messages(tmp_path, value, message):
    path = _write(tmp_path, _HEADER + f"male,spring,3,2.0\nmale,spring,3,{value}\n")
    assert _message(path) == f"{path}:3: {message}"


def test_ingest_header_only_gives_no_warning(tmp_path):
    path = _write(tmp_path, _HEADER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _message(path) == f"{path}: no data rows"


def test_ingest_many_ages_and_dates(tmp_path):
    ages = list(range(1, 100))
    days = [datetime.date(2023, 1, 1) + datetime.timedelta(days=7 * i) for i in range(99)]
    text = "id,gender,date,age,los\n" + "".join(
        f"{i},{'male' if i % 3 else 'Female'},{day.isoformat()},{age},{i + 0.5}\n"
        for i, (age, day) in enumerate(zip(ages, days)))
    d = ingest_csv(_write(tmp_path, text), use_date_season=True)
    groups = [bin_age(age) for age in ages]
    seasons = [season_from_date(day.isoformat()) for day in days]
    assert [d.layout.cell_names(c) for c in d.level_matrix.tolist()] == [
        ("male" if i % 3 else "female", seasons[i], groups[i]) for i in range(99)]
    assert d.responses.tolist() == [i + 0.5 for i in range(99)]


# --- differential oracle: ingest_csv against a plain csv.reader reading -----

_LEVELS = {
    "gender": ("male", "female"),
    "season": ("spring", "summer", "autumn", "winter"),
    "age_group": ("1", "2", "3", "4", "5"),
}
_SEASON_OF_MONTH = {month: season for months, season in (
    ((3, 4, 5), "spring"), ((6, 7, 8), "summer"), ((9, 10, 11), "autumn"), ((12, 1, 2), "winter"),
) for month in months}


def _reference_ingest(path, use_date_season):
    """The ingest contract read one csv.reader record at a time: the flat cell
    codes and los values, or the error message."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [name.strip().lower() for name in next(reader)]
        col = {name: i for i, name in enumerate(header)}
        codes, responses = [], []
        for record in reader:
            if not any(field.strip() for field in record):
                continue
            at = f"{path}:{reader.line_num}: "
            if len(record) != len(header):
                return at + f"expected {len(header)} fields, got {len(record)}"
            gender = record[col["gender"]].strip().lower()
            if gender not in _LEVELS["gender"]:
                return at + f"unknown gender {gender!r} (male/female)"
            if use_date_season:
                raw = record[col["date"]]
                try:
                    season = _SEASON_OF_MONTH[datetime.date.fromisoformat(raw.strip()).month]
                except ValueError:
                    return at + f"cannot parse date {raw!r} (expected YYYY-MM-DD)"
            else:
                season = record[col["season"]].strip().lower()
                if season not in _LEVELS["season"]:
                    return at + f"unknown season {season!r} (spring/summer/autumn/winter)"
            if "age" in col:
                raw = record[col["age"]].strip().lower()
                try:
                    age = int(raw)
                except ValueError:
                    return at + f"unparseable age {raw!r}"
                if age < 1:
                    return at + f"age {age} is below 1; the first age group starts at 1"
                group = str(1 + sum(age > top for top in (10, 25, 40, 60)))
            else:
                group = record[col["age_group"]].strip().lower()
                if group not in _LEVELS["age_group"]:
                    return at + f"unknown age_group {group!r} (1-5)"
            raw = record[col["los"]].strip()
            try:
                los = float(raw)
            except ValueError:
                return at + f"unparseable los {raw!r}"
            if not math.isfinite(los):
                return at + f"los must be a finite number of days, got {raw}"
            if los <= 0:
                return at + f"los must be > 0 days, got {raw}"
            levels = [_LEVELS["gender"].index(gender), _LEVELS["season"].index(season),
                      _LEVELS["age_group"].index(group)]
            codes.append((levels[0] * 4 + levels[1]) * 5 + levels[2])
            responses.append(los)
    if not codes:
        return f"{path}: no data rows"
    return codes, responses


_VALID = {
    "gender": st.sampled_from(_LEVELS["gender"]),
    "season": st.sampled_from(_LEVELS["season"]),
    "age_group": st.sampled_from(_LEVELS["age_group"]),
    "age": st.integers(1, 99).map(str),
    "date": st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 12, 31)).map(str),
    "los": st.one_of(st.floats(1e-3, 1e4).map(repr), st.integers(1, 400).map(str)),
    "id": st.text(st.sampled_from('ab1#, "\n\r'), max_size=6),
}
# spellings Python's float takes and numpy's parser does not, or not alike
_ODD_LOS = ["1_000", "\u0661\u0662", "+3", "4.", ".5", "1e2", "7E-1", " 2 "]
_BAD = {
    "gender": ["robot", "", "#male", "fe male", "femalexyz", "male,", 'ma"le', "male\n2",
               "male\0", "male    x"],
    "season": ["monsoon", "", "spring!", "sprin\ng", "winterxyz"],
    "age_group": ["0", "6", "x", "1.0", "", "1       x"],
    "age": ["0", "-3", "x", "1.5", "", "1e2"],
    "date": ["2024-13-01", "x", "", "2024/01/01", "2024-01-01      x"],
    "los": ["0", "-1", "nan", " inf", "1e400", "x", "", "-0", "1e-400", "0x10"],
}
# rows csv.reader yields with no non-blank field; numpy skips only the first
_BLANK_ROWS = ["", "", "", "   ", "\t", ",,,", " , ,", '""']


@st.composite
def _dressed(draw, value, padding):
    """A field spelling of ``value``: its case and padding (up to ``padding``
    blanks a side) varied, quoted whenever it must be and sometimes when it
    need not."""
    value = draw(st.sampled_from([value, value.upper(), value.title()]))
    pad = st.text(st.sampled_from(" \t\u00a0"), max_size=padding)
    value = draw(pad) + value + draw(pad)
    if any(c in value for c in ',"\r\n') or draw(st.booleans()):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def _cohort_csv(draw):
    """A cohort CSV, its id, age and date columns and its blank rows drawn,
    with at most one bad field; and whether season comes from the date."""
    use_date_season = draw(st.booleans())
    columns = ["gender", "date" if use_date_season else "season",
               draw(st.sampled_from(["age", "age_group"])), "los"]
    if draw(st.booleans()):
        columns.append("id")
    columns = draw(st.permutations(columns))
    rows = [[draw(_VALID[c]) for c in columns] for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 3]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_BLANK_ROWS)))
    data = [row for row in rows if isinstance(row, list)]
    fault = draw(st.sampled_from([None] * 5 + ["odd", "short", "long", "field"]))
    if data and fault:
        row = draw(st.sampled_from(data))
        if fault == "odd":
            row[columns.index("los")] = draw(st.sampled_from(_ODD_LOS))
        elif fault == "short":
            row.pop()
        elif fault == "long":
            row.append(draw(_VALID["los"]))
        else:
            column = draw(st.sampled_from([c for c in columns if c != "id"]))
            row[columns.index(column)] = draw(st.sampled_from(_BAD[column]))
    padding = draw(st.sampled_from([0, 0, 0, 1, 6]))
    lines = [",".join(draw(_dressed(name, padding)) for name in columns)] + [
        row if isinstance(row, str) else ",".join(draw(_dressed(v, padding)) for v in row)
        for row in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, use_date_season


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_cohort_csv())
def test_ingest_matches_a_plain_csv_reader(tmp_path_factory, case):
    text, use_date_season = case
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _reference_ingest(path, use_date_season)
    try:
        d = ingest_csv(path, use_date_season=use_date_season)
    except ValidationError as exc:
        assert str(exc) == expected
        return
    codes, responses = expected
    assert d.codes.tolist() == codes
    assert d.responses.view(np.uint64).tolist() == np.array(responses).view(np.uint64).tolist()
