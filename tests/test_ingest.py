"""CSV ingestion: schema validation, age binning, normalization, round trips."""

import numpy as np
import pytest

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


def test_ingest_blocks_keep_order_and_first_bad_line(tmp_path, monkeypatch):
    text = _HEADER + "".join(
        f"{g},{s},{a},{los}\n"
        for g, s, a, los in zip(["male", "female"] * 4, ["spring", "winter"] * 4,
                                "12345123", [1.5, 2.0, 3.25, 4.0, 5.0, 6.5, 7.0, 8.0])
    )
    whole = ingest_csv(_write(tmp_path, text))
    monkeypatch.setattr("losanova.ingest._BLOCK_ROWS", 3)
    blocked = ingest_csv(_write(tmp_path, text, "blocked.csv"))
    assert blocked.codes.tolist() == whole.codes.tolist()
    assert blocked.responses.tolist() == whole.responses.tolist()
    # line 6 is in the second block; lines 8 and 9 are later in the file
    bad = _HEADER + "male,spring,1,1.0\n" * 4 + "male,spring,1,-2\n" + (
        "male,spring,1,1.0\nrobot,spring,1,1.0\nmale,spring\n")
    with pytest.raises(ValidationError, match=r":6: los must be > 0"):
        ingest_csv(_write(tmp_path, bad, "bad_block.csv"))
    # a record with the wrong field count ends the file's last, partial block
    misfit = _HEADER + "male,spring,1,1.0\n" * 4 + "male,spring\nrobot,spring,1,1.0\n"
    with pytest.raises(ValidationError, match=r":6: expected 4 fields, got 2"):
        ingest_csv(_write(tmp_path, misfit, "misfit.csv"))
