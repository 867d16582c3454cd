"""CSV ingestion and emission for the length-of-stay schema.

Input files are UTF-8, comma-separated, with a header row. Expected columns:
``gender`` (male/female), ``season`` (spring/summer/autumn/winter), exactly
one of ``age`` (integer years, >= 1) or ``age_group`` (1-5), and ``los``
(positive days). An ``id`` column is carried along but ignored analytically.
Header names and level values are normalized by trimming and lowercasing.

A bad row aborts the run with its line number rather than being skipped:
silently dropping rows would bias the cell counts the whole unbalanced
analysis depends on.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .model import Dataset, FactorLayout
from .synth import default_layout

# rows coded per block in ingest_csv: enough to amortise the per-block
# work, few enough that the raw text of a block stays a few tens of MB
_BLOCK_ROWS = 1 << 16

# closed age-group bins; ages below 1 are rejected (undefined by the grouping)
_AGE_BINS = ((1, 10, "1"), (11, 25, "2"), (26, 40, "3"), (41, 60, "4"))


def bin_age(age: int) -> str:
    """Age in whole years to age-group label: 1-10, 11-25, 26-40, 41-60, >=61."""
    if age < 1:
        raise ValidationError(f"age {age} is below 1; the first age group starts at 1")
    for lo, hi, group in _AGE_BINS:
        if lo <= age <= hi:
            return group
    return "5"


def season_from_date(value: str) -> str:
    """Meteorological season (northern hemisphere) of an ISO date.

    Only an approximation of any particular admission calendar; enable it
    explicitly via ``use_date_season``.
    """
    try:
        month = _dt.date.fromisoformat(value.strip()).month
    except ValueError:
        raise ValidationError(f"cannot parse date {value!r} (expected YYYY-MM-DD)") from None
    if month in (3, 4, 5):
        return "spring"
    if month in (6, 7, 8):
        return "summer"
    if month in (9, 10, 11):
        return "autumn"
    return "winter"


def _norm(value: str) -> str:
    return value.strip().lower()


def _level_parser(factor: str, levels: Sequence[str], known: str) -> Callable[[str], str]:
    """Raw field -> normalized level name, rejecting names outside ``levels``."""

    def parse(value: str) -> str:
        name = _norm(value)
        if name not in levels:
            raise ValidationError(f"unknown {factor} {name!r} ({known})")
        return name

    return parse


def _age_group(value: str) -> str:
    raw_age = _norm(value)
    try:
        age = int(raw_age)
    except ValueError:
        raise ValidationError(f"unparseable age {raw_age!r}") from None
    return bin_age(age)


def _los_problem(value: str) -> str:
    raw_los = value.strip()
    try:
        los = float(raw_los)
    except ValueError:
        return f"unparseable los {raw_los!r}"
    if not math.isfinite(los):
        return f"los must be a finite number of days, got {raw_los}"
    return f"los must be > 0 days, got {raw_los}"


def _code_levels(
    values: Sequence[str], parse: Callable[[str], str], levels: Sequence[str]
) -> tuple[np.ndarray, dict[str, str]]:
    """Level index of each raw value, -1 where ``parse`` rejects it, and the
    reason for each rejected value. Each distinct value is parsed once."""
    index = {name: i for i, name in enumerate(levels)}
    lookup = {}
    problems = {}
    for value in set(values):
        try:
            lookup[value] = index[parse(value)]
        except ValidationError as exc:
            lookup[value] = -1
            problems[value] = str(exc)
    codes = np.fromiter(map(lookup.__getitem__, values), dtype=np.intp, count=len(values))
    return codes, problems


def _parse_floats(values: Sequence[str]) -> tuple[np.ndarray, int]:
    """``float`` of each value up to the first one it rejects, and that
    value's index (``len(values)`` when every value parses)."""
    try:
        return np.fromiter(map(float, values), dtype=float, count=len(values)), len(values)
    except ValueError:
        pass
    for stop, value in enumerate(values):
        try:
            float(value)
        except ValueError:
            break
    return np.fromiter(map(float, values[:stop]), dtype=float, count=stop), stop


def _code_records(
    records: list[list[str]],
    lines: list[int],
    cols: dict[str, int],
    parsers: list[tuple[str, Callable[[str], str]]],
    layout: FactorLayout,
    path: Path,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell codes and los values of a block of records with the header's
    field count; raises for the block's first bad row, naming its line."""

    def column(name: str) -> list[str]:
        return list(map(itemgetter(cols[name]), records))

    raw_los = column("los")
    los, n = _parse_floats(raw_los)
    if n < len(records):
        # an unparseable los: no later row can be reported before it
        los = np.append(los, math.nan)
        records = records[: n + 1]
    raw = [column(name) for name, _ in parsers]
    coded = [_code_levels(values, parse, levels)
             for values, (_, parse), (_, levels) in zip(raw, parsers, layout.factors)]
    bad = ~(np.isfinite(los) & (los > 0))
    for codes, _ in coded:
        bad |= codes < 0
    if bad.any():
        i = int(np.argmax(bad))
        for values, (codes, problems) in zip(raw, coded):
            if codes[i] < 0:
                problem = problems[values[i]]
                break
        else:
            problem = _los_problem(raw_los[i])
        raise ValidationError(f"{path}:{lines[i]}: {problem}")
    return np.ravel_multi_index([codes for codes, _ in coded], layout.shape), los


def ingest_csv(path: str | Path, use_date_season: bool = False) -> Dataset:
    """Read a cohort CSV into a Dataset on the raw (days) scale.

    Every error message carries the path and the 1-based file line number of
    the offending row; the header is line 1, and a record whose quoted field
    spans lines is numbered by its last line. When several rows are bad, the
    first one in the file is reported, and within a row the first bad field
    in the order: field count, gender, season (or date), age (or age_group),
    los. Blank rows are skipped.

    Records are coded column-wise in blocks of ``_BLOCK_ROWS``, so memory
    for the raw text stays bounded whatever the file's length. A file that is
    not UTF-8 text fails with a ``ValidationError`` naming its path.
    """
    path = Path(path)
    try:
        return _read_cohort(path, use_date_season)
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not valid UTF-8 text (undecodable byte "
            f"0x{exc.object[exc.start]:02x}); save it as UTF-8"
        ) from None


def _read_cohort(path: Path, use_date_season: bool) -> Dataset:
    layout = default_layout()
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [_norm(h) for h in raw_header]
        if len(set(header)) != len(header):
            raise ValidationError(f"{path}: duplicate column names in header")
        cols = {name: i for i, name in enumerate(header)}

        for required in ("gender", "los"):
            if required not in cols:
                raise ValidationError(f"{path}: missing required column {required!r}")
        has_age = "age" in cols
        has_group = "age_group" in cols
        if has_age == has_group:
            raise ValidationError(
                f"{path}: exactly one of 'age' or 'age_group' must be present"
            )
        if use_date_season:
            if "date" not in cols:
                raise ValidationError(f"{path}: season-from-date requires a 'date' column")
        elif "season" not in cols:
            raise ValidationError(f"{path}: missing required column 'season'")

        genders, seasons, groups = (levels for _, levels in layout.factors)
        # the column and the parser of each factor, in layout order
        parsers = [
            ("gender", _level_parser("gender", genders, "/".join(genders))),
            ("date", season_from_date) if use_date_season
            else ("season", _level_parser("season", seasons, "/".join(seasons))),
            ("age", _age_group) if has_age
            else ("age_group", _level_parser("age_group", groups, f"{groups[0]}-{groups[-1]}")),
        ]

        blocks = []

        def code(records: list[list[str]], lines: list[int]) -> None:
            blocks.append(_code_records(records, lines, cols, parsers, layout, path))

        records = []
        lines = []
        for record in reader:
            if not "".join(record).strip():
                continue
            if len(record) != len(header):
                code(records, lines)  # an earlier bad row is reported first
                raise ValidationError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, "
                    f"got {len(record)}"
                )
            records.append(record)
            lines.append(reader.line_num)
            if len(records) == _BLOCK_ROWS:
                code(records, lines)
                records = []
                lines = []
        code(records, lines)

    codes, los = (np.concatenate(column) for column in zip(*blocks))
    if not los.size:
        raise ValidationError(f"{path}: no data rows")
    return Dataset(layout, codes, los, response_name="los")


def write_csv(d: Dataset, path: str | Path) -> None:
    """Emit a dataset in the ingestion schema; responses round-trip exactly."""
    path = Path(path)
    names = [
        np.array(levels, dtype=object)[d.level_matrix[:, fi]].tolist()
        for fi, (_, levels) in enumerate(d.layout.factors)
    ]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*d.layout.names, d.response_name])
        writer.writerows(zip(*names, map(repr, d.responses.tolist())))
