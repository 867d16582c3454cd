"""CSV ingestion and emission for the length-of-stay schema.

Input files are UTF-8, comma-separated, with a header row. Expected columns:
``gender`` (male/female), ``season`` (spring/summer/autumn/winter), exactly
one of ``age`` (integer years, >= 1) or ``age_group`` (1-5), and ``los``
(positive days). An ``id`` column is carried along but ignored analytically.
Header names and level values are normalized by trimming and lowercasing.

A bad row aborts the run with its line number rather than being skipped:
silently dropping rows would bias the cell counts the whole unbalanced
analysis depends on.

Rows are read by numpy's C reader (``np.loadtxt``). A file it cannot vouch
for (a bad row, a value too wide for its byte column, a spelling numpy and
Python's ``float`` disagree on) is read again by one sequential
``csv.reader`` pass, the only code that numbers lines. The two readers give
identical results.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import itertools
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .model import Dataset
from .synth import default_layout

# byte width of each factor column in the numpy read: a value that fills it
# may have been cut short, and sends the file to the sequential reader
_WIDTHS = {"gender": 8, "season": 8, "age_group": 8, "age": 8, "date": 16}

# a factor's column, the parser of its raw values and its level names
_Parser = tuple[str, Callable[[str], str], Sequence[str]]

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


def _los(value: str) -> float:
    raw_los = value.strip()
    try:
        los = float(raw_los)
    except ValueError:
        raise ValidationError(f"unparseable los {raw_los!r}") from None
    if not math.isfinite(los):
        raise ValidationError(f"los must be a finite number of days, got {raw_los}")
    if los <= 0:
        raise ValidationError(f"los must be > 0 days, got {raw_los}")
    return los


def ingest_csv(path: str | Path, use_date_season: bool = False) -> Dataset:
    """Read a cohort CSV into a Dataset on the raw (days) scale.

    Every error message carries the path and the 1-based file line number of
    the offending row; the header is line 1, and a record whose quoted field
    spans lines is numbered by its last line. When several rows are bad, the
    first one in the file is reported, and within a row the first bad field
    in the order: field count, gender, season (or date), age (or age_group),
    los. Blank rows are skipped. A file that ends inside a quoted field was
    cut off, and is rejected at its last line.

    Rows are read by numpy's C parser and each distinct factor value is
    validated once. A file that reader cannot vouch for is read again by one
    sequential ``csv.reader`` pass, which gives an identical Dataset or the
    error message. A file that is not UTF-8 text fails with a
    ``ValidationError`` naming its path.
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
        # numpy skips one line as the header, and warns on a file without rows
        fast = reader.line_num == 1 and any(reader)

    genders, seasons, groups = (levels for _, levels in layout.factors)
    # the column, the parser and the levels of each factor, in layout order
    parsers = [
        ("gender", _level_parser("gender", genders, "/".join(genders)), genders),
        ("date", season_from_date, seasons) if use_date_season
        else ("season", _level_parser("season", seasons, "/".join(seasons)), seasons),
        ("age", _age_group, groups) if has_age
        else ("age_group", _level_parser("age_group", groups, f"{groups[0]}-{groups[-1]}"),
              groups),
    ]
    columns = _read_fast(path, header, parsers) if fast else None
    if columns is None:
        columns = _read_sequential(path, header, parsers)
    levels, los = columns
    if not los.size:
        raise ValidationError(f"{path}: no data rows")
    return Dataset(layout, np.ravel_multi_index(levels, layout.shape), los, response_name="los")


def _read_fast(
    path: Path, header: list[str], parsers: list[_Parser]
) -> tuple[list[np.ndarray], np.ndarray] | None:
    """Each factor's level indices and the los values, read by numpy's C
    parser; None when only the sequential reader can tell the result."""
    data = path.read_bytes()
    if b"\0" in data:
        return None  # numpy drops trailing NULs from byte fields
    if _may_end_in_quotes(data):
        return None  # numpy closes a quoted field the file cuts off
    del data  # numpy reads the file itself
    widths = {column: _WIDTHS[column] for column, _, _ in parsers}
    # every column gets a field, so loadtxt rejects a row with a field too
    # many (usecols would let it pass); fields are named by position
    kinds = {"los": "f8", **{column: f"S{width}" for column, width in widths.items()}}
    dtype = [(f"f{i}", kinds.get(name, "U1")) for i, name in enumerate(header)]
    cols = {name: f"f{i}" for i, name in enumerate(header)}
    try:
        rows = np.loadtxt(path, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          skiprows=1, encoding="utf-8-sig", ndmin=1)
    except ValueError:
        return None
    los = rows[cols["los"]]
    if not ((los > 0) & (los < math.inf)).all():
        return None
    levels = []
    for column, parse, names in parsers:
        width = widths[column]
        values = rows[cols[column]]
        keys, inverse = np.unique(
            values.view(np.uint64) if width == 8 else values, return_inverse=True
        )
        lookup = []
        for key in keys.view(f"S{width}").tolist():
            if len(key) == width:
                return None  # the value may have been cut short
            try:
                lookup.append(names.index(parse(key.decode("latin-1"))))
            except ValidationError:
                return None
        levels.append(np.array(lookup, dtype=np.intp)[inverse])
    return levels, los


def _may_end_in_quotes(data: bytes) -> bool:
    """Whether a file may end inside a quoted field.

    The quotes after a field's opening quote come in escaped pairs until
    one closes it, so the opening quote of a field left open starts the
    file's last run of an odd number of quotes, right after a comma or a
    line break. A closing quote there (a quoted value ending in a comma or
    a line break) is a false alarm, which costs only the sequential read.
    """
    if b'"' not in data:
        return False
    at = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord('"'))
    starts = np.flatnonzero(np.diff(at, prepend=-2) != 1)
    odd = starts[np.diff(starts, append=at.size) % 2 == 1]
    if not odd.size:
        return False
    first = int(at[odd[-1]])
    return first == 0 or data[first - 1] in b",\r\n"


def _read_sequential(
    path: Path, header: list[str], parsers: list[_Parser]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each factor's level indices and the los values, read row by row;
    raises for the first bad row, naming its line."""
    cols = {name: i for i, name in enumerate(header)}
    fields = [cols[column] for column, _, _ in parsers]
    seen = [{} for _ in parsers]  # raw value -> level index, per factor
    levels = [[] for _ in parsers]
    los = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        lines = sum(1 for _ in fh)  # a file that is not UTF-8 fails before any row
        fh.seek(0)
        # a record still inside a quoted field at the end of the file takes
        # in the line break chained after it, and so ends past the last line
        reader = csv.reader(itertools.chain(fh, ["\n"]))
        next(reader)
        for record in reader:
            if record and reader.line_num > lines:
                raise ValidationError(f"{path}:{lines}: file ends inside a quoted field")
            if not "".join(record).strip():
                continue
            if len(record) != len(header):
                raise ValidationError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, "
                    f"got {len(record)}"
                )
            try:
                for field, (_, parse, names), cache, codes in zip(fields, parsers, seen, levels):
                    value = record[field]
                    if value not in cache:
                        cache[value] = names.index(parse(value))
                    codes.append(cache[value])
                los.append(_los(record[cols["los"]]))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    return [np.array(codes, dtype=np.intp) for codes in levels], np.array(los)


def write_csv(d: Dataset, path: str | Path) -> None:
    """Emit a dataset in the ingestion schema; responses round-trip exactly.

    Each cell's quoted level fields are formatted once by ``csv.writer``;
    a row is its cell's fields and ``repr`` of its response, which never
    needs quoting.
    """
    layout = d.layout
    prefixes = [_csv_row([*layout.cell_names(cell), ""])[:-2] for cell in layout.cells()]
    rows = zip(map(prefixes.__getitem__, d.codes.tolist()), d.responses.tolist())
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_row([*layout.names, d.response_name]))
        fh.write("".join([f"{prefix}{los!r}\r\n" for prefix, los in rows]))


def _csv_row(fields: list[str]) -> str:
    """One record as ``csv.writer`` writes it, ending in its ``\\r\\n``."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()
