"""Text formats: complex numbers, matrix files, spec strings, fidelity-record
files.

Complex entries are written `a+bi` with e-notation reals (`-1.5e-03+2i`);
the parser is tolerant of surrounding whitespace and of bare reals. A
matrix file is one or more blocks, each a header line `dim <rows> <cols>`
(sizes are integers >= 1) followed by that many rows of whitespace-separated
entries. The columns of a records file are the fields of `FidelityRecord`.
All writes go through a temp file + rename so partial output never lands.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, get_type_hints

import numpy as np


def parse_complex(token: str) -> complex:
    token = token.strip()
    if not token:
        raise ValueError("empty complex token")
    try:
        return complex(token.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"bad complex token {token!r}") from exc


def read_matrices(path: str) -> list[np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    mats = []
    pos = 0
    while pos < len(lines):
        header = lines[pos].split()
        if len(header) != 3 or header[0] != "dim":
            raise ValueError(f"{path}: expected `dim <r> <c>` header, got {lines[pos]!r}")
        if not all(size.isdecimal() and int(size) >= 1 for size in header[1:]):
            raise ValueError(f"{path}: matrix sizes must be integers >= 1, "
                             f"got {lines[pos]!r}")
        rows, cols = int(header[1]), int(header[2])
        pos += 1
        if pos + rows > len(lines):
            raise ValueError(f"{path}: truncated matrix block ({rows} rows declared)")
        # Rows are read before the array is built, so a header's size
        # allocates nothing that the file's rows do not hold.
        block = []
        for r in range(rows):
            tokens = lines[pos + r].split()
            if len(tokens) != cols:
                raise ValueError(
                    f"{path}: row {r} has {len(tokens)} entries, header says {cols}"
                )
            block.append([parse_complex(t) for t in tokens])
            if not np.all(np.isfinite(block[r])):
                raise ValueError(f"{path}: row {r} has a non-finite entry")
        mats.append(np.array(block, dtype=np.complex128))
        pos += rows
    if not mats:
        raise ValueError(f"{path}: no matrix blocks found")
    return mats


def read_matrix(path: str) -> np.ndarray:
    mats = read_matrices(path)
    if len(mats) != 1:
        raise ValueError(f"{path}: expected a single matrix, found {len(mats)}")
    return mats[0]


class SpecEntry(NamedTuple):
    """A spec name's keys and `build` function; `dims` is a gate-set
    family's (d, n) and `minima` the least value of each int key."""

    keys: dict[str, type] | None  # key -> int, float or str; None: body is a path
    build: Callable
    dims: Callable[..., tuple[int, int]] | None = None
    minima: dict[str, int] | None = None


def parse_spec(spec: str, table: dict[str, SpecEntry], what: str) -> tuple[str, dict]:
    """Name and typed keyword arguments of a `name:key=value,...` spec,
    checked against `table[name].keys` and, for int keys, against
    `table[name].minima`; a path body is given back as `path`. A missing
    key is reported before any other fault."""
    name, _, body = (part.strip() for part in spec.strip().partition(":"))
    name, ref = name.lower(), f"{what} spec {spec!r}"
    if name not in table:
        raise ValueError(f"{ref} has unknown name {name!r} (known: {', '.join(table)})")
    keys, minima = table[name].keys, table[name].minima or {}
    if keys is None:
        if not body:
            raise ValueError(f"{ref} is missing its file path")
        return name, {"path": body}
    pairs = [(key.strip(), value.strip()) for key, _, value in
             (chunk.partition("=") for chunk in body.split(","))] if body else []
    given = [key for key, _ in pairs]
    problems = ([f"is missing key {key!r}" for key in keys if key not in given]
                + [f"has unknown key {key!r}" for key in given if key not in keys]
                + [f"repeats key {key!r}" for key in given if given.count(key) > 1])
    if problems:
        raise ValueError(f"{ref} {problems[0]}")
    kwargs = {}
    for key, value in pairs:
        try:
            kwargs[key] = keys[key](value)
            valid = keys[key] is not float or math.isfinite(kwargs[key])
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"{ref}: bad {keys[key].__name__} for key {key!r}: {value!r}")
        if keys[key] is int and kwargs[key] < minima[key]:
            raise ValueError(f"{ref}: key {key!r} must be >= {minima[key]}, got {value!r}")
    return name, kwargs


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600 whatever the umask.
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class FidelityRecord:
    """One protocol execution: estimate at a given length and repetition.
    Its fields, in order, are the columns of a records file."""

    mode: str
    m: int
    repetition: int
    fidelity: float
    k: int
    seed_stream: str


_RECORD_TYPES = get_type_hints(FidelityRecord)
RECORD_FIELDS = tuple(_RECORD_TYPES)
_ACCEPTED = {str: (str,), int: (str, int), float: (str, int, float)}


def records_to_rows(records) -> list[dict]:
    return [{**asdict(r), "fidelity": repr(float(r.fidelity))} for r in records]


def write_records_csv(path: str, records, config: dict | None = None) -> None:
    buf = _io.StringIO()
    if config is not None:
        buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS)
    writer.writeheader()
    for row in records_to_rows(records):
        writer.writerow(row)
    atomic_write(path, buf.getvalue())


def write_records_json(path: str, records, config: dict | None = None) -> None:
    payload = {
        "format": "corb-records",
        "config": config,
        "records": [
            {**row, "fidelity": float(row["fidelity"])}
            for row in records_to_rows(records)
        ],
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_records(path: str) -> tuple[list[dict], dict | None]:
    """Load records as dicts plus the embedded config (None if absent).
    A value that does not convert to its column's type, or a fidelity that
    is not finite, is refused with the file and the row (counted from 1); a
    config that is not a JSON object is refused with the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        records = payload.get("records")
        if (payload.get("format") != "corb-records" or not isinstance(records, list)
                or not all(isinstance(row, dict) for row in records)):
            raise ValueError(f"{path}: not a corb records file")
        config = payload.get("config")
        columns = set(RECORD_FIELDS).intersection(*records)
    else:
        config = None
        lines = text.splitlines()
        body_start = 0
        for i, line in enumerate(lines):
            if line.startswith("# config "):
                try:
                    config = json.loads(line[len("# config "):])
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: config line is not valid JSON "
                                     f"({exc})") from None
            elif not line.startswith("#"):
                body_start = i
                break
        reader = csv.DictReader(lines[body_start:])
        records = list(reader)
        columns = reader.fieldnames or ()
    if config is not None and not isinstance(config, dict):
        raise ValueError(f"{path}: config is not a JSON object")
    for name in RECORD_FIELDS:
        if name not in columns:
            raise ValueError(f"{path}: not a corb records file (missing column {name!r})")
    out = []
    for number, row in enumerate(records, 1):
        record = {}
        for name, kind in _RECORD_TYPES.items():
            value = row[name]
            try:
                # A CSV cell is a string to convert; a JSON value must
                # already have a type the column accepts (a missing CSV cell
                # or a JSON null is None, which none does).
                if isinstance(value, bool) or not isinstance(value, _ACCEPTED[kind]):
                    raise ValueError
                record[name] = kind(value)
            except ValueError:
                raise ValueError(f"{path}: row {number}: bad {kind.__name__} "
                                 f"for {name!r}: {value!r}") from None
        if not math.isfinite(record["fidelity"]):
            raise ValueError(f"{path}: row {number}: fidelity {row['fidelity']!r} "
                             f"is not finite")
        out.append(record)
    return out, config
