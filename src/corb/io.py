"""Text formats: complex numbers, matrix files, spec bodies, fidelity-record
files.

Complex entries are written `a+bi` with e-notation reals (`-1.5e-03+2i`);
the parser is tolerant of surrounding whitespace and of bare reals. A
matrix file is one or more blocks, each a header line `dim <rows> <cols>`
followed by that many rows of whitespace-separated entries. All writes go
through a temp file + rename so partial output never lands.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile

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
        rows, cols = int(header[1]), int(header[2])
        pos += 1
        if pos + rows > len(lines):
            raise ValueError(f"{path}: truncated matrix block ({rows} rows declared)")
        m = np.zeros((rows, cols), dtype=np.complex128)
        for r in range(rows):
            tokens = lines[pos + r].split()
            if len(tokens) != cols:
                raise ValueError(
                    f"{path}: row {r} has {len(tokens)} entries, header says {cols}"
                )
            m[r] = [parse_complex(t) for t in tokens]
        mats.append(m)
        pos += rows
    if not mats:
        raise ValueError(f"{path}: no matrix blocks found")
    return mats


def read_matrix(path: str) -> np.ndarray:
    mats = read_matrices(path)
    if len(mats) != 1:
        raise ValueError(f"{path}: expected a single matrix, found {len(mats)}")
    return mats[0]


def parse_kv(body: str) -> dict[str, str]:
    """Body of a `name:key=value,key=value` spec as a dict of strings."""
    out = {}
    for chunk in body.split(","):
        if chunk:
            key, _, value = chunk.partition("=")
            out[key.strip()] = value.strip()
    return out


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


RECORD_FIELDS = ("mode", "m", "repetition", "fidelity", "k", "seed_stream")


def records_to_rows(records) -> list[dict]:
    return [
        {
            "mode": r.mode,
            "m": r.m,
            "repetition": r.repetition,
            "fidelity": repr(float(r.fidelity)),
            "k": r.k,
            "seed_stream": r.seed_stream,
        }
        for r in records
    ]


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
    """Load records as dicts plus the embedded config (None if absent)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        if payload.get("format") != "corb-records":
            raise ValueError(f"{path}: not a corb records file")
        records = payload["records"]
        config = payload.get("config")
    else:
        config = None
        lines = text.splitlines()
        body_start = 0
        for i, line in enumerate(lines):
            if line.startswith("# config "):
                config = json.loads(line[len("# config "):])
            elif not line.startswith("#"):
                body_start = i
                break
        reader = csv.DictReader(lines[body_start:])
        records = list(reader)
    out = []
    for row in records:
        out.append(
            {
                "mode": row["mode"],
                "m": int(row["m"]),
                "repetition": int(row["repetition"]),
                "fidelity": float(row["fidelity"]),
                "k": int(row["k"]),
                "seed_stream": row["seed_stream"],
            }
        )
    return out, config
