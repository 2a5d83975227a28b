"""The csv record loop that ingest.load_matrix once read matrix.csv with.

It read the file through csv.reader one record at a time: the header of
meter ids, then one row per interval, each checked for the header's
width and then for cells of 0 or 1, and joined into a string. load_matrix
now reads the rows in one numpy pass; on any body free of quotes and of a
lone "\\r" it must give this loop's matrix, or its error at the same line.
"""

import csv
import json
from datetime import datetime
from pathlib import Path

import numpy as np

from parkrank import ingest
from parkrank.errors import DataError, EmptyDatasetError, ParseError, reading

MATRIX_CELLS = frozenset(("0", "1"))


def load_matrix(csv_path) -> ingest.OccupancyMatrix:
    csv_path = Path(csv_path)
    with reading(csv_path), csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        meter_ids = next(reader, None)
        if meter_ids is None:
            raise EmptyDatasetError("empty file")
        index = {m: i for i, m in enumerate(meter_ids)}
        dup = [m for i, m in enumerate(meter_ids) if index[m] != i]
        if dup:
            raise DataError(f"duplicate meter id {dup[0]!r}")
        rows = []  # one "0"/"1" string per interval
        for record in reader:
            if len(record) != len(meter_ids):
                raise ParseError(
                    "row width does not match header", line=reader.line_num
                )
            if not set(record) <= MATRIX_CELLS:
                raise ParseError("cells must be 0 or 1", line=reader.line_num)
            rows.append("".join(record))
        if not rows:
            raise EmptyDatasetError("no interval rows")
    meta_path = csv_path.with_name(csv_path.stem + ".meta.json")
    with reading(meta_path):
        meta = json.loads(meta_path.read_text())
        interval_minutes = meta["interval_minutes"]
        # bool is an int subclass, but JSON true is not an integer
        if type(interval_minutes) is not int:
            raise DataError(
                f"interval_minutes must be an integer, got {interval_minutes!r}"
            )
        if interval_minutes <= 0:
            raise DataError("interval_minutes must be positive")
        start_time = datetime.fromisoformat(meta["start_time"])
    cells = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    states = (cells.reshape(len(rows), len(meter_ids)) == ord("1")).T
    return ingest.OccupancyMatrix(
        states=states,
        interval_minutes=interval_minutes,
        start_time=start_time,
        location_index=index,
    )
