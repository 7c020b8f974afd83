"""A reader of the PMTL-CKPT-1 checkpoint format for the tests, written from
the format and not through `sermtl.nn`: a u32 LE header length, a JSON header,
then the parameters as one float32 LE blob in the header's ``params`` order.
Tests use it to take a checkpoint's raw parameters and header, damage them and
write them back with `nn.save_checkpoint`. Not a test module itself."""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """(params, header): the parameters as float32 arrays in the file's order,
    and the header as it was given to `nn.save_checkpoint`."""
    data = Path(path).read_bytes()
    (head_len,) = struct.unpack("<I", data[:4])
    header = json.loads(data[4 : 4 + head_len].decode("utf-8"))
    assert header.pop("format") == "PMTL-CKPT-1" and header.pop("dtype") == "<f4"
    params, offset = {}, 4 + head_len
    for entry in header.pop("params"):
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        params[entry["name"]] = np.frombuffer(data, "<f4", count, offset).reshape(shape).copy()
        offset += 4 * count
    assert offset == len(data), "bytes after the parameter blob"
    return params, header
