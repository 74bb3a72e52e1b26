"""Shared fixtures: the real-data locator and a small frozen pipeline.

Real NSL-KDD files (KDDTrain+.txt / KDDTest+.txt) are looked up under
$ARLIF_DATA_DIR, then ./data/ relative to the repository root. Tests that
need them skip with a pointer when they are absent; everything else runs
on the seeded synthetic streams from synth_stream.py.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import pytest

from arlif.iforest import build_forest
from arlif.ingest import fit_preprocessor, parse_record, transform

from synth_stream import synth_lines


def _locate_data_dir():
    candidates = []
    env = os.environ.get("ARLIF_DATA_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for c in candidates:
        if (c / "KDDTrain+.txt").is_file() and (c / "KDDTest+.txt").is_file():
            return c
    return None


DATA_DIR = _locate_data_dir()

requires_dataset = pytest.mark.skipif(
    DATA_DIR is None,
    reason="NSL-KDD files not found: set ARLIF_DATA_DIR or place "
    "KDDTrain+.txt and KDDTest+.txt under ./data/",
)


def synth_records(n, seed=0, format="nsl-kdd", attack_rate=0.35):
    return [parse_record(l, format) for l in synth_lines(n, seed, format, attack_rate)]


def sealed(payload: bytes) -> bytes:
    """A model file's payload followed by its trailer: the CRC-32 of the payload, u32 LE.
    Tests that craft a payload seal it so that the loader's other rules see it."""
    return payload + struct.pack("<I", zlib.crc32(payload))


@pytest.fixture(scope="session")
def pipe():
    """A small fitted pipeline shared across tests.

    Everything here is frozen after construction (records, preprocessor,
    vectors, forest); tests build their own detectors on top.
    """
    records = synth_records(400, seed=7, attack_rate=0.4)
    pre = fit_preprocessor(records, 8)
    vectors = [transform(pre, r) for r in records]
    forest = build_forest(vectors, T=10, psi=64, seed=7)
    return records, pre, vectors, forest


@pytest.fixture(scope="session")
def default_shape():
    """Default-sized pipeline (m=10, T=100, psi=256, k=10) built once."""
    records = synth_records(2000, seed=0, attack_rate=0.5)
    pre = fit_preprocessor(records, 10)
    vectors = [transform(pre, r) for r in records]
    forest = build_forest(vectors, T=100, psi=256, seed=0)
    return records, pre, forest
