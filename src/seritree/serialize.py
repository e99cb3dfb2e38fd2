"""File formats: trees, manifests, pmfs, histograms, trajectories, spectra.

Trees ship in two interchangeable formats:

* CSV with header ``vertex,parent``, one row per vertex >= 1;
* a binary layout: 16-byte header (magic ``SERI-TREE\\0``, version byte, five
  zero bytes), a little-endian uint64 vertex count n, then n little-endian
  uint64 parents for vertices 1..n.

Every run directory gets exactly one JSON manifest describing the flags that
produced it; a manifest plus the same binary reproduces the run bit for bit
(timestamps aside).
"""

from __future__ import annotations

import csv
import datetime
import json
import struct
from itertools import chain
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .growth import TreeRecord
from .limits import DegreePMF, YulePath
from .treeops import FringeHistogram

FORMAT_VERSION = "1"
TREE_MAGIC = b"SERI-TREE\x00"
TREE_BINARY_VERSION = 1


@dataclass
class RunManifest:
    """Flags and provenance of one CLI run; round-trips losslessly via JSON."""

    command: str
    delta: float
    seed: int
    convention: str
    format_version: str = FORMAT_VERSION
    n: Optional[int] = None
    reps: Optional[int] = None
    timestamp: str = ""
    tool_version: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        if not self.tool_version:
            from . import __version__

            self.tool_version = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        fields = json.loads(text)
        fields.pop("sampler", None)  # always null, in manifests from before it went
        return cls(**fields)

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_json(Path(path).read_text())


def write_tree_csv(tree: TreeRecord, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "parent"])
        writer.writerows(zip(range(1, tree.n + 1), tree.parent[1:].tolist()))


def read_tree_csv(path: Union[str, Path], delta: float = 0.0) -> TreeRecord:
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != ["vertex", "parent"]:
            raise ValueError(f"unexpected tree CSV header {header}")
        first = fh.readline()
        if not first.strip():
            raise ValueError("tree CSV holds no vertices")
        rows = np.loadtxt(chain([first], fh), delimiter=",", dtype=np.int64, ndmin=2, usecols=(0, 1))
    out_of_order = np.flatnonzero(rows[:, 0] != np.arange(1, len(rows) + 1))
    if out_of_order.size:
        row = rows[out_of_order[0]].tolist()
        raise ValueError(f"tree CSV rows must be ordered by vertex; saw {row}")
    return TreeRecord.from_parents(rows[:, 1], delta)


def write_tree_binary(tree: TreeRecord, path: Union[str, Path]) -> None:
    header = TREE_MAGIC + bytes([TREE_BINARY_VERSION]) + b"\x00" * 5
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<Q", tree.n))
        fh.write(tree.parent[1:].astype("<u8").tobytes())


def read_tree_binary(path: Union[str, Path], delta: float = 0.0) -> TreeRecord:
    raw = Path(path).read_bytes()
    if len(raw) < 24 or raw[:10] != TREE_MAGIC:
        raise ValueError("not a tree binary (bad magic)")
    if raw[10] != TREE_BINARY_VERSION:
        raise ValueError(f"unsupported tree binary version {raw[10]}")
    (n,) = struct.unpack("<Q", raw[16:24])
    if len(raw) != 24 + 8 * n:
        raise ValueError("tree binary length does not match the vertex count")
    if n < 1:
        raise ValueError("tree binary holds no edges")
    parents = np.frombuffer(raw, dtype="<u8", offset=24)
    # compare as uint64, before a parent >= 2**63 could wrap to a negative int64
    bad = np.flatnonzero(parents >= np.arange(1, n + 1, dtype=np.uint64))
    if bad.size:
        m = int(bad[0]) + 1
        raise ValueError(f"tree binary: parent {int(parents[bad[0]])} of vertex {m} is not below {m}")
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    parent[1:] = parents
    return TreeRecord(parent, delta)


def write_pmf_csv(pmf: DegreePMF, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "probability", "stderr"])
        for k in sorted(pmf.p):
            writer.writerow([k, repr(pmf.p[k]), repr(pmf.stderr.get(k, 0.0))])


def write_histogram_csv(hist: FringeHistogram, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "count", "frequency"])
        for key in sorted(hist.counts):
            writer.writerow([key, hist.counts[key], repr(hist.counts[key] / hist.total)])
        if hist.other:
            writer.writerow(["(other)", hist.other, repr(hist.other / hist.total)])


def write_trajectory_csv(path_obj: YulePath, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "Y", "D", "W"])
        for t, y, d, w in zip(path_obj.t, path_obj.y, path_obj.d, path_obj.w):
            writer.writerow([repr(float(t)), int(y), int(d), repr(float(w))])


def write_spectrum_csv(eigenvalues: Sequence[float], path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue"])
        for v in eigenvalues:
            writer.writerow([repr(float(v))])


def write_checkpoints_csv(snapshots, path: Union[str, Path]) -> None:
    """One row per (checkpoint, degree) count, plus tracked-vertex degrees."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "degree", "count"])
        for snap in snapshots:
            for k in sorted(snap.degree_counts):
                writer.writerow([snap.n, k, snap.degree_counts[k]])


def write_tracked_csv(snapshots, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "vertex", "degree"])
        for snap in snapshots:
            for v in sorted(snap.tracked_degrees):
                writer.writerow([snap.n, v, snap.tracked_degrees[v]])
