"""Marked event sequences on [0, T] and the package's one CSV layout.

Every CSV file holds ``# key=value`` metadata comments, a header and comma
rows, floats with 17 significant digits so parsing round-trips exactly.  An
events file has a ``time,mark`` header, strictly increasing times and 1-based
integer marks:

    # T=2000
    # U=3
    # scenario=mutually-exciting
    # seed=1
    time,mark
    0.81717864519964937,2
    ...
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EventSequence:
    """Realization of a U-dimensional point process over [0, T].

    Times are strictly increasing and strictly below T (an event at or past
    the horizon is rejected); marks are dimension labels in {1..U}.
    """

    times: np.ndarray
    marks: np.ndarray
    T: float
    U: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).copy()
        marks = np.asarray(self.marks, dtype=int).copy()
        if times.ndim != 1 or marks.shape != times.shape:
            raise ValueError("times and marks must be 1-d arrays of equal length")
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if self.U < 1:
            raise ValueError(f"dimension count U must be >= 1, got {self.U}")
        if times.size:
            if times[0] < 0:
                raise ValueError(f"negative event time {times[0]}")
            diffs = np.diff(times)
            if np.any(diffs == 0):
                k = int(np.flatnonzero(diffs == 0)[0])
                raise ValueError(f"duplicate event time {times[k]} at index {k + 1}")
            if np.any(diffs < 0):
                raise ValueError("event times must be strictly increasing")
            if times[-1] >= self.T:
                raise ValueError(
                    f"event time {times[-1]} is at or past the horizon T={self.T}")
            if marks.min() < 1 or marks.max() > self.U:
                bad = marks[(marks < 1) | (marks > self.U)][0]
                raise ValueError(f"mark {bad} outside 1..{self.U}")
        times.setflags(write=False)
        marks.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)

    def __len__(self) -> int:
        return self.times.size

    @property
    def counts(self) -> np.ndarray:
        """Number of events per dimension, |N_i| for i = 1..U."""
        return np.bincount(self.marks, minlength=self.U + 1)[1:].astype(float)

    def dim_indices(self, i: int) -> np.ndarray:
        """Indices of the events on dimension i (1-based i)."""
        return np.flatnonzero(self.marks == i)

    def restrict(self, t_end: float) -> "EventSequence":
        """Events strictly before t_end, with the horizon shrunk to t_end."""
        keep = self.times < t_end
        return EventSequence(self.times[keep], self.marks[keep], t_end, self.U)


def _text(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def write_table(path, meta: dict, header, rows) -> None:
    """Write ``# key=value`` lines in key order, the header fields and one
    line per row, comma-separated; floats get 17 significant digits."""
    lines = [f"# {key}={_text(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(header))
    lines += [",".join(map(_text, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path):
    """Parse the layout ``write_table`` writes; returns (meta, (line number,
    header fields), [(line number, fields), ...]), the header (None, None) if
    there is none.  A ``#`` line anywhere adds its ``key=value`` to meta;
    the callers check the fields."""
    meta: dict[str, str] = {}
    lines = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif line:
                lines.append((lineno, line.split(",")))
    return meta, (lines[0] if lines else (None, None)), lines[1:]


def write_events_csv(path, events: EventSequence, meta: dict | None = None) -> None:
    """Write an event sequence under metadata comments that include T and U."""
    meta = {"T": events.T, "U": events.U, **(meta or {})}
    write_table(path, meta, ("time", "mark"),
                zip(events.times.tolist(), events.marks.tolist()))


def meta_value(path, meta: dict, key: str, kind, default=None):
    """``kind(meta[key])``, or ``default`` when the file has no ``# key=``
    line; a malformed value raises ValueError naming the file and the key."""
    if key not in meta:
        return default
    try:
        return kind(meta[key])
    except ValueError:
        raise ValueError(f"{path}: '# {key}=' is not a valid {kind.__name__}: "
                         f"{meta[key]!r}") from None


def read_events_csv(path, T: float | None = None):
    """Parse an events file; returns (EventSequence, metadata dict).

    The horizon comes from ``T`` when given, else from the file metadata, and
    the dimension count from the metadata, else the largest mark.  Malformed
    rows raise ValueError naming the offending line number, and every
    ValueError names the file.
    """
    meta, (lineno, header), rows = read_table(path)
    if header is None:
        raise ValueError(f"{path}: missing 'time,mark' header")
    if ",".join(header).replace(" ", "") != "time,mark":
        raise ValueError(
            f"{path}: line {lineno}: expected header 'time,mark', got {','.join(header)!r}")
    times: list[float] = []
    marks: list[int] = []
    for lineno, fields in rows:
        if len(fields) != 2:
            raise ValueError(
                f"{path}: line {lineno}: expected 'time,mark', got {','.join(fields)!r}")
        try:
            t = float(fields[0])
            m = int(fields[1])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: malformed row {','.join(fields)!r}") from None
        if times and t == times[-1]:
            raise ValueError(f"{path}: duplicate event time at line {lineno}")
        if times and t < times[-1]:
            raise ValueError(f"{path}: non-increasing event time at line {lineno}")
        times.append(t)
        marks.append(m)
    if T is None:
        T = meta_value(path, meta, "T", float)
        if T is None:
            raise ValueError(
                f"{path}: no horizon: pass one explicitly or add a '# T=...' comment")
        if not 0.0 < T < np.inf:
            raise ValueError(f"{path}: '# T=' is not a positive finite horizon: {meta['T']!r}")
    U = meta_value(path, meta, "U", int, max(marks) if marks else 1)
    try:
        events = EventSequence(np.asarray(times), np.asarray(marks, dtype=int), T, U)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return events, meta


__all__ = ["EventSequence", "write_table", "read_table", "meta_value", "write_events_csv",
           "read_events_csv"]
