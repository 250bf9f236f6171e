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


class EventRuleError(ValueError):
    """Event ``index`` breaks ``rule``; the message is the one API callers see."""

    def __init__(self, index: int, rule: str, message: str | None = None):
        super().__init__(message or rule)
        self.index, self.rule = index, rule


@dataclass(frozen=True)
class EventSequence:
    """Realization of a U-dimensional point process over [0, T].

    Times are strictly increasing and below T, marks dimension labels in
    {1..U}; the first event that breaks a rule raises ``EventRuleError``.
    """

    times: np.ndarray
    marks: np.ndarray
    T: float
    U: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).copy()
        marks = np.asarray(self.marks)
        if times.ndim != 1 or marks.shape != times.shape:
            raise ValueError("times and marks must be 1-d arrays of equal length")
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if not (isinstance(self.U, (int, np.integer)) and self.U >= 1):
            raise ValueError(f"dimension count U must be an integer >= 1, got {self.U}")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN; the finite-time rule is first
            step = np.diff(times, prepend=-np.inf)
        # (events breaking a rule, the rule, the message API callers see), in check order
        for broken, rule, message in (
                (~np.isfinite(times), "event time {t} is not finite",
                 "event time {t} at index {k} is not finite"),
                (marks != np.trunc(marks), "mark {m} is not an integer", None),  # NaN too
                ((np.arange(times.size) == 0) & (times < 0), "negative event time {t}", None),
                (step == 0, "duplicate event time {t}", "duplicate event time {t} at index {k}"),
                (step < 0, "event times must be strictly increasing", None),
                (times >= self.T, "event time {t} is at or past the horizon T={T}", None),
                ((marks < 1) | (marks > self.U), "mark {m:.0f} outside 1..{U}", None)):
            if broken.any():
                k = int(np.argmax(broken))
                names = dict(k=k, t=times[k], m=marks[k], T=self.T, U=self.U)
                raise EventRuleError(k, rule.format(**names), (message or rule).format(**names))
        marks = marks.astype(int)
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


def read_table(path, expect: str | None = None):
    """Parse the layout ``write_table`` writes: (meta, header fields, rows,
    row line numbers), the header () if absent, rows a float array with a
    column per header field; ``#`` lines anywhere add their ``key=value`` to
    meta.  A header other than ``expect`` (if given) or a row not one number
    per field raises ValueError naming the file and the line."""
    meta: dict[str, str] = {}
    header, data, lines = (), [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif line and not header:
                header = line.split(",")
                if expect and ",".join(header).replace(" ", "") != expect:
                    raise ValueError(f"{path}: line {lineno}: expected header {expect!r}, "
                                     f"got {','.join(header)!r}")
            elif line:
                fields = line.split(",")
                try:
                    if len(fields) != len(header):
                        raise ValueError(f"expected {len(header)} values, got {len(fields)}")
                    data.extend(map(float, fields))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                lines.append(lineno)
    return meta, header, np.array(data).reshape(len(lines), len(header)), lines


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
    the dimension count from the metadata, else the largest mark.  A row that
    is not two numbers, or whose event breaks a rule of ``EventSequence``,
    raises ValueError naming its line, and every ValueError names the file.
    """
    meta, header, data, lines = read_table(path, "time,mark")
    if not header:
        raise ValueError(f"{path}: missing 'time,mark' header")
    times, marks = data.T
    if T is None:
        T = meta_value(path, meta, "T", float)
        if T is None:
            raise ValueError(
                f"{path}: no horizon: pass one explicitly or add a '# T=...' comment")
        if not 0.0 < T < np.inf:
            raise ValueError(f"{path}: '# T=' is not a positive finite horizon: {meta['T']!r}")
    # a mark that is not finite is the rule's to refuse, naming its line
    U = meta_value(path, meta, "U", int, int(marks[np.isfinite(marks)].max(initial=1)))
    try:
        events = EventSequence(times, marks, T, U)
    except EventRuleError as exc:
        raise ValueError(f"{path}: line {lines[exc.index]}: {exc.rule}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return events, meta


__all__ = ["EventSequence", "write_table", "read_table", "meta_value", "write_events_csv",
           "read_events_csv"]
