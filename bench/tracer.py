"""Spans around calls into the defectscan modules, recorded from outside the program.

Each traced function is replaced by a wrapper on its own module.  Callers look
these functions up through the module (``solver.far_field``,
``farfield.assemble_far_field_matrix``) or as module globals (``fm.f_sharp``
calling ``hermitian_eig``), so they reach the wrapper and ``src/`` stays
unedited.  Spans are kept in memory and written out once, by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

# The layer boundaries the per-layer metrics name, as (module, function).
TRACED = (
    ("cli", "cmd_simulate"),
    ("cli", "cmd_reconstruct"),
    ("cli", "cmd_verify"),
    ("cli", "contrast_statistics"),
    ("media", "sample_grid"),
    ("media", "validate_assumptions"),
    ("solver", "assemble_system"),
    ("solver", "solve_plane_wave"),
    ("solver", "solve_point_source"),
    ("solver", "far_field"),
    ("farfield", "assemble_far_field_matrix"),
    ("farfield", "scattering_operator"),
    ("fm", "hermitian_eig"),
    ("fm", "f_sharp"),
    ("fm", "test_functions"),
    ("fm", "picard_indicator"),
    ("io", "write_ffm"),
    ("io", "read_ffm"),
    ("io", "write_fields"),
    ("io", "read_fields"),
    ("io", "write_indicator_csv"),
)


def _file_bytes(args, result):
    # every traced io function takes the file path as its first argument
    return {"bytes": os.path.getsize(args[0])}


def _system_size(args, result):
    return {"unknowns": result.op.shape[0], "bandwidth": result.bandwidth}


# Extra attributes recorded on a span from the call's arguments and result.
ATTRS = {
    "io.write_ffm": _file_bytes,
    "io.read_ffm": _file_bytes,
    "io.write_fields": _file_bytes,
    "io.read_fields": _file_bytes,
    "io.write_indicator_csv": _file_bytes,
    "solver.assemble_system": _system_size,
}


class Span:
    __slots__ = ("id", "name", "parent", "run", "round", "start", "end", "attrs")

    def __init__(self, id, name, parent, run, round, start):
        self.id, self.name, self.parent = id, name, parent
        self.run, self.round, self.start = run, round, start
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, t0: float) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "run": self.run,
            "round": self.round, "start": self.start - t0, "end": self.end - t0,
            **self.attrs,
        }


class Tracer:
    """Installs the wrappers for the duration of a ``request`` and keeps the spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = None
        self._round = None
        self.t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        self._run, self._round, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def request(self, run: str, round: int):
        """Trace one subcommand call; its spans share the run id ``run``."""
        originals = []
        self._run, self._round = run, round
        try:
            for mod_name, fn_name in TRACED:
                mod = self.modules[mod_name]
                fn = getattr(mod, fn_name)
                originals.append((mod, fn_name, fn))
                setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))
            yield
        finally:
            for mod, fn_name, fn in reversed(originals):
                setattr(mod, fn_name, fn)
            self._run = self._round = None

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump([s.to_dict(self.t0) for s in self.spans], fh)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its (sequential) child spans cover."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_stats(spans) -> tuple[dict, list]:
    """Per-layer statistics, each per round of the workload.

    Counts and byte totals must repeat exactly from round to round; a round
    that differs is returned as a problem.  Times are medians over rounds;
    ``p50_ms``/``p90_ms`` are over every call.
    """
    selfs = self_times(spans)
    rounds = sorted({s.round for s in spans})
    per = {}  # name -> round -> [calls, total, self, bytes]
    durations = {}
    for s in spans:
        row = per.setdefault(s.name, {r: [0, 0.0, 0.0, 0] for r in rounds})[s.round]
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.id]
        row[3] += s.attrs.get("bytes", 0)
        durations.setdefault(s.name, []).append(s.duration)
    stats, problems = {}, []
    for name, by_round in sorted(per.items()):
        rows = list(by_round.values())
        for i, what in ((0, "calls"), (3, "bytes")):
            if len({row[i] for row in rows}) != 1:
                problems.append(f"{name}.{what} differs between rounds: {[row[i] for row in rows]}")
        q = statistics.quantiles(durations[name], n=10, method="inclusive") \
            if len(durations[name]) > 1 else durations[name] * 9
        stats[f"{name}.calls"] = rows[0][0]
        stats[f"{name}.total_s"] = statistics.median(row[1] for row in rows)
        stats[f"{name}.self_s"] = statistics.median(row[2] for row in rows)
        stats[f"{name}.p50_ms"] = 1e3 * statistics.median(durations[name])
        stats[f"{name}.p90_ms"] = 1e3 * q[8]
        if name.startswith("io."):
            stats[f"{name}.bytes"] = rows[0][3]
    return stats, problems
