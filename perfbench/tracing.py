"""Span recording around surfaceflow's public functions, from outside the package.

A :class:`Tracer` replaces a function where its caller looks it up (for
example ``surfaceflow.cli.solve``) with a wrapper that records a span: name,
start, end, parent span and pair id.  Spans stay in memory until the run
writes them out.  ``unwrap_all`` puts every original function back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (surfaceflow module, function looked up there, span name).  The span
# name's prefix is the layer: one of the package's modules, or "bench" for
# the harness itself.
CLI_WRAPS = (
    ("cli", "cmd_synth", "cli.synth"),
    ("cli", "cmd_flow", "cli.flow"),
    ("cli", "cmd_energy", "cli.energy"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_color", "cli.color"),
    ("cli", "make_scene", "synth.make_scene"),
    ("cli", "render", "synth.render"),
    ("cli", "read_manifest", "io.read_manifest"),
    ("cli", "load_sequence", "io.load_sequence"),
    ("cli", "read_flow", "io.read_flow"),
    ("cli", "write_flow", "io.write_flow"),
    ("cli", "write_float_image", "io.write_float_image"),
    ("cli", "write_manifest", "io.write_manifest"),
    ("cli", "colorize", "io.colorize"),
    ("cli", "write_ppm", "io.write_ppm"),
    ("cli", "build_geometry", "geometry.build_geometry"),
    ("cli", "problem_from_frames", "model.problem_from_frames"),
    ("cli", "energy", "model.energy"),
    ("cli", "energy_gradient", "model.energy_gradient"),
    ("cli", "solve", "solver.solve"),
    # load_sequence looks its reader up inside surfaceflow.io
    ("io", "read_float_image", "io.read_float_image"),
)

NAME, START, END, PARENT, PAIR, INFO = range(6)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; ``pair`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pair = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                  self.pair, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr``; ``after(record, args, result)``
        may attach counts to the span once the call has returned."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if after is not None:
                after(record, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "pair", "info")
        return [dict(zip(keys, record)) for record in self.spans]


def summarize(spans: list[list], pairs=None) -> dict:
    """Per span name: call count and total time; per layer: self time.

    Only spans whose pair id is in ``pairs`` count (all spans when it is
    None).  A span's self time is its duration minus that of its direct
    children; children of one span run one after another, so never overlap.
    """
    child_time = defaultdict(float)
    for record in spans:
        if record[PARENT] is not None:
            child_time[record[PARENT]] += record[END] - record[START]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for index, record in enumerate(spans):
        if pairs is not None and record[PAIR] not in pairs:
            continue
        duration = record[END] - record[START]
        total[record[NAME]] += duration
        calls[record[NAME]] += 1
        self_time[layer_of(record[NAME])] += duration - child_time[index]
    return {"total": dict(total), "calls": dict(calls), "self": dict(self_time)}
