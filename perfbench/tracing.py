"""Spans and counts recorded around calls into the package's layers.

Each public function is wrapped where its caller looks it up: ``cli``
binds ``detect``, ``interferometer`` binds ``pair_envelope``, and so on, so
replacing the module attribute intercepts exactly the calls that module
makes.  A span holds its name, start, end and parent; spans stay in memory
and are turned into metrics when the run ends.  Self time is a span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import threading
import time
from dataclasses import dataclass

# (module the caller lives in, attribute the caller looks up, span name)
WRAPPED = (
    ("twophoton.correlation", "dirichlet_F", "correlation.dirichlet_F"),
    ("twophoton.correlation", "pair_envelope", "correlation.pair_envelope"),
    ("twophoton.correlation", "generalized_F", "correlation.generalized_F"),
    ("twophoton.correlation", "coherence_envelope", "correlation.coherence_envelope"),
    ("twophoton.interferometer", "pair_envelope", "correlation.pair_envelope"),
    ("twophoton.interferometer", "generalized_F", "correlation.generalized_F"),
    ("twophoton.interferometer", "coherence_envelope", "correlation.coherence_envelope"),
    ("twophoton.interferometer", "dither_averaged_rate", "interferometer.rate"),
    ("twophoton.interferometer", "coincidence_rate", "interferometer.rate"),
    ("twophoton.interferometer", "singles_fringe_visibility",
     "interferometer.singles_fringe_visibility"),
    ("twophoton.engineering", "pair_envelope", "correlation.pair_envelope"),
    ("twophoton.engineering", "generalized_F", "correlation.generalized_F"),
    ("twophoton.cli", "gamma2_mode_locked", "correlation.gamma2_mode_locked"),
    ("twophoton.cli", "phase_fringe_scan", "interferometer.rate"),
    ("twophoton.cli", "solve_excision", "engineering.solve_excision"),
    ("twophoton.cli", "combined_gamma2", "engineering.combined_gamma2"),
    ("twophoton.cli", "sample_pair_delays", "montecarlo.sample_pair_delays"),
    ("twophoton.cli", "detect", "montecarlo.detect"),
    ("twophoton.cli", "histogram_delays", "montecarlo.histogram_delays"),
    ("twophoton.cli", "summarize_records", "montecarlo.summarize_records"),
    ("twophoton.cli", "_csv", "cli.csv"),
    ("twophoton.cli", "_write_atomic", "cli.csv"),
)

# functions whose first positional argument is the delay array they evaluate
_SAMPLED = {"dirichlet_F": 0, "pair_envelope": 1, "generalized_F": 0}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counts; ``install`` wraps the functions in WRAPPED."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span_name: str):
        attr = fn.__name__
        sample_arg = _SAMPLED.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(span_name, 0.0, 0.0, stack[-1] if stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            before = self._before(attr)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self.add(span_name + ".calls", 1)
            if sample_arg is not None and len(args) > sample_arg:
                self.add(span_name + ".samples", _size(args[sample_arg]))
            self._after(attr, args, result, before)
            return result

        return traced

    def _before(self, attr: str):
        if attr == "detect":
            return _rss_mb()
        return None

    def _after(self, attr: str, args, result, before) -> None:
        if attr == "detect":
            self.add("montecarlo.detect.rss_growth_mb", _peak_rss_mb() - before)
            self.add("montecarlo.events", _size(args[0]))
        elif attr == "summarize_records":
            # read from the summary, so the counts do not depend on how
            # detect represents its records
            self.add("montecarlo.records", result["n_records"])
            self.add("montecarlo.accidental_records", result["n_accidental_records"])
        elif attr == "_write_atomic":
            self.add("cli.bytes_written", os.path.getsize(args[0]))
        elif attr == "pair_envelope" and self._in_interferometer():
            self.add("interferometer.kernel_samples", _size(args[1]))

    def _in_interferometer(self) -> bool:
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]].name == "interferometer.rate"

    def install(self) -> list:
        """Wrap every function in WRAPPED; return the ones the package lacks."""
        missing = []
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, self._wrap(fn, span_name))
        return missing

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        covered = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent].append((span.start, span.end))
        out: dict = {}
        for span, children in zip(self.spans, covered):
            own = (span.end - span.start) - _union_length(children)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def durations(self) -> dict:
        out: dict = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
        return out


def _size(value) -> int:
    try:
        return int(value.size)
    except AttributeError:
        return 1


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced round, before units are attached."""
    self_s = tracer.self_times()
    dur = tracer.durations()
    c = tracer.counts
    rate_calls = c.get("interferometer.rate.calls", 0)
    events = c.get("montecarlo.events", 0)
    records = c.get("montecarlo.records", 0)
    dark = c.get("montecarlo.accidental_records", 0)
    return {
        "cli.csv_s": self_s.get("cli.csv", 0.0),
        "cli.bytes_written": c.get("cli.bytes_written", 0),
        "correlation.dirichlet_F.self_s": self_s.get("correlation.dirichlet_F", 0.0),
        "correlation.dirichlet_F.samples": c.get("correlation.dirichlet_F.samples", 0),
        "correlation.pair_envelope.self_s": self_s.get("correlation.pair_envelope", 0.0),
        "correlation.pair_envelope.samples": c.get("correlation.pair_envelope.samples", 0),
        "correlation.generalized_F.self_s": self_s.get("correlation.generalized_F", 0.0),
        "correlation.coherence_envelope.self_s": self_s.get("correlation.coherence_envelope", 0.0),
        "correlation.gamma2_mode_locked.self_s": self_s.get("correlation.gamma2_mode_locked", 0.0),
        "interferometer.rate.calls": rate_calls,
        "interferometer.rate.self_s": self_s.get("interferometer.rate", 0.0),
        "interferometer.kernel_samples_per_rate": (
            c.get("interferometer.kernel_samples", 0) / rate_calls if rate_calls else 0.0
        ),
        "interferometer.singles_fringe_visibility.self_s": self_s.get(
            "interferometer.singles_fringe_visibility", 0.0
        ),
        "engineering.solve_excision.self_s": self_s.get("engineering.solve_excision", 0.0),
        "engineering.combined_gamma2.self_s": self_s.get("engineering.combined_gamma2", 0.0),
        "montecarlo.sample_pair_delays.s": dur.get("montecarlo.sample_pair_delays", 0.0),
        "montecarlo.detect.s": dur.get("montecarlo.detect", 0.0),
        "montecarlo.histogram_delays.s": dur.get("montecarlo.histogram_delays", 0.0),
        "montecarlo.summarize_records.s": dur.get("montecarlo.summarize_records", 0.0),
        "montecarlo.detect.rss_growth_mb": c.get("montecarlo.detect.rss_growth_mb", 0.0),
        "montecarlo.events": events,
        "montecarlo.records": records,
        "montecarlo.accidental_records": dark,
        "montecarlo.pair_yield": (records - dark) / events if events else 0.0,
    }
