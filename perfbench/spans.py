"""Outside-in tracing: spans around calls into the program's layers.

The tracer replaces a function that a module or class looks up by name with
a wrapper that records one span per call: the layer name, the span that was
open when the call started (its parent), and start and end times in
nanoseconds. Spans stay in memory until the run ends; a
layer's self time is its span's duration minus the durations of its direct
children, which the calls nest inside it because the engine is
single-threaded.

Nothing under the program's source tree is changed on disk: the wrappers are
installed with ``setattr`` and removed again by ``restore``.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Records spans for wrapped functions; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.absent: list[str] = []
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Wrap ``owner.attr`` so each call records a span named ``layer``.

        A name the program no longer defines is recorded in ``absent``;
        its work then shows up in the caller's self time.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            if name not in self.absent:
                self.absent.append(name)
            return
        names, parents, starts, ends, open_ = self.names, self.parents, self.starts, self.ends, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(layer)
            parents.append(open_[-1])
            ends.append(0)
            open_.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                open_.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def table(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with each span's self time."""
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return {
            "name": np.asarray(self.names, dtype=object),
            "parent": parents,
            "start": np.asarray(self.starts, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def write_csv(self, path) -> None:
        """Write every recorded span: id, parent id, layer, start and durations in ns."""
        t = self.table()
        origin = int(t["start"].min()) if len(t["start"]) else 0
        with open(path, "w") as f:
            f.write("id,parent,layer,start_ns,dur_ns,self_ns\n")
            for i in range(len(t["dur"])):
                f.write(
                    f"{i},{t['parent'][i]},{t['name'][i]},{t['start'][i] - origin},"
                    f"{t['dur'][i]},{t['self'][i]}\n"
                )

