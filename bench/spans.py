"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `install` replaces the
module attributes that callers inside `rau` actually look up (for
example `rau.cells.sigmoid`, which `cells` imported by name from
`linalg`) with timing wrappers, and `uninstall` puts the originals back.
Every span stores its name, its parent span and the root span it runs
under; the benchmark opens the root spans around its own calls and tags
each with an activity ("train", "eval", "gradcheck", "check") and a cell
kind. Spans stay in compact arrays until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("rau.cells", "step", "cells.step"),
    ("rau.autograd", "step", "cells.step"),
    ("rau.cells", "sigmoid", "linalg.sigmoid"),
    ("rau.cells", "tanh", "linalg.tanh"),
    ("rau.cells", "softmax", "linalg.softmax"),
    ("rau.autograd", "backward", "autograd.backward"),
    ("rau.train", "backward", "autograd.backward"),
    ("rau.autograd", "backward_cell_sequence", "autograd.backward_cell_sequence"),
    ("rau.train", "clip_global_norm", "autograd.clip_global_norm"),
    ("rau.train", "classify_forward", "models.forward"),
    ("rau.train", "lm_forward", "models.forward"),
    ("rau.train", "cross_entropy", "models.cross_entropy"),
    ("rau.train", "apply_update", "train.apply_update"),
)
# fd_gradient also gets each loss evaluation it makes recorded as a child span
FD_TARGET = ("rau.autograd", "fd_gradient", "autograd.fd_gradient")
FD_LOSS = "autograd.fd_loss"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.roots: dict[int, tuple[str, str]] = {}
        self._stack = [-1]
        self._root = -1
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.root.append(self._root)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        opn, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = opn(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _wrap_fd(self, fd_gradient):
        outer = self.wrap(fd_gradient, FD_TARGET[2])
        wrap = self.wrap

        def traced(f, params, *args, **kwargs):
            return outer(wrap(f, FD_LOSS), params, *args, **kwargs)

        return traced

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span in TARGETS:
            mod = sys.modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, span))
        mod = sys.modules[FD_TARGET[0]]
        orig = getattr(mod, FD_TARGET[1])
        self._saved.append((mod, FD_TARGET[1], orig))
        setattr(mod, FD_TARGET[1], self._wrap_fd(orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def root_span(self, name: str, activity: str, cell: str):
        """Open a root span around one of the benchmark's own calls (no-op while uninstalled)."""
        if not self.installed:
            yield
            return
        idx = self._open(self._id(name))
        self.roots[idx] = (activity, cell)
        prev, self._root = self._root, idx
        try:
            yield
        finally:
            self._root = prev
            self._close(idx)

    def arrays(self):
        """(name ids, parents, roots, durations in s, self times in s) as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = np.frombuffer(self.root, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, root, dur, dur - child

    def layer_totals(self) -> dict[tuple[str, str, str], tuple[int, float, float]]:
        """{(span name, activity, cell): (calls, total s, self s)}, grouped by each span's root."""
        name, _, root, dur, self_s = self.arrays()
        roots = np.fromiter(self.roots, dtype=np.int64, count=len(self.roots))
        owner = root.astype(np.int64)
        owner[roots] = roots
        tags = sorted(set(self.roots.values()))
        tag_of_span = np.full(len(owner), -1, dtype=np.int64)
        tag_of_span[roots] = [tags.index(self.roots[r]) for r in roots]
        keep = owner >= 0
        key = name[keep].astype(np.int64) * len(tags) + tag_of_span[owner[keep]]
        size = len(self.names) * len(tags)
        calls = np.bincount(key, minlength=size)
        total = np.bincount(key, weights=dur[keep], minlength=size)
        self_total = np.bincount(key, weights=self_s[keep], minlength=size)
        out = {}
        for k in np.flatnonzero(calls):
            nid, tag = divmod(int(k), len(tags))
            out[(self.names[nid], *tags[tag])] = (int(calls[k]), float(total[k]), float(self_total[k]))
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span and the name and root tables to an .npz file."""
        name, parent, root, _, _ = self.arrays()
        header = {"names": self.names, "roots": {str(k): v for k, v in self.roots.items()}, **meta}
        np.savez(path, name=name, parent=parent, root=root,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8))
