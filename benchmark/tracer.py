"""Spans and counts recorded around the program's public functions.

Wrappers are installed from the benchmark's own files, on the name the
caller looks up (``dir_sparse.spg.project_weighted_l1_ball``, not only
``dir_sparse.linalg.project_weighted_l1_ball``), for the traced rounds
only.  Spans stay in memory as parallel typed arrays and are written out
once, after the measured region.
"""

import time
from array import array
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


def _patch(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)``; return an undo callable.

    Class attributes are read from the class ``__dict__`` so classmethods
    keep their descriptor.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return lambda: setattr(owner, attr, raw)


class ProductCounter:
    """Counts products with A through SubproblemData, in every run.

    This is the only instrumentation of an untraced run: one integer
    increment per product, no clock reads.
    """

    def __init__(self, subproblem_cls):
        self.count = 0
        self._undo = [_patch(subproblem_cls, name, self._counting)
                      for name in ("matvec", "rmatvec")]

    def _counting(self, fn):
        def wrapper(*args, **kwargs):
            self.count += 1
            return fn(*args, **kwargs)
        return wrapper

    def close(self):
        for undo in reversed(self._undo):
            undo()


class Tracer:
    """In-memory span recorder with per-name counts.

    ``wrap`` registers a wrapper; ``start`` installs every registered
    wrapper and ``stop`` removes them, so a run can alternate traced and
    untraced rounds in one process while the spans accumulate.
    """

    def __init__(self):
        self.labels = []            # span name by code
        self.codes = array("i")     # one entry per span from here on
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.solve_ids = array("q")
        self.stack = []
        self.solve_id = -1
        self.counts = defaultdict(int)
        self._specs = []
        self._undo = []

    def wrap(self, owner, attr, name, on_result=None):
        """Register a span named ``name`` around every call of ``owner.attr``.

        ``on_result(tracer, result)`` runs after the span closes, so the
        values an engine returns can be counted where they are produced.
        """
        tracer = self
        if name not in self.labels:
            self.labels.append(name)
        code = self.labels.index(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(tracer.codes)
                tracer.codes.append(code)
                tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
                tracer.solve_ids.append(tracer.solve_id)
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
                tracer.stack.append(idx)
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer.stack.pop()
                    tracer.starts[idx] = start
                    tracer.ends[idx] = end
                if on_result is not None:
                    on_result(tracer, out)
                return out
            return wrapper

        self._specs.append((owner, attr, make))

    def start(self):
        self._undo = [_patch(owner, attr, make) for owner, attr, make in self._specs]

    def stop(self):
        for undo in reversed(self._undo):
            undo()
        self._undo = []

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz``.

        Span i has name ``labels[code[i]]``, times ``start[i]``/``end[i]``
        in seconds of ``time.perf_counter``, parent span index
        ``parent[i]`` (-1 at the top) and solve id ``solve[i]``.
        """
        np.savez_compressed(
            path, labels=np.array(self.labels), code=np.frombuffer(self.codes, np.int32),
            start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, np.int64),
            solve=np.frombuffer(self.solve_ids, np.int64))

    def summary(self, contexts):
        """Per-name calls, total and self time, and calls by context.

        ``contexts`` maps a label to a set of span names; for every span
        the nearest enclosing span whose name is in that set is found, and
        ``by_context[(label, enclosing, name)]`` counts the calls.  A span
        with no such ancestor is counted under ``enclosing = None``.
        Parents are recorded before their children, so one forward pass
        resolves every span.
        """
        n = len(self.codes)
        codes = np.frombuffer(self.codes, np.int32)
        parents = np.frombuffer(self.parents, np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        k = len(self.labels)
        calls = dict(zip(self.labels, np.bincount(codes, minlength=k).tolist()))
        total = dict(zip(self.labels, np.bincount(codes, dur, k).tolist()))
        self_time = dict(zip(self.labels, np.bincount(codes, dur - child, k).tolist()))

        by_context = defaultdict(int)
        for label, members in contexts.items():
            member = [name in members for name in self.labels]
            nearest = [-1] * n      # code of the nearest member ancestor
            for i, (c, p) in enumerate(zip(self.codes, self.parents)):
                if p >= 0:
                    nearest[i] = self.codes[p] if member[self.codes[p]] else nearest[p]
            pairs = np.bincount(np.asarray(nearest) * k + k + codes, minlength=k * (k + 1))
            for j in np.flatnonzero(pairs).tolist():
                up, c = divmod(j, k)
                enclosing = self.labels[up - 1] if up > 0 else None
                by_context[(label, enclosing, self.labels[c])] += int(pairs[j])
        return calls, total, self_time, by_context
