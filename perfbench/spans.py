"""In-memory span tracer that wraps sphloss's public functions from outside.

The benchmark never edits ``src/``: it replaces module attributes and class
methods with timing wrappers for the length of a ``with tracer:`` block and
puts the originals back on exit.  Each wrapped call records one span
(name, start, end, parent index); self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from sphloss import bound, data, fast_output, losses, trainer

# span name -> (owner, attribute).  Every call into sphloss that these
# names cover goes through a module or class attribute lookup at call time,
# so replacing the attribute is enough to see it.
TARGETS: Dict[str, Tuple[object, str]] = {
    "data.synthetic_categorical": (data, "synthetic_categorical"),
    "data.random_split": (data, "random_split"),
    "trainer.train": (trainer, "train"),
    "trainer.evaluate": (trainer, "evaluate"),
    "trainer.nesterov_step": (trainer, "nesterov_step"),
    "trainer.MLP.forward": (trainer.MLP, "forward"),
    "trainer.MLP.backward": (trainer.MLP, "backward"),
    "trainer.MLP.backward_hidden_from_dh": (trainer.MLP, "backward_hidden_from_dh"),
    "losses.batch_loss_grad": (losses, "batch_loss_grad"),
    "losses.batch_negll": (losses, "batch_negll"),
    "losses.batch_scores": (losses, "batch_scores"),
    "bound.batch_bound_loss_grad": (bound, "batch_bound_loss_grad"),
    "bound.batch_bound_partials": (bound, "batch_bound_partials"),
    "bound.golden_section_minimize": (bound, "golden_section_minimize"),
    "fast_output.forward_stats": (fast_output.FactoredOutputLayer, "forward_stats"),
    "fast_output.backward_h": (fast_output.FactoredOutputLayer, "backward_h"),
    "fast_output.sgd_step": (fast_output.FactoredOutputLayer, "sgd_step"),
    "fast_output.rebase": (fast_output.FactoredOutputLayer, "rebase"),
    "fast_output.materialize": (fast_output.FactoredOutputLayer, "materialize"),
}

# span name -> function of the call's (args, kwargs) giving a count to add up
COUNTERS: Dict[str, Callable] = {
    # evaluate(model, X, y, ...): rows scored
    "trainer.evaluate": lambda args, kwargs: len(args[1]),
}

Span = Tuple[str, float, float, int]


class Tracer:
    """Records spans for the named targets while active.

    With ``capture_layers`` it also keeps every ``FactoredOutputLayer``
    built while active, so the layer's own counters can be read afterwards.
    """

    def __init__(self, names, capture_layers: bool = False):
        unknown = set(names) - set(TARGETS)
        if unknown:
            raise ValueError(f"unknown trace targets: {sorted(unknown)}")
        self.names = list(names)
        self.capture_layers = capture_layers
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.layers: List[fast_output.FactoredOutputLayer] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def __enter__(self):
        for name in self.names:
            owner, attr = TARGETS[name]
            self._install(owner, attr, self._wrap(name, getattr(owner, attr)))
        if self.capture_layers:
            cls = fast_output.FactoredOutputLayer
            init = cls.__init__

            def capturing_init(layer, *args, **kwargs):
                init(layer, *args, **kwargs)
                self.layers.append(layer)

            self._install(cls, "__init__", capturing_init)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
        return False

    def _install(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if counter is not None:
                    counts[name] += counter(args, kwargs)

        return wrapper

    def total_s(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds ``s``, ``self_s`` and the
        summed ``count`` of names that have a counter."""
        child_s = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "count": self.counts.get(name, 0.0)})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_s[i]
        return out
