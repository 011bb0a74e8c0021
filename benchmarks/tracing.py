"""Per-module timings for the traced run, taken from outside the package.

A ``Tracer`` replaces a public name that one quirk module looks up in
another (``quirk.train.network_backward``, ``quirk.interpret.fit_poly``,
...) with a wrapper that times every call, then puts the original back on
``close``.  Each wrapped call adds one span duration to its label's total;
``take`` returns the totals and call counts gathered since the last
``take`` and starts over, so each pipeline phase reads only its own calls.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._seconds = defaultdict(float)
        self._calls = defaultdict(int)
        self._patched = []

    def wrap(self, module, attr: str, label) -> None:
        """Time calls to ``module.attr``; ``label`` is a span name or a
        function of the call's positional arguments that returns one."""
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                name = label(*args) if callable(label) else label
                self._seconds[name] += time.perf_counter() - start
                self._calls[name] += 1

        setattr(module, attr, timed)
        self._patched.append((module, attr, original))

    def take(self):
        """(seconds, calls) per label since the last take; then reset."""
        seconds, calls = dict(self._seconds), dict(self._calls)
        self._seconds.clear()
        self._calls.clear()
        return seconds, calls

    def close(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
