"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function of the package's modules
with a wrapper that records a span, in each module namespace where the
program looks the function up. Calls between modules therefore nest: a
`cli.cmd_fit` span holds `pipeline.fit_segmented`, which holds
`cart.build_tree`, and so on. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time

# The package's modules; each span name starts with the module it ran in.
LAYERS = ("data", "outliers", "cart", "leaf_models", "pipeline", "persistence",
          "evaluation", "cli")

# Scalar helpers called once per tree node, tens of thousands of times per
# forest fit. Wrapping them would multiply the tracing overhead of the
# `outliers` layer without telling anything the enclosing spans do not.
_UNWRAPPED = {"average_path_length"}


class Tracer:
    """Records (name, start, end, parent, round) spans for wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, round]
        self.round = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, func, name: str):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, open_[-1] if open_ else -1, self.round])
            open_.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or attr in _UNWRAPPED
                        or not inspect.isfunction(value)
                        or not value.__module__.startswith(package.__name__ + ".")):
                    continue
                key = id(value)
                if key not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[key] = self._wrap(value, f"{layer}.{value.__name__}")
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- summaries -------------------------------------------------------

    def durations(self, name: str, round_: int) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == round_]

    def layer_self_time(self, name: str, round_: int) -> float:
        """Total time of `name` spans not covered by spans of other layers.

        Nested spans of the span's own layer count as its own time, so the
        figure is what that layer's code spent outside every other layer.
        """
        layer = name.split(".", 1)[0]
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[4] == round_ and s[3] >= 0:
                children.setdefault(s[3], []).append(i)

        def own(i: int) -> float:
            s = self.spans[i]
            t = s[2] - s[1]
            for c in children.get(i, ()):
                if self.spans[c][0].split(".", 1)[0] == layer:
                    t -= (self.spans[c][2] - self.spans[c][1]) - own(c)
                else:
                    t -= self.spans[c][2] - self.spans[c][1]
            return t

        return sum(own(i) for i, s in enumerate(self.spans)
                   if s[0] == name and s[4] == round_)

    def to_doc(self) -> dict:
        return {"columns": ["name", "start_s", "end_s", "parent", "round"],
                "spans": self.spans}
