"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers sit on module attributes of the installed ``typetaste``
package, so calls that go through a module global (``kmeans.fit`` calling
``lloyd``, ``metrics.evaluate`` calling ``silhouette``, ``cli`` calling
``ingest.load_dataset``) are recorded without any change to the package.
Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

# Modules whose public functions are wrapped.  ``domain`` is left out on
# purpose: ``check_rating`` and ``parse_mbti`` run once per cell or record,
# and wrapping them would trace the tracer.  Only the two matrix accessors of
# ``Dataset`` are wrapped there.
WRAPPED_MODULES = ("cli", "ingest", "pca", "kmeans", "metrics", "analysis", "recommend")
DATASET_METHODS = ("feature_matrix", "rating_matrix")


class Tracer:
    """Spans as ``[name, start, end, parent, notes]`` rows.  ``parent`` is
    ``-1`` for a root; ``notes`` holds the counts taken at that boundary
    (rows loaded, Lloyd iterations), or ``None``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Graft the spans a child process wrote under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so child timestamps line up with the parent's.
        """
        offset = len(self.spans)
        for name, start, end, child_parent, notes in spans:
            up = parent if child_parent < 0 else child_parent + offset
            self.spans.append([name, start, end, up, notes])

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _after_lloyd(row: list, args: tuple, kwargs: dict, result) -> None:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    row[4] = {
        "iterations": result.iterations,
        "maxed": int(config is not None and result.iterations >= config.max_iters),
    }


def _after_load(row: list, args: tuple, kwargs: dict, result) -> None:
    row[4] = {"rows": len(result)}


AFTER_HOOKS = {"kmeans.lloyd": _after_lloyd, "ingest.load_dataset": _after_load}


def _wrap(tracer: Tracer, name: str, func):
    after = AFTER_HOOKS.get(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as index:
            result = func(*args, **kwargs)
            if after is not None:
                after(tracer.spans[index], args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every public function of the traced modules; return an undo
    callable that puts the originals back."""
    originals: list[tuple[object, str, object]] = []
    for short in WRAPPED_MODULES:
        module = importlib.import_module(f"typetaste.{short}")
        for attr, obj in list(vars(module).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                originals.append((module, attr, obj))
                setattr(module, attr, _wrap(tracer, f"{short}.{attr}", obj))
    dataset_cls = importlib.import_module("typetaste.domain").Dataset
    for attr in DATASET_METHODS:
        obj = vars(dataset_cls)[attr]
        originals.append((dataset_cls, attr, obj))
        setattr(dataset_cls, attr, _wrap(tracer, f"domain.Dataset.{attr}", obj))

    def undo() -> None:
        for owner, attr, obj in originals:
            setattr(owner, attr, obj)

    return undo


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration less the part its direct children cover.

    Children of one span never overlap (one thread per process, and the
    parent waits for each child process), so subtraction is exact.
    """
    own = [row[2] - row[1] for row in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
