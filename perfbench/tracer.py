"""Run `sono` with every layer boundary timed, then dump the spans as JSON.

    python3 perfbench/tracer.py SPANS.json score --input ... --out ... --mode ...

The program is traced from outside: the public functions of the layer modules
(and ThresholdProvider.get, the threshold cache boundary) are wrapped, and each
wrapper is patched into every `sono` module that imported the original, so that
e.g. `sono.thresholds.find_c` and `sono.engine.determine_maxlen` are traced as
well as `sono.simci.find_c`. The wrapped program then runs as `sono.cli.main`
in this process, which exits with its status.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("data", "thresholds", "simci", "lattice", "scoring", "engine", "cli")
METHODS = (("thresholds", "ThresholdProvider", "get"),)
# Called once per table cell or per nu evaluation: timing them would cost more
# than the work they do. Their time stays inside the nu span that calls them.
UNTRACED = {"simci.poisson_log_pmf", "simci.truncation_bounds"}


class Tracer:
    """Spans kept in memory as [name index, start, end, parent span index]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.thresholds: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        code = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_result = name == "thresholds.subset_thresholds"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [code, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep_result:
                self.thresholds.append([list(result.subset), result.c, result.gamma])
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sono.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[obj] = self.wrap(name, obj)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "sono"]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"sono.{layer}"), cls_name)
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))


def main(argv: list[str]) -> int:
    out_path, sono_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import sono.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    status = sono.cli.main(sono_argv)
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "names": tracer.names, "spans": tracer.spans,
                   "thresholds": tracer.thresholds}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
