"""Traced entry point for one finpop CLI call.

    python perfbench/traced_cli.py SPANS.npz [finpop arguments ...]

Imports `finpop.harness.cli` under a timer, wraps the public functions of
every finpop module at every binding site (module attributes and functions
held in module-level dicts, so `from .designs import draw_partition_batch`
in randtests is wrapped too), runs `cli.main(argv)` and, at exit, writes
one span per wrapped call (layer, start, end, parent) plus a few counters to
SPANS.npz. Spans live in flat arrays until then. Time spent in `next()` on an
`enumerate_partitions` generator is a span of its own in `designs.enum`.

Layers are the package's modules; `randtests`, `designs` and `experiments`
are split by role (see LAYER_OF). Self time is computed from the spans by
the benchmark, not here.
"""

import sys
import time
from array import array

_clock = time.perf_counter

DEFAULT_LAYER = {
    "finpop.harness.cli": "cli",
    "finpop.harness.ingest": "ingest",
    "finpop.harness.reports": "reports",
    "finpop.harness.experiments": "experiments.suite",
    "finpop.estimators": "estimators",
    "finpop.popstats": "popstats",
    "finpop.ivconf": "ivconf",
    "finpop.distlib": "distlib",
    "finpop.randtests": "randtests.stat",
    "finpop.designs": "designs.other",
}

LAYER_OF = {
    "mc_randomization_pvalue": "randtests.engine",
    "exact_randomization_pvalue": "randtests.engine",
    "rank_stat_normal_pvalue": "randtests.engine",
    "hypergeom_test": "randtests.engine",
    "joint_test": "randtests.engine",
    "enumerate_partitions": "designs.enum",
    "draw_partition": "designs.draw",
    "draw_partition_batch": "designs.draw",
    "draw_srs": "designs.draw",
    "draw_rerandomized": "designs.draw",
    "run_oracle_suite": "experiments.oracle",
    "run_coverage_experiment": "experiments.coverage",
    # run_clt_experiment is charged to experiments.clt or experiments.rerand
    # by the kind of its config
}

# These helpers run inside a campaign; leaving them
# unwrapped charges them to that campaign's self time.
UNWRAPPED = {"synthetic_population", "coverage_table"}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = {
            "ingest.rows": 0,
            "designs.enum.assignments": 0,
            "designs.draw.assignments": 0,
            "randtests.stat.calls": 0,
            "randtests.rank_transforms": 0,
            "engine.assignments": 0,
            "engine.stat_calls": 0,
        }
        self.stat_depth = 0
        self.engine_depth = 0
        self.draw_depth = 0

    def layer_id(self, name: str) -> int:
        if name not in self.layer_ids:
            self.layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_ids[name]

    def open(self, layer: int) -> int:
        idx = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        self.layer.append(self.layer_id(name))
        self.parent.append(self.stack[-1])
        self.start.append(start)
        self.end.append(end)

    def count_assignments(self, key: str, k: int) -> None:
        self.counters[key] += k
        if self.engine_depth:
            self.counters["engine.assignments"] += k

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, module: str):
        name = fn.__name__
        if name == "run_clt_experiment":
            return self._by_kind(fn)
        layer = LAYER_OF.get(name, DEFAULT_LAYER[module])
        lid = self.layer_id(layer)
        if name == "enumerate_partitions":
            return self._enum(fn, lid)
        if layer == "designs.draw":
            return self._draw(fn, lid)
        if name == "ingest_csv":
            return self._ingest(fn, lid)
        if layer == "randtests.stat":
            return self._stat(fn, lid, name == "rank_transform")
        if layer == "randtests.engine":
            return self._engine(fn, lid)
        return self._plain(fn, lid)

    def _plain(self, fn, lid):
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _by_kind(self, fn):
        ids = {kind: self.layer_id("experiments." + kind) for kind in ("clt", "rerand")}

        def wrapper(config, *args, **kwargs):
            idx = self.open(ids.get(getattr(config, "kind", None), ids["clt"]))
            try:
                return fn(config, *args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _ingest(self, fn, lid):
        def wrapper(*args, **kwargs):
            idx = self.open(lid)
            try:
                data = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counters["ingest.rows"] += int(data.n_units)
            return data
        return wrapper

    def _stat(self, fn, lid, is_rank):
        tracer, counters = self, self.counters
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            if not tracer.stat_depth:
                counters["randtests.stat.calls"] += 1
                if tracer.engine_depth:
                    counters["engine.stat_calls"] += 1
            if is_rank:
                counters["randtests.rank_transforms"] += 1
            tracer.stat_depth += 1
            idx = open_(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
                tracer.stat_depth -= 1
        return wrapper

    def _engine(self, fn, lid):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.engine_depth += 1
            idx = tracer.open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.engine_depth -= 1
        return wrapper

    def _draw(self, fn, lid):
        # draw_srs and draw_rerandomized call draw_partition; only the
        # outermost draw counts its assignments
        tracer = self
        batch = fn.__name__ == "draw_partition_batch"

        def wrapper(*args, **kwargs):
            tracer.draw_depth += 1
            idx = tracer.open(lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.draw_depth -= 1
            if tracer.draw_depth:
                return out
            if batch:
                k = out.shape[0]
            elif fn.__name__ == "draw_rerandomized":
                k = out[1]
            else:
                k = 1
            tracer.count_assignments("designs.draw.assignments", int(k))
            return out
        return wrapper

    def _enum(self, fn, lid):
        tracer = self

        class TracedIter:
            def __init__(self, gen):
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.open(lid)
                try:
                    item = next(self.gen)
                finally:
                    tracer.close(idx)
                tracer.count_assignments("designs.enum.assignments", 1)
                return item

        def wrapper(*args, **kwargs):
            idx = tracer.open(lid)
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            return TracedIter(gen)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions, and the public methods of public
        classes, defined in every module of DEFAULT_LAYER, then rebind the
        functions wherever a finpop module holds them."""
        import inspect

        replaced = {}
        for module_name in DEFAULT_LAYER:
            module = sys.modules[module_name]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module_name:
                    if name not in UNWRAPPED:
                        replaced[id(obj)] = self.wrap(obj, module_name)
                elif inspect.isclass(obj) and obj.__module__ == module_name:
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            setattr(obj, attr, self.wrap(member, module_name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "finpop" and not module_name.startswith("finpop."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]

    def write(self, path: str, modules: int) -> None:
        import json

        import numpy as np

        meta = {"layers": self.layers, "counters": self.counters, "modules": modules}
        np.savez(
            path,
            layer=np.frombuffer(self.layer, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            meta=np.array(json.dumps(meta)),
        )


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = _clock()
    import finpop.harness.cli as cli
    t1 = _clock()
    modules = len(sys.modules)
    tracer.record("import", t0, t1)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path, modules)


if __name__ == "__main__":
    sys.exit(main())
