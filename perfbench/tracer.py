"""Call tracing from outside the package.

`install` wraps the public functions and class methods of the mdsforge
modules in place; nothing under `src/` is edited.  Every wrapped call is a
span.  Per name the tracer keeps the call count, the inclusive time and the
self time (the span's duration minus the time its wrapped child spans
cover).  Per-call span records would run to millions for the arithmetic
kernels, so only the coarse stage functions in `STAGES` are also recorded
one by one as (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import types

clock = time.perf_counter

MODULES = ("fq", "lseries", "rings", "d4", "mds", "moments", "cli")

# Hot constructors and hashing: wrapping them would mostly measure the
# wrapper, and their cost stays inside the caller's self time.
SKIP_METHODS = {"__init__", "__repr__", "__hash__"}

# Calls recorded as individual spans (bounded in number on every workload).
STAGES = {
    "fq.build_field", "d4.f_series_capped",
    "mds.zc_buckets_vers0", "mds.zc_buckets_vers1", "mds.zc_buckets_vers2",
    "mds.compare_routes", "mds.check_sieve_identity",
    "mds.check_fundamental_decomposition", "mds.sieved_t4_series",
    "mds.residue_z0_three_quarters",
    "moments.moment_table", "moments.moment_sum",
    "moments.sieve_reconstructed_moment", "moments.store_moment",
    "moments.load_moment",
    "cli.cmd_moments", "cli.cmd_verify_series", "cli.cmd_residue_z0",
    "cli.Report.finish",
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "items", "code", "cached")

    def __init__(self, code, cached):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0
        self.code = code        # (file, first line, name) of the wrapped code
        self.cached = cached    # the lru_cache wrapper, if the function has one


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []          # [name, start, end, parent index]
        self._open = []          # indices of open stage spans
        self._child = [0.0]      # child time of each open span; [0] is the root
        self._wrappers = {}      # id(original) -> wrapper

    # -- spans opened by the benchmark itself ------------------------------

    @contextlib.contextmanager
    def stage(self, name):
        """A span around a block of the benchmark's own code."""
        self._child.append(0.0)
        t0 = clock()
        self._begin(name, t0)
        try:
            yield
        finally:
            t1 = clock()
            self._end(t1)
            self._child.pop()
            self._child[-1] += t1 - t0

    def _begin(self, name, t0):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, t0, None, parent])
        self._open.append(len(self.spans) - 1)

    def _end(self, t1):
        self.spans[self._open.pop()][2] = t1

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name):
        """Return the traced wrapper of ``fn`` (one wrapper per function)."""
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        cached = fn if hasattr(fn, "cache_info") else None
        target = fn.__wrapped__ if cached else fn
        code = target.__code__
        stat = Stat((code.co_filename, code.co_firstlineno, code.co_name), cached)
        self.stats[name] = stat
        if inspect.isgeneratorfunction(target):
            wrapper = self._gen_wrapper(fn, stat)
        else:
            wrapper = self._call_wrapper(fn, stat, name if name in STAGES else None)
        functools.update_wrapper(wrapper, fn)
        self._wrappers[key] = wrapper
        return wrapper

    def _call_wrapper(self, fn, stat, stage):
        """`stage` is the span name to record each call under, or None."""
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            if stage:
                self._begin(stage, t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if stage:
                    self._end(t1)
                dt = t1 - t0
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child.pop()
                child[-1] += dt
        return traced

    def _gen_wrapper(self, fn, stat):
        """Each resumption is a span under whatever span is open when the
        consumer asks for the next item; `items` counts what was yielded."""
        child = self._child

        def traced(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                child.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stat.total += dt
                    stat.self_time += dt - child.pop()
                    child[-1] += dt
                stat.items += 1
                yield item
        return traced


def _own_functions(namespace, module_name):
    """Public functions and lru_cache wrappers defined in the module."""
    for attr, obj in list(namespace.items()):
        if attr.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
        if isinstance(target, types.FunctionType) and target.__module__ == module_name:
            yield attr, obj


def _own_classes(namespace, module_name):
    for obj in list(namespace.values()):
        if isinstance(obj, type) and obj.__module__ == module_name:
            yield obj


def install(tracer, package):
    """Wrap every public function and every method of the classes defined in
    the modules of ``package``, and rebind each name everywhere it is bound:
    in every module namespace (``from ... import`` copies included) and in
    module-level dicts such as ``mds.ROUTES``."""
    modules = {name: getattr(package, name) for name in MODULES}
    rebind = {}
    for short, mod in modules.items():
        for attr, fn in _own_functions(vars(mod), mod.__name__):
            rebind[id(fn)] = (fn, tracer.wrap(fn, f"{short}.{attr}"))
        for cls in _own_classes(vars(mod), mod.__name__):
            for attr, raw in list(vars(cls).items()):
                if attr in SKIP_METHODS:
                    continue
                if isinstance(raw, staticmethod):
                    fn = raw.__func__
                    name = f"{short}.{fn.__qualname__}"
                    setattr(cls, attr, staticmethod(tracer.wrap(fn, name)))
                elif isinstance(raw, types.FunctionType):
                    # aliases such as __radd__ = __add__ share one wrapper
                    name = f"{short}.{raw.__qualname__}"
                    setattr(cls, attr, tracer.wrap(raw, name))
    for mod in modules.values():
        space = vars(mod)
        for attr, obj in list(space.items()):
            if id(obj) in rebind and rebind[id(obj)][0] is obj:
                space[attr] = rebind[id(obj)][1]
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for k, v in list(obj.items()):
                    if id(v) in rebind and rebind[id(v)][0] is v:
                        obj[k] = rebind[id(v)][1]
