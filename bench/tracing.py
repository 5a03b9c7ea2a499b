"""Span tracing of the adamsrr modules, installed from outside the package.

`Tracer.install` replaces each public function of the modules `expr`,
`splitting`, `picard`, `chow`, `rewrite` and `cli`, and each public method of
their public classes, by a wrapper that records a span (name, start, end,
parent) and a call count.  Nothing in `src/` changes: the wrappers are module
and class attributes, and `uninstall` puts the originals back.

Spans stay in memory (four flat arrays) and are written out once, by
`write_spans`, after the traced pass.  A direct recursive call of a wrapped
function is counted but opens no span of its own, so the recursion is folded
into the outermost span; this keeps the span count to a few per public call.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("expr", "splitting", "picard", "chow", "rewrite", "cli")

# Operator methods wrapped besides the public names, and the metric names
# they are reported under.
EXTRA_METHODS = {("splitting", "SplitClass", "__mul__"): "mul",
                 ("rewrite", "Geometry", "__init__"): "init"}

# Node types on which `truncated_eval` falls back to a full evaluation.
FALLBACK_NODES = {"Pull": "pull", "Theta": "theta", "Psi": "psi"}


def self_times(names, starts, ends, parents) -> dict[int, float]:
    """Self time per name id: each span's duration minus its direct children's."""
    child = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    out: dict[int, float] = defaultdict(float)
    for i, nid in enumerate(names):
        out[nid] += ends[i] - starts[i] - child[i]
    return out


def total_times(names, starts, ends) -> dict[int, float]:
    out: dict[int, float] = defaultdict(float)
    for i, nid in enumerate(names):
        out[nid] += ends[i] - starts[i]
    return out


class Tracer:
    """Records spans and counters while installed on a loaded adamsrr package."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.ids: dict[str, int] = {}
        self.labels: list[str] = []
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.open: list[int] = []     # indexes of open spans, innermost last
        self.active: list[int] = []   # name ids of every wrapped call in progress
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.trunc_args: list = []    # `e` of each truncated_eval call in progress
        self.chain_marks: list[list[float]] = []  # per open verify_arr_identity
        self.step_ms: dict[int, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------
    def install(self) -> None:
        hooks = self._hooks()
        for short in MODULES:
            mod = self.modules[short]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    self._patch(mod, attr, value, f"{short}.{attr}", hooks)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._patch_class(short, value, hooks)
        rewrite = self.modules["rewrite"]
        for cls in (rewrite.ProofTrace, rewrite.TraceStep):
            self._restore.append((cls, "__init__", cls.__dict__["__init__"]))
            cls.__init__ = self._step_marker(cls.__init__, cls is rewrite.TraceStep)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch_class(self, short: str, cls: type, hooks: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            metric = EXTRA_METHODS.get((short, cls.__name__, attr))
            if metric is None:
                if attr.startswith("_"):
                    continue
                metric = attr
            name = f"{short}.{cls.__name__}.{metric}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name, hooks.get(name)))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, hooks.get(name)))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, hooks.get(name))
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _patch(self, owner, attr: str, fn, name: str, hooks: dict) -> None:
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, hooks.get(name)))

    def _id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.labels)
            self.labels.append(name)
        return nid

    def _wrap(self, fn, name: str, hook):
        nid = self._id(name)
        calls, open_, active = self.calls, self.open, self.active
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            after = hook(args, kwargs) if hook is not None else None
            result = None
            active.append(nid)
            try:
                if open_ and names[open_[-1]] == nid:
                    result = fn(*args, **kwargs)
                else:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(open_[-1] if open_ else -1)
                    ends.append(0.0)
                    open_.append(idx)
                    starts.append(clock())
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        ends[idx] = clock()
                        open_.pop()
            finally:
                active.pop()
                if after is not None:
                    after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters measured where the work happens --------------------------------
    def _hooks(self) -> dict:
        counters, trunc_args, chain_marks = self.counters, self.trunc_args, self.chain_marks
        split_class = self.modules["splitting"].SplitClass
        trunc_id = self._id("splitting.truncated_eval")
        active = self.active

        def mul(args, kwargs):
            if len(args) == 2 and isinstance(args[1], split_class):
                counters["splitting.SplitClass.mul.term_pairs"] += \
                    len(args[0].terms) * len(args[1].terms)

        def filtration(args, kwargs):
            counters["splitting.truncated_filtration.terms_in"] += len(args[0].terms)

            def after(result):
                if result is not None:
                    counters["splitting.truncated_filtration.terms_out"] += len(result.terms)
            return after

        def eval_expr(args, kwargs):
            e, ctx = args[0], args[1]
            if e in getattr(ctx, "_eval_cache", ()):
                counters["splitting.eval_expr.cache_hits"] += 1
                return
            if trunc_args and trunc_args[-1] is e and active and active[-1] == trunc_id:
                kind = FALLBACK_NODES.get(type(e).__name__)
                if kind is not None:
                    counters[f"splitting.truncated_eval.fallback_{kind}"] += 1

        def truncated_eval(args, kwargs):
            e, ctx, cutoff = args[0], args[1], args[2]
            if (e, cutoff) in getattr(ctx, "_trunc_cache", ()):
                counters["splitting.truncated_eval.cache_hits"] += 1
            trunc_args.append(e)
            return lambda result: trunc_args.pop()

        def chain(args, kwargs):
            chain_marks.append([time.perf_counter()])
            return lambda result: chain_marks.pop()

        return {"splitting.SplitClass.mul": mul,
                "splitting.truncated_filtration": filtration,
                "splitting.eval_expr": eval_expr,
                "splitting.truncated_eval": truncated_eval,
                "rewrite.verify_arr_identity": chain}

    def _step_marker(self, init, is_step: bool):
        """Time each numbered chain step as the interval since the previous record.

        The chain's ProofTrace is built just before step (1), so its
        construction is the first mark; each TraceStep (k) closes step k.
        """
        chain_marks, step_ms, active = self.chain_marks, self.step_ms, self.active
        chain_id = self._id("rewrite.verify_arr_identity")

        def marked_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            now = time.perf_counter()
            # only records made by the innermost chain itself, not by a caller
            if not (chain_marks and active and active[-1] == chain_id):
                return
            mark = chain_marks[-1]
            if is_step:
                num = obj.label.strip("()")
                if num.isdigit() and 1 <= int(num) <= 9:
                    step_ms[int(num)] += (now - mark[0]) * 1e3
            mark[0] = now

        return marked_init

    # -- results --------------------------------------------------------------------
    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """The per-layer figures recorded, per round of the workload; absent ones are 0."""
        own = self_times(self.names, self.starts, self.ends, self.parents)
        whole = total_times(self.names, self.starts, self.ends)
        out: dict[str, float] = {}
        for name, nid in self.ids.items():
            out[f"{name}.calls"] = self.calls.get(name, 0) / rounds
            out[f"{name}.self_ms"] = own.get(nid, 0.0) * 1e3 / rounds
            out[f"{name}.total_ms"] = whole.get(nid, 0.0) * 1e3 / rounds
        for key, value in self.counters.items():
            out[key] = value / rounds
        for short in ("eval_expr", "truncated_eval"):
            calls = self.calls.get(f"splitting.{short}", 0)
            hits = self.counters.get(f"splitting.{short}.cache_hits", 0)
            out[f"splitting.{short}.cache_hit_ratio"] = hits / calls if calls else 0.0
        for k in range(1, 10):
            out[f"rewrite.step{k}_ms"] = self.step_ms.get(k, 0.0) / rounds
        out["rewrite.Geometry.init_ms"] = out.get("rewrite.Geometry.init.total_ms", 0.0)
        return out

    def write_spans(self, path) -> None:
        """One line per span: index, parent index, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            labels = self.labels
            for i, nid in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{labels[nid]}\t"
                         f"{int(self.starts[i] * 1e9)}\t{int(self.ends[i] * 1e9)}\n")
