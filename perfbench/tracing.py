"""Span tracing of the brauergraph layers, installed from outside the package.

``Tracer.install`` replaces every public function and method of the layer
modules with a wrapper that records one span per call: name, start, end,
parent span and the id of the input whose verdict is running.  Functions are
replaced at every binding site (modules import each other's names into their
own namespaces); methods are replaced on their class.  Spans are kept in
compact arrays and written out by ``Tracer.dump`` when the run ends.

A few calls also feed counters (``AlgebraTable.mul`` products, span ranks,
linear-system sizes, relation counts), taken from the arguments and results
of the same wrapped calls.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "permutations",
    "core",
    "moves",
    "covering",
    "presentation",
    "algebra",
    "linalg",
    "models",
    "homotopy",
    "graphfile",
    "cli",
)

# Pipeline stages: each is the time spent inside the named public calls,
# counting nested calls of the same stage once.  Stages may nest inside one
# another (a cover inside a skew model), so they do not add up to the wall.
STAGES = {
    "parse": ("graphfile.parse",),
    "validate": ("core.validate",),
    "move": (
        "moves.move_set",
        "moves.move_set_underlying",
        "moves.move_sector",
        "moves.move_sector_underlying",
    ),
    "cover": ("covering.cover",),
    "bga_table": ("algebra.bga_table_with_keys", "algebra.bga_table"),
    "skew_group": ("algebra.skew_group_table",),
    "truncate": ("algebra.truncate",),
    "presentation_check": ("models.presentations_match",),
    "chain_map_solve": ("homotopy.hom_dimension", "homotopy.hom_space"),
    "end_table": ("homotopy.end_table",),
}

# Operator methods that are part of a class's public interface.
_PUBLIC_DUNDERS = ("__call__", "__mul__")

COUNTERS = (
    "algebra.mul_calls",
    "algebra.mul_nonzero",
    "algebra.pairwise_lookups",
    "algebra.pairwise_memo_hits",
    "algebra.table_dim_sum",
    "linalg.span_adds",
    "linalg.span_independent",
    "linalg.solve_rows",
    "linalg.solve_unknowns",
    "homotopy.hom_dimension_calls",
    "presentation.relation_count",
    "presentation.relation_terms",
    "models.relation_evals",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name in _PUBLIC_DUNDERS


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.input = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter[str] = Counter()
        self.counters: Counter[str] = Counter({key: 0 for key in COUNTERS})
        self.input_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the public calls of every layer module in ``pkg``."""
        modules = [getattr(pkg, layer) for layer in LAYERS]
        sites = [pkg.root] + modules
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if not _is_public(attr) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for site in sites:
                        for name, value in list(vars(site).items()):
                            if value is obj:
                                self._set(site, name, wrapped)
        self._hook_table_constructor(pkg.algebra.AlgebraTable)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if not _is_public(attr):
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(label, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(label, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(label, raw))

    def _span_id(self, label: str) -> int:
        if label not in self._name_ids:
            self._name_ids[label] = len(self.span_names)
            self.span_names.append(label)
        return self._name_ids[label]

    def _wrap(self, label: str, fn):
        nid = self._span_id(label)
        after = _AFTER_HOOKS.get(label)
        clock = time.perf_counter
        names, parents, inputs = self.name, self.parent, self.input
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            inputs.append(tracer.input_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[label] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer.counters, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _hook_table_constructor(self, table_cls: type) -> None:
        """Count table dimensions and memo misses of every table built.

        A memo miss is a call of the table's product function; a lookup is a
        ``pairwise`` call on a composable pair.  Neither is a span.
        """
        original = table_cls.__init__
        counters = self.counters

        def init(table, labels, src, tgt, idempotents, product_fn):
            def product(i, j):
                counters["algebra.pairwise_misses"] += 1
                return product_fn(i, j)

            original(table, labels, src, tgt, idempotents, product)
            counters["algebra.table_dim_sum"] += len(table.labels)

        self._set(table_cls, "__init__", init)

        pairwise = table_cls.pairwise

        def counted_pairwise(table, i, j):
            if table.src[i] == table.tgt[j]:
                counters["algebra.pairwise_lookups"] += 1
            return pairwise(table, i, j)

        self._set(table_cls, "pairwise", counted_pairwise)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time, calls and escaped errors per layer; stage times; counters."""
        n = len(self.start)
        layer_of = [label.split(".", 1)[0] for label in self.span_names]
        self_time = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        errors = dict.fromkeys(LAYERS, 0)
        child = [0.0] * n
        name, parent, start, end = self.name, self.parent, self.start, self.end
        # A span is recorded after its parent, so a backward sweep has added
        # up every child's time before it reaches the parent.
        for i in reversed(range(n)):
            duration = end[i] - start[i]
            layer = layer_of[name[i]]
            self_time[layer] += duration - child[i]
            calls[layer] += 1
            if parent[i] >= 0:
                child[parent[i]] += duration
        for label, count in self.errors.items():
            errors[label.split(".", 1)[0]] += count

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.errors"] = errors[layer]
        out.update(self._stage_times())

        c = Counter(self.counters)
        lookups = c["algebra.pairwise_lookups"]
        c["algebra.pairwise_memo_hits"] = lookups - c["algebra.pairwise_misses"]
        out.update((key, c[key]) for key in COUNTERS)
        out["algebra.mul_nonzero_ratio"] = _ratio(c["algebra.mul_nonzero"], c["algebra.mul_calls"])
        out["algebra.pairwise_memo_hit_ratio"] = _ratio(c["algebra.pairwise_memo_hits"], lookups)
        out["linalg.span_independent_ratio"] = _ratio(
            c["linalg.span_independent"], c["linalg.span_adds"]
        )
        out["trace.spans"] = n
        return out

    def _stage_times(self) -> dict[str, float]:
        stage_of = {
            self._name_ids[label]: stage
            for stage, labels in STAGES.items()
            for label in labels
            if label in self._name_ids
        }
        totals = {f"stage.{stage}_s": 0.0 for stage in STAGES}
        name, parent = self.name, self.parent
        for i in range(len(name)):
            stage = stage_of.get(name[i])
            if stage is None:
                continue
            p = parent[i]
            while p >= 0 and stage_of.get(name[p]) != stage:
                p = parent[p]
            if p < 0:
                totals[f"stage.{stage}_s"] += self.end[i] - self.start[i]
        return totals

    def dump(self, base: Path) -> None:
        """Write the spans to ``base``.bin as five native-endian columns, one
        after another, and their layout and name table to ``base``.json."""
        columns = (
            ("name", self.name),
            ("parent", self.parent),
            ("input", self.input),
            ("start", self.start),
            ("end", self.end),
        )
        header = {
            "spans": len(self.start),
            "names": self.span_names,
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns],
            "errors": dict(self.errors),
        }
        with open(f"{base}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(f"{base}.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _count_mul(counters, args, result) -> None:
    counters["algebra.mul_calls"] += 1
    if result:
        counters["algebra.mul_nonzero"] += 1


def _count_span_add(counters, args, result) -> None:
    counters["linalg.span_adds"] += 1
    if result is not None:
        counters["linalg.span_independent"] += 1


def _count_solve(counters, args, result) -> None:
    counters["linalg.solve_rows"] += len(args[0])
    counters["linalg.solve_unknowns"] += len(args[1])


def _count_hom_dimension(counters, args, result) -> None:
    counters["homotopy.hom_dimension_calls"] += 1


def _count_relations(counters, args, result) -> None:
    counters["presentation.relation_count"] += len(result)
    counters["presentation.relation_terms"] += sum(len(rel.terms) for rel in result)


def _count_relation_eval(counters, args, result) -> None:
    counters["models.relation_evals"] += 1


_AFTER_HOOKS = {
    "algebra.AlgebraTable.mul": _count_mul,
    "linalg.RationalSpan.add": _count_span_add,
    "linalg.solve_homogeneous": _count_solve,
    "homotopy.hom_dimension": _count_hom_dimension,
    "presentation.relations": _count_relations,
    "models.GraphAlgebraModel.evaluate_relation": _count_relation_eval,
}
