"""Per-layer tracing of one `voaf` command, installed from outside the package.

Run as a launcher in place of ``python -m voaf.cli``:

    python tracer.py OUT_PREFIX voaf-args...

It imports ``voaf.cli``, wraps the public functions of every layer in a
span recorder, calls ``voaf.cli.main(argv)`` and writes the spans to
``OUT_PREFIX.json`` (names and cache counters) and ``OUT_PREFIX.bin`` (the
span arrays) when the command returns.  ``summarize`` turns the span files
of a pass into the per-layer metrics.  The span format is private to this
file.
"""

from __future__ import annotations

import array
import json
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

# Scalar fields, as recorded in the extra slot of each Scalar.__init__ span.
FIELD_Q, FIELD_QSQRT, FIELD_QLAM = 0, 1, 2
_ONE = (Fraction(1),)


def _scalar_field(result, args) -> int:
    sc = args[0]
    if sc.mod is not None:
        return FIELD_QSQRT
    return FIELD_Q if len(sc.num) <= 1 and sc.den == _ONE else FIELD_QLAM


def _cells(rows, ncols=None) -> int:
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows) * ncols


def _system_cached(args) -> int:
    return int(args[0] in sys.modules["voaf.fusion"]._SYSTEM_CACHE)


def _length(result, args) -> int:
    return len(result)


def _series_terms(result, args) -> int:
    return len(result.coeffs)


# (module, qualified name, pre hook on args, post hook on (result, args)).
# A hook's integer lands in the span's extra slot.
TARGETS = [
    ("scalars", "Scalar.__init__", None, _scalar_field),
    ("scalars", "Scalar.__add__", None, None),
    ("scalars", "Scalar.__sub__", None, None),
    ("scalars", "Scalar.__mul__", None, None),
    ("scalars", "Scalar.__truediv__", None, None),
    ("scalars", "Scalar.__neg__", None, None),
    ("scalars", "Scalar.__eq__", None, None),
    ("linalg", "nullspace", lambda a: _cells(a[0], a[1]), None),
    ("linalg", "rank", lambda a: _cells(a[0]), None),
    ("linalg", "solve", lambda a: _cells(a[0]), None),
    ("virasoro", "L", None, None),
    ("virasoro", "L_word", None, None),
    ("virasoro", "express_in_descendants", None, None),
    ("fock", "FockVector.apply_mode", None, None),
    ("fock", "partitions_of", None, _length),
    ("fock", "basis_at_degree", None, _length),
    ("fock", "contravariant_form", None, None),
    ("vertexops", "vertex_op_coeff", None, None),
    ("vertexops", "delta_apply", None, None),
    ("zhu", "star_left", None, None),
    ("zhu", "circ", None, None),
    ("zhu", "coords_to_polys", None, None),
    ("zhu", "o_membership", None, None),
    ("multipoly", "MultiPoly.evaluate", None, None),
    ("multipoly", "MultiPoly.subs", None, None),
    ("multipoly", "MultiPoly.try_divide", None, None),
    ("multipoly", "MultiPoly.__mul__", None, None),
    ("characters", "graded_dimension", None, _series_terms),
    ("characters", "char_virasoro_c1", None, None),
    ("characters", "QSeries.__mul__", None, None),
    ("fusion", "constraint_system", _system_cached, None),
    ("fusion", "decide", None, None),
    ("fusion", "full_table", None, None),
    ("fusion", "verify_step3_generic", None, None),
    ("fusion", "generic_relation_polys", None, None),
    ("cli", "main", None, None),
    ("cli", "suite_characters", None, None),
    ("cli", "suite_zhu", None, None),
    ("cli", "suite_virasoro", None, None),
    ("cli", "suite_twisted", None, None),
    ("cli", "suite_step3", None, None),
    ("labels", "ModuleLabel.parse", None, None),
]


class Recorder:
    """Spans in parallel arrays; a span's parent is an index or -1."""

    def __init__(self):
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.extra = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn: Callable, name: str, pre=None, post=None) -> Callable:
        nid = self.name_id(name)
        names, parents, extras = self.name, self.parent, self.extra
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            extras.append(pre(args) if pre else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post:
                extras[i] = post(result, args)
            return result

        return span

    def write(self, prefix: str, header: dict):
        header = dict(header, names=self.names, spans=len(self.name))
        with open(prefix + ".json", "w") as f:
            json.dump(header, f)
        with open(prefix + ".bin", "wb") as f:
            for arr in (self.name, self.parent, self.extra, self.start, self.end):
                arr.tofile(f)


def _rebind(modules, old, new):
    """Point every name bound to `old` in the voaf modules, their classes and
    their module-level lists of tuples (the suite table) at `new`."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is old:
                        setattr(value, ckey, new)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, tuple) and any(x is old for x in item):
                        value[i] = tuple(new if x is old else x for x in item)


def install(rec: Recorder):
    import voaf.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sorted(sys.modules.items()) if n == "voaf" or n.startswith("voaf.")]
    for modname, qual, pre, post in TARGETS:
        owner = sys.modules["voaf." + modname]
        parts = qual.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p)
        raw = vars(owner)[parts[-1]]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = rec.wrap(fn, "%s.%s" % (modname, qual), pre, post)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        _rebind(modules, raw, wrapped)


def main(argv: Sequence[str]) -> int:
    prefix, args = argv[0], list(argv[1:])
    rec = Recorder()
    install(rec)
    cli = sys.modules["voaf.cli"]
    cmn = sys.modules["voaf.vertexops"].cmn_table
    try:
        rc = cli.main(args)
    finally:
        sys.stdout.flush()
        info = cmn.cache_info()
        rec.write(prefix, {"argv": args, "cmn_hits": info.hits, "cmn_misses": info.misses})
    return rc


# ----------------------------------------------------------------------
# reading spans back


def _read(prefix: str):
    with open(prefix + ".json") as f:
        header = json.load(f)
    n = header["spans"]
    arrays = [array.array(t) for t in ("i", "i", "q", "d", "d")]
    with open(prefix + ".bin", "rb") as f:
        for arr in arrays:
            arr.fromfile(f, n)
    return header, arrays


def summarize(prefixes: Sequence[str], metrics: Sequence[str]) -> Dict[str, float]:
    """The named per-layer metrics, summed over the traced commands of one pass.

    A metric ``<module>.<function>.<stat>`` with stat ``calls``, ``self_s``,
    ``s`` (inclusive time), ``cells`` or ``partitions`` is read from the
    spans of that function; the others are computed below by name.  Self
    time is a span's duration minus the durations of its direct child spans;
    spans of one process never overlap except by nesting.
    """
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    extra_sum: Dict[str, int] = {}
    fields = [0, 0, 0]
    hits = misses = cmn_hits = cmn_misses = 0
    produced = enumerated = 0
    for prefix in prefixes:
        header, (name, parent, extra, start, end) = _read(prefix)
        names = header["names"]
        cmn_hits += header["cmn_hits"]
        cmn_misses += header["cmn_misses"]
        n = len(name)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        ids = {v: k for k, v in enumerate(names)}
        init_id = ids.get("scalars.Scalar.__init__")
        cs_id = ids.get("fusion.constraint_system")
        bad_id = ids.get("fock.basis_at_degree")
        gd_id = ids.get("characters.graded_dimension")
        for i in range(n):
            key = names[name[i]]
            dur = end[i] - start[i]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + dur - child[i]
            total_s[key] = total_s.get(key, 0.0) + dur
            if extra[i] >= 0:
                extra_sum[key] = extra_sum.get(key, 0) + extra[i]
            nid = name[i]
            if nid == init_id:
                fields[extra[i]] += 1
            elif nid == cs_id:
                if extra[i]:
                    hits += 1
                else:
                    misses += 1
            elif nid == gd_id:
                produced += extra[i]
            elif nid == bad_id:
                # partitions enumerated for a series: the partitions_of
                # results under a basis_at_degree inside graded_dimension
                p = parent[i]
                while p >= 0 and name[p] != gd_id:
                    p = parent[p]
                if p >= 0:
                    enumerated += sum(extra[j] for j in _children(parent, i, n))

    def group(prefix: str, table: Dict[str, float]) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out: Dict[str, float] = {
        "scalars.Scalar.calls_q": fields[FIELD_Q],
        "scalars.Scalar.calls_qsqrt": fields[FIELD_QSQRT],
        "scalars.Scalar.calls_qlam": fields[FIELD_QLAM],
        "scalars.Scalar.self_s": group("scalars.Scalar.", self_s),
    }
    traced = {"%s.%s" % (modname, qual) for modname, qual, _, _ in TARGETS}
    for metric in metrics:
        base, _, stat = metric.rpartition(".")
        if metric in out or base not in traced:
            continue
        if stat == "calls":
            out[metric] = calls.get(base, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(base, 0.0)
        elif stat == "s":
            out[metric] = total_s.get(base, 0.0)
        elif stat in ("cells", "partitions"):
            out[metric] = extra_sum.get(base, 0)
    out["fusion.constraint_system.misses"] = misses
    out["fusion.constraint_system.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["characters.useful_ratio"] = produced / max(enumerated, 1)
    out["vertexops.cmn_table.hits"] = cmn_hits
    out["vertexops.cmn_table.misses"] = cmn_misses
    return out


def _children(parent, i: int, n: int):
    # children of span i follow it directly in start order
    j = i + 1
    while j < n and parent[j] >= i:
        if parent[j] == i:
            yield j
        j += 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
