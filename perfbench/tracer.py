"""Outside-in tracing of friabilis for the benchmark's traced run.

`install(tracer)` replaces each layer's public functions with wrappers that
record one span per call: name, start, end and the span open when the call
began.  The program is not changed; the wrappers are put into every module
namespace that binds the function (the package uses `from` imports), and
methods are wrapped on their class.  Spans stay in memory in flat arrays and
are written out once, after the last call, by `Tracer.save`.

`summarize(path)` turns a saved trace into per-layer metrics: call counts,
self times (span time minus the time child spans cover), work counts and
the three ratios the README describes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("arith", "dickman", "saddle", "divdist", "perron", "experiments", "kernels", "cli")

# (module, attribute, span name); for "Class.method" the method is wrapped on
# its class.  kernels names are attributes of the live backend module.
FUNCTIONS = (
    ("arith", "sieve_primes", "arith.sieve_primes"),
    ("arith", "factorize", "arith.factorize"),
    ("arith", "psi_exact", "arith.psi_exact"),
    ("arith", "psi_recursive", "arith.psi_recursive"),
    ("dickman", "dickman_rho", "dickman.dickman_rho"),
    ("dickman", "psi_dickman_estimate", "dickman.psi_dickman_estimate"),
    ("dickman", "RhoTable.build", "dickman.RhoTable.build"),
    ("saddle", "make_context", "saddle.make_context"),
    ("saddle", "solve_alpha", "saddle.solve_alpha"),
    ("saddle", "psi_saddle_estimate", "saddle.psi_saddle_estimate"),
    ("divdist", "moments", "divdist.moments"),
    ("divdist", "exact_law", "divdist.exact_law"),
    ("divdist", "nudge_off_atom", "divdist.nudge_off_atom"),
    ("divdist", "additive_fk", "divdist.additive_fk"),
    ("divdist", "model_mean_additive", "divdist.model_mean_additive"),
    ("divdist", "DivisorLaw.upper_tail", "divdist.upper_tail"),
    ("perron", "tail_report", "perron.tail_report"),
    ("perron", "perron_tail_quadrature", "perron.perron_tail_quadrature"),
    ("perron", "solve_beta", "perron.solve_beta"),
    ("perron", "log_mgf_derivative", "perron.log_mgf_derivative"),
    ("perron", "log_mgf", "perron.log_mgf"),
    ("perron", "saddle_tail_approx", "perron.saddle_tail_approx"),
    ("perron", "gaussian_tail", "perron.gaussian_tail"),
    ("experiments", "run_average", "experiments.run_average"),
    ("experiments", "run_clt", "experiments.run_clt"),
    ("experiments", "run_concentration", "experiments.run_concentration"),
    ("experiments", "arcsine_check", "experiments.arcsine_check"),
    ("experiments", "RunResult.write_csv", "experiments.write_csv"),
    ("experiments", "RunResult.to_json", "experiments.to_json"),
)
KERNELS = (
    "divisor_products",
    "tau_sieve",
    "small_divisor_count_sieve",
    "prime_mask",
    "spf_sieve",
    "kahan_sum",
    "moment_scan",
)
STREAM = "arith.enumerate_smooth"  # spans around each next() of S(x, y)


class Tracer:
    """Spans in flat arrays: a name id, start, end and parent index each.

    A span's index is taken when it opens, so a parent's index is always
    below its children's; -1 marks a root span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open = [-1]
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, after=None):
        """fn with a span per call; after(counters, args, kwargs, result)
        adds work counts, and a raised exception is counted by type."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(i)
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            self.close(i)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def wrap_stream(self, name: str, iter_method):
        """__iter__ whose iterator records a span around every next()."""
        nid = self.name_id(name)
        counters = self.counters

        def stream(inner):
            while True:
                i = self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    self.close(i)
                    return
                except BaseException:
                    self.close(i)
                    raise
                self.close(i)
                counters[f"{name}.items"] += 1
                yield item

        @functools.wraps(iter_method)
        def traced_iter(obj):
            return stream(iter_method(obj))

        return traced_iter

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            counter_keys=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
        )


def _out_bytes(counters, args, kwargs, result, name):
    arrays = result if isinstance(result, tuple) else (result,)
    counters[f"{name}.out_bytes"] += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _atoms(counters, args, kwargs, law):
    counters["divdist.exact_law.atoms"] += len(law.values)


def _nudges(counters, args, kwargs, result):
    counters["divdist.nudge_off_atom.nudged"] += bool(result[1])


def _replace_everywhere(original, wrapper) -> int:
    """Bind wrapper wherever a friabilis module binds original."""
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if modname != "friabilis" and not modname.startswith("friabilis."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported friabilis package."""
    import friabilis.cli
    from friabilis import _backend, arith

    modules = {name: sys.modules[f"friabilis.{name}"] for name in
               ("arith", "dickman", "saddle", "divdist", "perron", "experiments")}

    for modname, attr, name in FUNCTIONS:
        module = modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        original = getattr(module, attr)
        after = None
        if name == "divdist.exact_law":
            after = _atoms
        elif name == "divdist.nudge_off_atom":
            after = _nudges
        elif name == "perron.perron_tail_quadrature":
            sig = inspect.signature(original)

            def after(counters, args, kwargs, result, sig=sig):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counters["perron.perron_tail_quadrature.nodes"] += 4 * int(bound.arguments["steps"])

        if not _replace_everywhere(original, tracer.wrap(name, original, after)):
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")

    kernels = _backend.kernels
    for attr in KERNELS:
        original = getattr(kernels, attr)
        wrapper = tracer.wrap(f"kernels.{attr}", original,
                              functools.partial(_out_bytes, name=f"kernels.{attr}"))
        setattr(kernels, attr, wrapper)
        _replace_everywhere(original, wrapper)

    arith.SmoothSet.__iter__ = tracer.wrap_stream(STREAM, arith.SmoothSet.__iter__)

    main = friabilis.cli.main

    @functools.wraps(main)
    def traced_main(argv=None):
        i = tracer.open(tracer.name_id(f"cli.{argv[0]}"))
        try:
            return main(argv)
        finally:
            tracer.close(i)

    friabilis.cli.main = traced_main


# -- reading a saved trace ---------------------------------------------------


def load(path) -> dict:
    with np.load(path) as data:
        trace = {key: data[key] for key in data.files}
    trace["counters"] = dict(zip(trace.pop("counter_keys").tolist(),
                                 trace.pop("counter_values").tolist()))
    return trace


def self_times(trace: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = trace["ends"] - trace["starts"]
    parents = trace["parents"]
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def count_within(trace: dict, name: str, ancestor: str) -> int:
    """Spans called `name` that have an `ancestor` span above them."""
    names = trace["names"].tolist()
    if name not in names or ancestor not in names:
        return 0
    nid, aid = names.index(name), names.index(ancestor)
    ids, parents = trace["name_ids"], trace["parents"]
    found = 0
    for i in np.nonzero(ids == nid)[0].tolist():
        p = int(parents[i])
        while p >= 0 and ids[p] != aid:
            p = int(parents[p])
        found += p >= 0
    return found


def summarize(trace: dict) -> dict[str, float]:
    """Per-span-name `.calls`, `.s` (total) and `.self_s`, per-layer
    `<layer>.self_s`, the work counters and the derived ratios."""
    names = trace["names"].tolist()
    ids = trace["name_ids"]
    dur = trace["ends"] - trace["starts"]
    own = self_times(trace)
    calls = np.bincount(ids, minlength=len(names))
    total = np.bincount(ids, weights=dur, minlength=len(names))
    self_s = np.bincount(ids, weights=own, minlength=len(names))
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for k, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[k])
        out[f"{name}.s"] = float(total[k])
        out[f"{name}.self_s"] = float(self_s[k])
        out[f"{name.split('.')[0]}.self_s"] += float(self_s[k])
    out.update(trace["counters"])

    def get(key):
        return out.get(key, 0)

    sieves = get("arith.sieve_primes.calls")
    out["arith.sieve_cache_hit_ratio"] = (
        1.0 - get("kernels.prime_mask.calls") / sieves if sieves else 0.0
    )
    out["arith.psi_exact.budget_exhausted"] = get("arith.psi_exact.raised.ResourceLimitError")
    nudges = get("divdist.nudge_off_atom.calls")
    out["divdist.nudge_off_atom.nudge_ratio"] = (
        get("divdist.nudge_off_atom.nudged") / nudges if nudges else 0.0
    )
    out["saddle.make_context.kahan_calls"] = count_within(
        trace, "kernels.kahan_sum", "saddle.make_context"
    )
    out["trace.spans"] = len(dur)
    return out
