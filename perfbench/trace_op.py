"""Run one `qnarayana` invocation with its layers wrapped, and report what they did.

    PYTHONPATH=src python3 perfbench/trace_op.py verify --all

The program's stdout is left untouched.  After the program returns, one
line `perfbench-trace: {...}` goes to stderr with, per layer function, the
call count, total time and self time, the extra counts (coefficient
products, coefficient bits, paths, gcd results other than 1), and the spans
of the op.  The exit code is the program's.

Wrapping is done from outside: every binding of a wrapped function is
replaced, in every module of the package and in every dict a module holds
(family tables such as `narayana._FAMILY_BUILDERS`), because modules capture
functions at import through `from .x import f`.  Any reference left behind
(in a tuple, a partial, a closure) is reported under `unbound`.

Self time is a call's duration minus the time of the wrapped calls it made
and of the observers run after them (which compute the extra counts).  The
wrappers' own bookkeeping is not taken out: it is charged to the caller.
The primitives called hundreds of thousands of times per op are aggregated
only; calls into the engines and checks are also kept as spans
(name, parent span, start, end).
"""

from __future__ import annotations

import functools
import json
import sys
import time

MARK = "perfbench-trace: "


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.frames = [[0.0]]             # child time of each open call; the root never closes
        self.spans: list[tuple] = []      # (span_id, parent_id, name, start_s, end_s)
        self.current = 0                  # id of the innermost open span; 0 is the op itself
        self.det_depth = 0                # open det_bareiss calls

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def timed(self, name, fn, observe=None):
        """Aggregate calls, total and self time of fn; observe(result, *args) after each call."""
        stat, frames, clock = self._stat(name), self.frames, self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
            if observe is not None:
                # Observer time is child time of the caller, in no stat.
                t1 = clock()
                observe(result, *args)
                frames[-1][0] += clock() - t1
            return result

        return wrapper

    def span(self, name, fn, observe=None):
        """Like timed, and also keep the call as a span under the innermost open span."""
        inner = self.timed(name, fn, observe)

        def wrapper(*args, **kwargs):
            parent = self.current
            span_id = self.current = len(self.spans) + 1
            self.spans.append(None)
            start = self.clock()
            try:
                return inner(*args, **kwargs)
            finally:
                self.spans[span_id - 1] = (span_id, parent, name, start - self.origin, self.clock() - self.origin)
                self.current = parent

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_yields(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def adder(self, name):
        """A function that adds its argument to the count `name`."""
        counts = self.counts
        counts[name] = 0

        def add(amount):
            counts[name] += amount

        return add

    def topper(self, name):
        """A function that raises the count `name` to its argument."""
        counts = self.counts
        counts[name] = 0

        def top(value):
            if value > counts[name]:
                counts[name] = value

        return top


def _max_bits(poly):
    return max(map(int.bit_length, poly.coeffs), default=0)


def _references(modules, classes):
    """(where, value) for each slot that can hold a function at run time.

    Covers module attributes, class attributes, dict values, tuple and list
    items, partial objects, and the defaults and closure cells of the
    package's own functions; wrappers are skipped since they hold the
    originals on purpose.
    """
    def inside(where, value, depth=0):
        yield where, value
        if depth > 2:  # tables here nest at most two deep; this also stops on cycles
            return
        if isinstance(value, dict):
            items = value.items()
        elif isinstance(value, (tuple, list)):
            items = enumerate(value)
        elif isinstance(value, functools.partial):
            items = [("func", value.func)] + list(enumerate(value.args))
        elif callable(value) and getattr(value, "__module__", "").startswith("qnarayana"):
            cells = getattr(value, "__closure__", None) or ()
            items = list(enumerate(getattr(value, "__defaults__", None) or ()))
            items += [(f"cell{i}", cell.cell_contents) for i, cell in enumerate(cells)]
        else:
            return
        for key, item in items:
            yield from inside(f"{where}[{key!r}]", item, depth + 1)

    for owner in modules + classes:
        for key, value in vars(owner).items():
            if key != "__builtins__":
                yield from inside(f"{owner.__name__}.{key}", value)


def install(tracer):
    """Wrap every layer function named in the per-layer table; return the wrapped entry point."""
    import qnarayana
    from qnarayana import cli, dyckoracle, exactalg, gfun, hankel, narayana, qcomb

    modules = (qnarayana, cli, dyckoracle, exactalg, gfun, hankel, narayana, qcomb)
    Polynomial, RationalFunction, TruncatedSeries = (
        exactalg.Polynomial, exactalg.RationalFunction, exactalg.TruncatedSeries)
    replaced = []

    def rebind(original, wrapper):
        replaced.append(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper

    def patch(cls, attr, wrapper):
        original = cls.__dict__[attr]
        replaced.append(original)
        for key, value in list(vars(cls).items()):
            if value is original:  # __rmul__ = __mul__ share one function
                setattr(cls, key, wrapper)

    add_products = tracer.adder("exactalg.poly_mul.coeff_products")
    top_mul_bits = tracer.topper("exactalg.poly_mul.max_coeff_bits")
    add_reduced = tracer.adder("exactalg.gcd.reduced")
    top_det_bits = tracer.topper("hankel.det_bareiss.max_coeff_bits")

    def on_mul(result, a, b):
        if isinstance(result, Polynomial):
            add_products(len(a.coeffs) * (len(b.coeffs) if isinstance(b, Polynomial) else 1))
            top_mul_bits(_max_bits(result))

    def on_gcd(result, a, b):
        if result.coeffs != (1,):
            add_reduced(1)

    # The Bareiss entries are the quotients of the exact divisions made
    # inside det_bareiss; the widest of them is the growth the metric tracks.
    def on_exact_div(result, a, b):
        if tracer.det_depth:
            top_det_bits(_max_bits(result))

    def on_det(result, m):
        top_det_bits(_max_bits(result))

    det_bareiss = hankel.det_bareiss

    def det_scope(m):
        tracer.det_depth += 1
        try:
            return det_bareiss(m)
        finally:
            tracer.det_depth -= 1

    c_poly_args = set()

    def on_c_poly(result, n):
        c_poly_args.add(n)

    patch(Polynomial, "__init__", tracer.counted("exactalg.poly_new.calls", Polynomial.__init__))
    patch(Polynomial, "__mul__", tracer.timed("exactalg.poly_mul", Polynomial.__mul__, on_mul))
    patch(RationalFunction, "__init__", tracer.timed("exactalg.ratfun_new", RationalFunction.__init__))
    patch(TruncatedSeries, "__mul__", tracer.timed("exactalg.series_mul", TruncatedSeries.__mul__))
    patch(TruncatedSeries, "invert", tracer.timed("exactalg.series_invert", TruncatedSeries.invert))
    rebind(exactalg.poly_gcd, tracer.timed("exactalg.gcd", exactalg.poly_gcd, on_gcd))
    rebind(exactalg.poly_exact_div, tracer.timed("exactalg.exact_div", exactalg.poly_exact_div, on_exact_div))

    rebind(narayana.c_poly, tracer.timed("narayana.c_poly", narayana.c_poly, on_c_poly))
    rebind(narayana.narayana_poly, tracer.counted("narayana.narayana_poly.calls", narayana.narayana_poly))
    rebind(narayana.c_poly_recursive, tracer.span("narayana.c_poly_recursive", narayana.c_poly_recursive))

    for module, names in ((qcomb, ("q_narayana_row", "q_catalan")),
                          (gfun, ("verify_identity", "build_series")),
                          (hankel, ("jfraction_extract", "jfraction_to_series", "ratfun_series")),
                          (dyckoracle, ("qt_distribution", "symmetric_valley_distribution"))):
        for name in names:
            original = getattr(module, name)
            rebind(original, tracer.span(f"{module.__name__.rsplit('.', 1)[1]}.{name}", original))
    rebind(det_bareiss, tracer.span("hankel.det_bareiss", det_scope, on_det))
    for name in ("enumerate_dyck", "enumerate_symmetric"):
        rebind(getattr(dyckoracle, name), tracer.counted_yields("dyckoracle.paths", getattr(dyckoracle, name)))

    run_checks = cli._run_checks
    for name, _ in cli.build_registry():  # every group reports, run or not
        tracer._stat(f"cli.check.{name.split('/')[0]}")

    def traced_run_checks(named_checks, as_json):
        return run_checks([(name, tracer.span(f"cli.check.{name.split('/')[0]}", fn))
                           for name, fn in named_checks], as_json)

    rebind(run_checks, traced_run_checks)
    main = tracer.span("cli", cli.main)
    rebind(cli.main, main)

    unbound = sorted({where for where, value in _references(modules, (Polynomial, RationalFunction, TruncatedSeries))
                      if any(value is f for f in replaced)})

    def finish():
        """Counts that are read once, after the program has returned."""
        info = qcomb.q_binomial.cache_info()
        tracer.counts["narayana.c_poly.distinct"] = len(c_poly_args)
        tracer.counts["qcomb.q_binomial.hits"] = info.hits
        tracer.counts["qcomb.q_binomial.lookups"] = info.hits + info.misses

    return main, finish, unbound


def run(argv) -> int:
    tracer = Tracer()
    main, finish, unbound = install(tracer)
    code = main(argv)
    finish()
    sys.stdout.flush()
    report = {"stats": tracer.stats, "counts": tracer.counts, "spans": tracer.spans, "unbound": unbound}
    sys.stderr.write(MARK + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
