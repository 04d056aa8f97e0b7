"""Per-layer spans and work counters, installed from outside the package.

`Tracer.install()` rebinds public attributes of the `splitg2` modules
(functions, methods, the classmethod `RationalFunction.make`) to timing
wrappers.  Package code looks module globals and class attributes up at
call time, so every internal call goes through a wrapper without any
change to `src/`.  A function that another module imported by name (for
example `g2.interior`) is rebound in every `splitg2` module that holds it.

Each wrapper records one span: calls, total time and self time (span
time minus the time of wrapped calls made inside it).  Time spent on the
tracer's own bookkeeping is charged to no span.  Counters that describe
work (term products, term pairs, entry sizes, repeated inputs) are
exact and repeat between runs of the same requests.
"""

from __future__ import annotations

import sys
from time import perf_counter

MODULES = ("scalars", "exterior", "g2", "linalg", "liealg", "invariants",
           "catalog", "textio", "report", "cli")


class Span:
    """Calls, self time and total time of one wrapped call site."""

    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


def _coeff_key(v):
    # RationalFunction is deliberately unhashable; its representative is
    # what a memo would key on.
    num = getattr(v, "num", None)
    return v if num is None else (num, v.den)


def _form_key(form):
    return (form.dim, form.degree,
            frozenset((k, _coeff_key(v)) for k, v in form.terms.items()))


def _metric_key(metric):
    return tuple(tuple(row) for row in metric.matrix)


class Tracer:
    """Spans and counters for one process; `install` switches them on."""

    def __init__(self):
        self.spans: dict = {}
        self.errors = {m: 0 for m in MODULES}
        self.counts = {"scalars.poly_mul.term_products": 0,
                       "exterior.wedge.term_pairs": 0,
                       "linalg.peak_entry_terms": 0}
        self.repeats = {"g2.hodge_star": 0, "g2.torsion_linear_system": 0}
        self._seen = {name: set() for name in self.repeats}
        self._algebra_keys: dict = {}
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Wrapper recording span `name` around `fn`; `count(args, result)`
        updates work counters after the call, outside every span."""
        span = self.spans.setdefault(name, Span())
        module = name.split(".", 1)[0]
        errors = self.errors
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                child = stack.pop()
                span.calls += 1
                span.total_s += t1 - t0
                span.self_s += t1 - t0 - child
                if not ok:
                    errors[module] += 1
                elif count is not None:
                    count(args, result)
                if stack:
                    stack[-1] += perf_counter() - t0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_poly_mul(self, args, result):
        self.counts["scalars.poly_mul.term_products"] += len(args[0]) * len(args[1])

    def _count_wedge(self, args, result):
        self.counts["exterior.wedge.term_pairs"] += (len(args[0].terms)
                                                     * len(args[1].terms))

    def _count_combine(self, args, result):
        peak = max((len(v.terms) for v in result.values()), default=0)
        if peak > self.counts["linalg.peak_entry_terms"]:
            self.counts["linalg.peak_entry_terms"] = peak

    def _repeat(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _count_hodge(self, args, result):
        metric, lam = args[0], args[1]
        scale = args[2] if len(args) > 2 else 1
        self._repeat("g2.hodge_star",
                     (_metric_key(metric), _form_key(lam), str(scale)))

    def _algebra_key(self, algebra):
        entry = self._algebra_keys.get(id(algebra))
        if entry is None or entry[0] is not algebra:
            key = (algebra.dim, frozenset(
                (pair, frozenset((i, _coeff_key(c)) for i, c in comps.items()))
                for pair, comps in algebra.brackets.items()))
            entry = (algebra, key)
            self._algebra_keys[id(algebra)] = entry
        return entry[1]

    def _count_system(self, args, result):
        algebra, metric, phi = args[0], args[1], args[2]
        scale = args[3] if len(args) > 3 else 1
        self._repeat("g2.torsion_linear_system",
                     (self._algebra_key(algebra), _metric_key(metric),
                      _form_key(phi), str(scale)))

    # -- installation --------------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, counter) for every wrapped call."""
        from splitg2 import (_linalg, catalog, cli, exterior, g2, invariants,
                             kernels, liealg, report, scalars, textio)

        return [
            ("scalars.poly_mul", kernels, "poly_mul", self._count_poly_mul),
            ("scalars.poly_axpy", kernels, "poly_axpy", None),
            ("scalars.ratfunc_make", scalars.RationalFunction, "make", None),
            ("scalars.parse_scalar", scalars, "parse_scalar", None),
            ("scalars.specialize", scalars, "specialize", None),
            ("exterior.wedge", exterior.Form, "wedge", self._count_wedge),
            ("exterior.wedge_terms", kernels, "wedge_terms", None),
            ("exterior.wedge_collect", kernels, "wedge_collect", None),
            ("exterior.interior", exterior, "interior", None),
            ("g2.hodge_star", g2, "hodge_star", self._count_hodge),
            ("g2.torsion_linear_system", g2, "torsion_linear_system",
             self._count_system),
            ("g2.compatibility_defect", g2, "compatibility_defect", None),
            ("g2.bryant_residual", g2, "bryant_residual", None),
            ("g2.lambda2_14_basis", g2, "lambda2_14_basis", None),
            ("g2.membership_kernel_rank", g2.TorsionSystem,
             "membership_kernel_rank", None),
            ("linalg.solve_unique", _linalg, "solve_unique", None),
            ("linalg.poly_combine", _linalg.PolyDomain, "combine",
             self._count_combine),
            ("linalg.fraction_combine", _linalg.FractionDomain, "combine", None),
            ("linalg.kernel_basis", _linalg, "kernel_basis", None),
            ("linalg.rank", _linalg, "rank", None),
            ("linalg.solve_in_span", _linalg, "solve_in_span", None),
            ("liealg.sp2_build", liealg, "sp2_build", None),
            ("liealg.change_basis", liealg, "change_basis", None),
            ("liealg.mc_differential", liealg.LieAlgebra, "mc_differential", None),
            ("liealg.jacobi_check", liealg.LieAlgebra, "jacobi_check", None),
            ("liealg.growth_vector", liealg, "growth_vector", None),
            ("liealg.lie_derivative", liealg.LieAlgebra, "lie_derivative_form",
             None),
            ("liealg.lie_derivative", liealg.LieAlgebra, "lie_derivative_sym2",
             None),
            ("invariants.invariant_sym2", invariants, "invariant_sym2", None),
            ("invariants.invariant_form3", invariants, "invariant_form3", None),
            ("invariants.contains", invariants.SolutionSpace, "contains", None),
            ("catalog.scenario_build", catalog, "scenario_Ml", None),
            ("catalog.scenario_build", catalog, "scenario_Ms", None),
            ("textio.parse_scenario", textio, "parse_scenario", None),
            ("report.render", report.Report, "render", None),
            ("cli.main", cli, "main", None),
        ]

    def install(self) -> None:
        """Rebind every target; `uninstall` puts the originals back."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "splitg2" or n.startswith("splitg2."))]
        for name, owner, attr, count in self.targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, count))
                self._rebind(owner, attr, raw, wrapped)
                continue
            wrapped = self.wrap(name, raw, count)
            if isinstance(owner, type):
                self._rebind(owner, attr, raw, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, key, raw, wrapped)

    def _rebind(self, owner, attr, raw, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw spans and counters, JSON-ready; see `merge` and `metrics`."""
        return {
            "spans": {n: [s.calls, s.self_s, s.total_s]
                      for n, s in self.spans.items()},
            "counts": dict(self.counts),
            "repeats": dict(self.repeats),
            "errors": dict(self.errors),
        }


def merge(snapshots) -> dict:
    """Combine snapshots of several processes: sums, and the peak as a max."""
    out = {"spans": {}, "counts": {}, "repeats": {}, "errors": {}}
    for snap in snapshots:
        for name, (calls, self_s, total_s) in snap["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        for group in ("counts", "repeats", "errors"):
            for name, n in snap[group].items():
                if name == "linalg.peak_entry_terms":
                    out[group][name] = max(out[group].get(name, 0), n)
                else:
                    out[group][name] = out[group].get(name, 0) + n
    return out


_CALLS = ("scalars.poly_mul", "scalars.poly_axpy", "scalars.ratfunc_make",
          "exterior.wedge", "g2.hodge_star", "g2.torsion_linear_system",
          "linalg.solve_unique", "linalg.poly_combine",
          "linalg.fraction_combine", "liealg.sp2_build",
          "liealg.mc_differential", "invariants.contains")
_SELF = ("scalars.poly_mul", "scalars.poly_axpy", "scalars.ratfunc_make",
         "scalars.parse_scalar", "scalars.specialize", "exterior.wedge",
         "exterior.wedge_terms", "exterior.wedge_collect", "exterior.interior",
         "g2.hodge_star", "g2.torsion_linear_system", "g2.compatibility_defect",
         "g2.bryant_residual", "g2.lambda2_14_basis",
         "g2.membership_kernel_rank", "linalg.solve_unique",
         "linalg.poly_combine", "linalg.fraction_combine",
         "linalg.kernel_basis", "linalg.rank", "linalg.solve_in_span",
         "liealg.sp2_build", "liealg.change_basis", "liealg.mc_differential",
         "liealg.jacobi_check", "liealg.growth_vector", "liealg.lie_derivative",
         "invariants.invariant_sym2", "invariants.invariant_form3",
         "invariants.contains", "textio.parse_scenario", "report.render")


def metrics(raw: dict) -> dict:
    """Every per-layer metric of the tracer, by its BENCHMARK.json name."""
    spans = raw["spans"]
    out = {}
    for name in _CALLS:
        out[f"{name}.calls"] = spans[name][0]
    for name in _SELF:
        out[f"{name}.self_s"] = spans[name][1]
    out["g2.hodge_star.total_s"] = spans["g2.hodge_star"][2]
    out["catalog.scenario_build_s"] = spans["catalog.scenario_build"][2]
    out["cli.self_s"] = spans["cli.main"][1]
    for name, repeated in raw["repeats"].items():
        calls = spans[name][0]
        out[f"{name}.repeat_frac"] = repeated / calls if calls else 0.0
    out.update(raw["counts"])
    for module, n in raw["errors"].items():
        out[f"{module}.errors"] = n
    return out
