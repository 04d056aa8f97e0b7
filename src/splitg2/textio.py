"""Line-oriented text format for algebras and scenarios.

Two document kinds share one syntax of `key: value` lines with `#`
comments.  An algebra document carries a name, a dimension and the
nonzero structure constants as `bracket: J K I coefficient` lines; it
is output only (`describe --scenario sp2`).  A scenario document adds
an optional parameter alphabet, the horizontal/vertical split and
optional metric and 3-form data, which is everything the command-line
tools need to run on user-supplied input.

`parse_scenario` reads a scenario document straight into a `Scenario`,
the one type of a quotient, which the builtin fixtures in `catalog`
share.  Rendering is byte-stable: fixed key order, sorted indices,
canonical scalar text.  `parse_scenario(render_scenario(sc))` reproduces
the scenario's document.

A `dim` or `horizontal` line holds exactly one integer, and a
`verticals` line holds no index twice.

Documents on one quotient repeat its structure constants, and the
slices of one family repeat its metric, so the parser interns both: a
document whose alphabet, dimension and bracket lines (their indices and
coefficient text, in order) match those of the last algebra parsed gets
that same `LieAlgebra`, and one whose horizontal count and metric
entries match the last metric gets that same `Metric7`.  Both are
immutable, so the Jacobi report, the d e^K and ad(e_a) columns, the
minors and the star columns they cache serve every such document.  At
most one algebra and one metric are kept, the last ones built; a
document with other data replaces them.

Documents are bounded so that no input can run the commands for long:
past one of the limits below the parser raises a one-line `ParseError`.
The paper's documents need dim 10, 30 bracket lines, 3 parameters and
60 lines.
"""

from collections import namedtuple
from functools import cached_property
from typing import Mapping, Optional

from . import g2, scalars
from .errors import ParseError
from .exterior import Form, SymTensor2
from .g2 import Metric7, TorsionSet, compatibility_defect, torsion_linear_system
from .liealg import LieAlgebra

ALGEBRA_FORMAT = "splitg2-algebra 1"
SCENARIO_FORMAT = "splitg2-scenario 1"

MAX_DIM = 512
MAX_BRACKETS = 1024
MAX_ALPHABET = 8
MAX_LINES = 4096

# kind -> (key, instance): the last algebra and the last metric built
_interned: dict = {}


def _intern(kind: str, key: tuple, build):
    """The instance of `kind` held for `key`, else `build()`, which then
    replaces the one held; keys hold only ints, strings and Fractions.
    The old instance is let go before the build, so the two never
    coexist here, and a build that raises leaves none held."""
    held = _interned.pop(kind, None)
    if held is not None and held[0] == key:
        value = held[1]
    else:
        del held
        value = build()
    _interned[kind] = (key, value)
    return value


class Scenario(namedtuple("Scenario", (
        "name", "alphabet", "algebra", "basis", "horizontal", "verticals",
        "metric", "phi_family", "exclusions", "expected"))):
    """One quotient: algebra, split, structure data, and for the builtin
    fixtures (`catalog`) the basis change and goldens.  A scenario parsed
    from a document has no `basis` or `expected`, and may lack `metric`
    and `phi_family`.  Three values derived from the frozen fields are
    kept with the scenario once computed: the compatibility `defect`, the
    `unit_torsions` that reports render, and their lowest-terms copy
    `checked_torsions` that the torsion checks read; `torsions(vol)`
    checks the copy and returns the rendered set at volume scale vol."""

    # no __slots__: the instance __dict__ holds the three cached values,
    # which `cached_property` writes there directly; every assignment and
    # deletion through the instance is refused

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}")

    @cached_property
    def defect(self) -> Optional[SymTensor2]:
        """The compatibility defect of `metric` and `phi_family`
        (`g2.compatibility_defect`), None when either is missing; computed
        on first use and kept with the scenario, whose fields are frozen."""
        if self.metric is None or self.phi_family is None:
            return None
        return compatibility_defect(self.metric, self.phi_family)

    @cached_property
    def unit_torsions(self) -> Optional[TorsionSet]:
        """The torsions of `phi_family` at volume scale 1, eliminated on
        first use and not checked (`g2.TorsionSystem.solution`); None when
        the metric or phi is missing.  `TorsionSet.rescale(c)` takes them
        to volume scale c, where `g2.check_torsions` checks them in each
        request.  Every later request shares them and the forms they hold;
        both refuse assignment (a `TorsionSet` is frozen, and each form's
        `terms` is a read-only view)."""
        if self.metric is None or self.phi_family is None:
            return None
        return torsion_linear_system(self.algebra, self.metric,
                                     self.phi_family).solution()

    @cached_property
    def checked_torsions(self) -> Optional[TorsionSet]:
        """`unit_torsions` with each coefficient in lowest terms
        (`TorsionSet.lowest_terms`), None when they are None: the same
        values in fewer terms, so `g2.check_torsions` multiplies less.
        Reports keep rendering `unit_torsions`; this copy refuses
        assignment too."""
        unit = self.unit_torsions
        return None if unit is None else unit.lowest_terms()

    def torsions(self, vol) -> TorsionSet:
        """`unit_torsions` at volume scale `vol`, checked there by
        `g2.check_torsions` on `checked_torsions`: the lowest-terms copy
        holds the same values, and rescale only scales contents, so
        checking it checks what is rendered."""
        g2.check_torsions(self.algebra, self.metric, self.phi_family,
                          self.checked_torsions.rescale(vol), vol)
        return self.unit_torsions.rescale(vol)

    def scalar(self, text: str):
        """Parse a scalar over this scenario's alphabet."""
        return scalars.parse_scalar(text, self.alphabet)

    def form_from_table(self, degree: int, table: Mapping) -> Form:
        """Build a horizontal form with coefficients given as text."""
        terms = {key: self.scalar(v) if isinstance(v, str) else v
                 for key, v in table.items()}
        return Form(self.horizontal, degree, terms)

    def text(self) -> str:
        return render_scenario(self)


# -- parsing ----------------------------------------------------------------


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if lineno > MAX_LINES:
            raise ParseError(f"line {lineno}: document exceeds the limit of "
                             f"{MAX_LINES} lines")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        yield lineno, key.strip(), value.strip()


def _int_fields(lineno: int, value: str, count: int, what: str) -> list:
    parts = value.split(None, count)
    if len(parts) < count:
        raise ParseError(f"line {lineno}: {what} needs {count}+ fields, got {value!r}")
    try:
        out = [scalars.parse_integer(p) for p in parts[:count]]
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    return out + [parts[count] if len(parts) > count else ""]


def _one_int(lineno: int, value: str, what: str) -> int:
    n, rest = _int_fields(lineno, value, 1, what)
    if rest:
        raise ParseError(f"line {lineno}: {what} takes one integer, got {value!r}")
    return n


def _scalar(lineno: int, text: str, alphabet: tuple):
    if not text:
        raise ParseError(f"line {lineno}: missing coefficient")
    try:
        return scalars.parse_scalar(text, alphabet)
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


class _Collector:
    """Key handling for scenario documents."""

    def __init__(self):
        self.name = None
        self.alphabet = None
        self.dim = None
        self.brackets: dict = {}
        self.bracket_text: list = []  # (J, K, I, coefficient text) by line
        self.horizontal = None
        self.verticals = None
        self.metric_entries: dict = {}
        self.phi_terms: dict = {}
        self.exclusions: list = []
        self._seen_scalars = False

    def feed(self, lineno: int, key: str, value: str) -> None:
        handler = getattr(self, "_key_" + key.replace("-", "_"), None)
        if handler is None:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        handler(lineno, value)

    def _once(self, lineno: int, attr: str, new) -> None:
        if getattr(self, attr) is not None:
            raise ParseError(f"line {lineno}: duplicate '{attr}' line")
        setattr(self, attr, new)

    def _key_name(self, lineno: int, value: str) -> None:
        self._once(lineno, "name", value)

    def _key_alphabet(self, lineno: int, value: str) -> None:
        if self.alphabet is not None:
            raise ParseError(f"line {lineno}: duplicate 'alphabet' line")
        if self._seen_scalars:
            raise ParseError(f"line {lineno}: 'alphabet' must precede coefficients")
        names = value.split()
        if len(names) > MAX_ALPHABET:
            raise ParseError(f"line {lineno}: more than {MAX_ALPHABET} parameters")
        try:
            self.alphabet = scalars._check_alphabet(names)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc

    def _key_dim(self, lineno: int, value: str) -> None:
        dim = _one_int(lineno, value, "dim")
        if dim > MAX_DIM:
            raise ParseError(f"line {lineno}: dim {dim} exceeds the limit {MAX_DIM}")
        self._once(lineno, "dim", dim)

    def _key_horizontal(self, lineno: int, value: str) -> None:
        self._once(lineno, "horizontal", _one_int(lineno, value, "horizontal"))

    def _key_verticals(self, lineno: int, value: str) -> None:
        try:
            fields = tuple(scalars.parse_integer(p) for p in value.split())
        except ParseError as exc:
            raise ParseError(f"line {lineno}: verticals must be integers") from exc
        if not fields:
            raise ParseError(f"line {lineno}: empty verticals list")
        if len(set(fields)) < len(fields):
            raise ParseError(f"line {lineno}: repeated vertical index in {value!r}")
        self._once(lineno, "verticals", fields)

    def _key_bracket(self, lineno: int, value: str) -> None:
        if len(self.bracket_text) >= MAX_BRACKETS:
            raise ParseError(f"line {lineno}: more than {MAX_BRACKETS} bracket lines")
        j, k, i, rest = _int_fields(lineno, value, 3, "bracket")
        coeff = _scalar(lineno, rest, self.alphabet or ())
        self._seen_scalars = True
        if j >= k:
            raise ParseError(f"line {lineno}: bracket pair must have J < K")
        slot = self.brackets.setdefault((j, k), {})
        if i in slot:
            raise ParseError(f"line {lineno}: duplicate bracket triple {j} {k} {i}")
        slot[i] = coeff
        self.bracket_text.append((j, k, i, rest))

    def _key_metric(self, lineno: int, value: str) -> None:
        i, j, rest = _int_fields(lineno, value, 2, "metric")
        if i > j:
            raise ParseError(f"line {lineno}: metric entry needs i <= j")
        if (i, j) in self.metric_entries:
            raise ParseError(f"line {lineno}: duplicate metric entry {i} {j}")
        try:
            self.metric_entries[(i, j)] = scalars.parse_rational(rest)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: metric entries are plain rationals") from exc

    def _key_phi(self, lineno: int, value: str) -> None:
        i, j, k, rest = _int_fields(lineno, value, 3, "phi")
        if not i < j < k:
            raise ParseError(f"line {lineno}: phi term needs i < j < k")
        if (i, j, k) in self.phi_terms:
            raise ParseError(f"line {lineno}: duplicate phi term {i} {j} {k}")
        self.phi_terms[(i, j, k)] = _scalar(lineno, rest, self.alphabet or ())
        self._seen_scalars = True

    def _key_exclude(self, lineno: int, value: str) -> None:
        parts = value.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: exclude needs 'parameter value'")
        pname, ptext = parts
        if pname not in (self.alphabet or ()):
            raise ParseError(f"line {lineno}: unknown parameter {pname!r}")
        try:
            self.exclusions.append((pname, scalars.parse_rational(ptext)))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: excluded values are plain rationals") from exc

    def algebra(self) -> LieAlgebra:
        if self.dim is None:
            raise ParseError("document has no 'dim' line")
        key = (self.alphabet or (), self.dim, tuple(self.bracket_text))
        try:
            return _intern("algebra", key, lambda: LieAlgebra(self.dim, self.brackets))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def _parse(text: str) -> _Collector:
    lines = _lines(text)
    try:
        lineno, key, value = next(lines)
    except StopIteration:
        raise ParseError("empty document") from None
    if key != "format":
        raise ParseError(f"line {lineno}: first line must declare 'format'")
    if value != SCENARIO_FORMAT:
        raise ParseError(
            f"line {lineno}: expected format {SCENARIO_FORMAT!r}, got {value!r}"
        )
    collector = _Collector()
    for lineno, key, value in lines:
        if key == "format":
            raise ParseError(f"line {lineno}: duplicate 'format' line")
        collector.feed(lineno, key, value)
    return collector


def parse_scenario(text: str) -> Scenario:
    """The scenario a document declares, not yet validated.  Its metric is
    built as a `Metric7` once every parse check has passed, so a document
    with a parse error reports that error before a metric error."""
    c = _parse(text)
    algebra = c.algebra()
    if c.horizontal is None:
        raise ParseError("scenario document has no 'horizontal' line")
    k = c.horizontal
    if not 1 <= k <= algebra.dim:
        raise ParseError(f"horizontal count {k} outside 1..{algebra.dim}")
    verticals = c.verticals
    if verticals is None:
        verticals = tuple(range(k + 1, algebra.dim + 1))
    for a in verticals:
        if not k < a <= algebra.dim:
            raise ParseError(f"vertical index {a} outside {k + 1}..{algebra.dim}")
    tensor = phi = None
    try:
        if c.metric_entries:
            tensor = SymTensor2(k, c.metric_entries)
        if c.phi_terms:
            phi = Form(k, 3, c.phi_terms)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    metric = None if tensor is None else _intern(
        "metric", (k, tuple(c.metric_entries.items())), lambda: Metric7(tensor))
    return Scenario(c.name or "", c.alphabet or (), algebra, None, k, verticals,
                    metric, phi, tuple(c.exclusions), None)


# -- rendering --------------------------------------------------------------


def _render_common(out: list, name: str, alphabet: tuple, algebra: LieAlgebra) -> None:
    if name:
        out.append(f"name: {name}")
    if alphabet:
        out.append("alphabet: " + " ".join(alphabet))
    out.append(f"dim: {algebra.dim}")
    out.append("# bracket: J K I coefficient  encodes [x_J, x_K] = sum_I coefficient * x_I")
    for (j, k) in sorted(algebra.brackets):
        comps = algebra.brackets[(j, k)]
        for i in sorted(comps):
            out.append(f"bracket: {j} {k} {i} {scalars.render_scalar(comps[i])}")


def render_algebra(algebra: LieAlgebra, name: str = "") -> str:
    out = [f"format: {ALGEBRA_FORMAT}"]
    _render_common(out, name, (), algebra)
    return "\n".join(out) + "\n"


def render_scenario(sc: Scenario) -> str:
    out = [f"format: {SCENARIO_FORMAT}"]
    _render_common(out, sc.name, sc.alphabet, sc.algebra)
    out.append(f"horizontal: {sc.horizontal}")
    out.append("verticals: " + " ".join(str(a) for a in sc.verticals))
    if sc.metric is not None:
        terms = sc.metric.tensor.terms
        out.append("# metric: i j value  encodes the symmetric entry g_ij, i <= j")
        for (i, j) in sorted(terms):
            out.append(f"metric: {i} {j} {scalars.render_scalar(terms[(i, j)])}")
    if sc.phi_family is not None:
        out.append("# phi: i j k coefficient  encodes one increasing 3-form term")
        for key in sorted(sc.phi_family.terms):
            coeff = scalars.render_scalar(sc.phi_family.terms[key])
            out.append("phi: " + " ".join(str(i) for i in key) + " " + coeff)
    if sc.exclusions:
        out.append("# exclude: parameter value  marks a rejected specialization value")
        for pname, value in sc.exclusions:
            out.append(f"exclude: {pname} {value}")
    return "\n".join(out) + "\n"
