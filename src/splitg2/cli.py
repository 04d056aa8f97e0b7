"""Command-line drivers for building and checking the structures.

Each command assembles a flat check report and renders it in a
byte-stable text or JSON form: rerunning with the same inputs, flags and
seed yields identical bytes.  Records carry stable anchor ids (for
example "Ml.torsion.tau0") so runs can be diffed across versions.

Exit codes: 0 when every check passed, 1 when a check failed or the
package rejected the input (any `SplitG2Error`), 2 for usage or input
parse errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple

from . import catalog, g2, invariants, liealg, scalars, textio
from .errors import (
    ExclusionError,
    InconsistentSystem,
    InternalInconsistency,
    NonUniqueSolution,
    ParseError,
    PoleAtPoint,
    SplitG2Error,
    ValidationError,
    WrongDimension,
    ZeroReference,
)
from .exterior import Form
from .g2 import TorsionSet
from .liealg import LieAlgebra
from .report import Report

SCENARIO_NAMES = ("Ml", "Ms")
SPECIALIZATION_COUNT = 5
SAMPLE_HEIGHT = 9
# Digits a --set or --vol-scale numerator or denominator may have.  An Ml
# torsion at a point and volume scale has up to nine times the digits of
# those values, so the worst case at the bound stays inside the
# interpreter's 4300-digit limit for rendering an integer.
MAX_VALUE_DIGITS = 400


class UsageError(Exception):
    """Bad flag combination or malformed flag value (exit code 2)."""


# Validated per-run options shared by the command handlers.
RunConfig = namedtuple("RunConfig", ("scenario", "input_path", "sets", "vol_scale",
                                     "fmt", "seed", "out", "kind", "names", "corrupt"))


# -- option parsing helpers ---------------------------------------------------


def _parse_fraction(text: str, what: str) -> Fraction:
    """A flag value: a rational expression without parameters, its
    numerator and denominator of at most MAX_VALUE_DIGITS digits each."""
    try:
        value = scalars.parse_rational(text)
    except ParseError:
        raise UsageError(f"{what} must be a rational like 3, -2/5: got {text!r}")
    if max(abs(value.numerator), value.denominator) >= 10**MAX_VALUE_DIGITS:
        raise UsageError(f"{what} must have at most {MAX_VALUE_DIGITS} digits "
                         f"in its numerator and in its denominator")
    return value


def _parse_sets(pairs: Sequence[str]) -> dict:
    sets: dict = {}
    for item in pairs:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not name:
            raise UsageError(f"--set needs name=value: got {item!r}")
        if name in sets:
            raise UsageError(f"--set given twice for {name!r}")
        sets[name] = _parse_fraction(value, f"--set {name}")
    return sets


def _parse_integer(text: str, error: str) -> int:
    """The value of an integer flag `text` (`scalars.parse_integer`);
    UsageError(error) if it is not one."""
    try:
        return scalars.parse_integer(text)
    except ParseError:
        raise UsageError(error) from None


def _parse_corrupt(text: str) -> Tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--corrupt needs J,K,I with 1 <= J < K <= 10")
    error = f"--corrupt indices must be integers: got {text!r}"
    j, k, i = (_parse_integer(p, error) for p in parts)
    if not (1 <= j < k <= 10 and 1 <= i <= 10):
        raise UsageError("--corrupt needs J,K,I with 1 <= J < K <= 10")
    return (j, k, i)


def _config_from(ns: argparse.Namespace) -> RunConfig:
    seed = getattr(ns, "seed", None)
    if seed is not None:
        seed = _parse_integer(seed, f"--seed must be an integer: got {seed!r}")
    vol = Fraction(1)
    if getattr(ns, "vol_scale", None) is not None:
        vol = _parse_fraction(ns.vol_scale, "--vol-scale")
        if vol <= 0:
            raise UsageError("--vol-scale must be positive")
    return RunConfig(
        scenario=getattr(ns, "scenario", None),
        input_path=getattr(ns, "input", None),
        sets=_parse_sets(getattr(ns, "set", None) or []),
        vol_scale=vol,
        fmt=getattr(ns, "format", "text"),
        seed=seed or 0,
        out=getattr(ns, "out", None),
        kind=getattr(ns, "kind", "both"),
        names=tuple(getattr(ns, "names", ()) or ()),
        corrupt=(_parse_corrupt(ns.corrupt)
                 if getattr(ns, "corrupt", None) is not None else None),
    )


# -- input loading ------------------------------------------------------------


def _read_input(path: str) -> str:
    """The document text.  Bytes that are not UTF-8 are a parse error on
    either route; stdin may hand them over surrogate-escaped."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            text = Path(path).read_text(encoding="utf-8")
        text.encode("utf-8")
    except UnicodeError as exc:
        line = exc.object.count(b"\n" if isinstance(exc.object, bytes) else "\n",
                                0, exc.start) + 1
        raise ParseError(f"line {line}: document is not UTF-8 text") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")
    return text


def _load_scenario(cfg: RunConfig, rep: Report) -> Optional[textio.Scenario]:
    """The builtin scenario, or the `--input` document validated into one,
    its checks recorded as `input.*`.  None means a check failed: the caller
    stops and renders the report (exit code 1)."""
    if cfg.input_path is None:
        return catalog.scenario(cfg.scenario)
    sc = textio.parse_scenario(_read_input(cfg.input_path))
    for check, claim, ok, computed, expected in catalog.validation(sc):
        rep.add(f"input.{check}", claim, ok, computed, expected)
        if not ok:
            return None
    return sc


# -- specialization helpers ---------------------------------------------------


def _point_text(point: Mapping[str, Fraction], alphabet: Sequence[str]) -> str:
    return ", ".join(f"{name}={point[name]}" for name in alphabet)


def _validate_point(point: Mapping[str, Fraction], sc: textio.Scenario) -> None:
    """A point must pin every parameter and avoid the excluded values."""
    unknown = sorted(set(point) - set(sc.alphabet))
    if unknown:
        raise UsageError(f"--set names not in the alphabet "
                         f"{sc.alphabet}: {', '.join(unknown)}")
    missing = sorted(set(sc.alphabet) - set(point))
    if missing:
        raise UsageError(f"--set must pin every parameter or none; "
                         f"missing: {', '.join(missing)}")
    for name, value in sc.exclusions:
        if point.get(name) == value:
            raise ExclusionError(f"parameter {name} = {value} is excluded")


def _specialize(x, point: Mapping[str, Fraction]):
    """A form or a `TorsionSet` with every coefficient specialized at
    `point`; both have `map_coefficients`."""
    return x.map_coefficients(lambda c: scalars.specialize(c, point))


def _sample_point(rng: random.Random, sc: textio.Scenario) -> dict:
    """Small-height rational point avoiding the declared exclusions."""
    excluded: dict = {}
    for name, value in sc.exclusions:
        excluded.setdefault(name, set()).add(value)
    point = {}
    for name in sc.alphabet:
        while True:
            value = Fraction(rng.randint(-SAMPLE_HEIGHT, SAMPLE_HEIGHT),
                             rng.randint(1, SAMPLE_HEIGHT))
            if value not in excluded.get(name, ()):
                point[name] = value
                break
    return point


# -- expected-value helpers ---------------------------------------------------


def _expected_torsions(sc: textio.Scenario) -> TorsionSet:
    """Golden torsions parsed from the catalog, as one parse batch: the
    closed forms repeat their factors across tau0 to tau3."""
    exp, memo = sc.expected, {}
    return TorsionSet(sc.scalar(exp.tau0, memo),
                      sc.form_from_table(1, exp.tau1, memo),
                      sc.form_from_table(2, exp.tau2, memo),
                      sc.form_from_table(3, exp.tau3, memo))


def _render(value) -> str:
    if isinstance(value, Form):
        return str(value)
    return scalars.render_scalar(scalars.as_scalar(value))


def _torsion_payload(torsions: TorsionSet, vol: Fraction) -> dict:
    """Structured rendering: each component as (indices, scalar) pairs."""

    def pairs(form: Form) -> list:
        return [[list(key), _render(c)]
                for key, c in sorted(form.terms.items())]

    return {
        "vol_scale": str(vol),
        "tau0": _render(torsions.tau0),
        "tau1": pairs(torsions.tau1),
        "tau2": pairs(torsions.tau2),
        "tau3": pairs(torsions.tau3),
    }


TORSION_NAMES = {"tau0": "scalar torsion", "tau1": "vector torsion",
                 "tau2": "torsion in the 14-dimensional component",
                 "tau3": "torsion in the 27-dimensional component"}


def _compare_torsions(computed: TorsionSet, expected: TorsionSet):
    """(field, computed, expected, equal) for each of the four torsions,
    compared by value: `scalars.equals`, which is `Tensor.__eq__` on forms."""
    for field in TORSION_NAMES:
        got, want = getattr(computed, field), getattr(expected, field)
        yield field, got, want, scalars.equals(got, want)


def _torsion_records(rep: Report, prefix: str, computed: TorsionSet,
                     expected: Optional[TorsionSet]) -> None:
    if expected is None:
        for field, name in TORSION_NAMES.items():
            rep.add(f"{prefix}.{field}", name, None,
                    _render(getattr(computed, field)))
        return
    for field, got, want, same in _compare_torsions(computed, expected):
        rep.add(f"{prefix}.{field}", TORSION_NAMES[field], same,
                _render(got), _render(want))


# -- shared check blocks ------------------------------------------------------


def _base_algebra_checks(rep: Report, base: LieAlgebra,
                         corrupted: Optional[Tuple[int, int, int]]) -> None:
    table_ok = (base.dim == 10 and len(base.brackets) == len(catalog.COMMUTATORS)
                and all(base.bracket_basis(j, k)
                        == {i: Fraction(c) for i, c in row.items()}
                        for (j, k), row in catalog.COMMUTATORS.items()))
    suffix = ""
    if corrupted is not None:
        suffix = " (corrupted at %d,%d,%d)" % corrupted
    rep.add("base.commutator-table",
            "matrix commutators match the catalogued structure constants",
            table_ok, f"{len(base.brackets)} bracket rows{suffix}",
            f"{len(catalog.COMMUTATORS)} bracket rows, all equal")
    jac = base.jacobi_check()
    rep.add("base.jacobi", "structure constants satisfy the Jacobi identity",
            jac.ok, "pass" if jac.ok else str(jac), "pass")
    killing = base.killing()
    killing_ok = (killing - catalog.KILLING_MATRIX_BASIS).is_zero()
    rep.add("base.killing", "Killing form in the matrix basis",
            killing_ok, str(killing), str(catalog.KILLING_MATRIX_BASIS))


def _subalgebra_checks(rep: Report, base: LieAlgebra) -> None:
    subspaces = catalog.named_subspaces()
    for name in ("sl2_l", "sl2_s"):
        space = subspaces[name]
        # [h, h] inside h + h = h
        closed = liealg.ad_invariance_check(base, space, space)
        rep.add(f"base.subalgebra.{name}",
                "three-dimensional stabilizer closes under the bracket",
                closed, "closed" if closed else "not closed", "closed")


def _growth_text(growth: Sequence[int]) -> str:
    return "(" + ", ".join(str(d) for d in growth) + ")"


def _distribution_records(rep: Report, base: LieAlgebra, prefix: str,
                          names: Sequence[str]) -> None:
    subspaces = catalog.named_subspaces()
    for name in names:
        fact = catalog.DISTRIBUTION_FACTS[name]
        dist = subspaces[name]
        stab = subspaces[fact.stabilizer]
        invariant = liealg.ad_invariance_check(base, dist, stab)
        rep.add(f"{prefix}.{name}.invariance",
                f"distribution is {fact.stabilizer}-invariant",
                invariant, "invariant" if invariant else "not invariant",
                "invariant")
        if not invariant:
            continue
        growth = liealg.growth_vector(base, dist, stab)
        text = _growth_text(growth)
        if fact.integrable:
            ok = growth == [dist.rank]
            rep.add(f"{prefix}.{name}.integrable",
                    "bracket-generated flag stops at the first step",
                    ok, f"growth {text}", f"growth {_growth_text([dist.rank])}")
        else:
            claimed = _growth_text(fact.claimed_growth)
            rep.add(f"{prefix}.{name}.growth",
                    f"computed growth vector (reported value: {claimed})",
                    None, f"growth {text}")


# per kind: expected-dimension key, claim, and the anchor and claim of
# the structure-member record the builtin fixtures add
_INVARIANT_TEXT = {
    "metric": ("invariant-metrics", "invariant symmetric 2-tensors",
               "killing-member", "structure metric is an invariant tensor"),
    "3-form": ("invariant-3-forms", "invariant horizontal 3-forms",
               "structure-member", "structure 3-form family is invariant"),
}


def _invariant_space_checks(rep: Report, sc: textio.Scenario, prefix: str,
                            kinds: Sequence[str], list_basis: bool) -> None:
    exp = sc.expected
    for kind in kinds:
        dim_key, claim, member_anchor, member_claim = _INVARIANT_TEXT[kind]
        is_metric = kind == "metric"
        build = invariants.invariant_sym2 if is_metric else invariants.invariant_form3
        space = build(sc.algebra, sc.verticals, sc.horizontal)
        want = None if exp is None else exp.dimensions[dim_key]
        rep.add(f"{prefix}.{kind}.dimension", claim,
                None if want is None else space.dimension == want,
                str(space.dimension), "" if want is None else str(want))
        if list_basis:
            for idx, element in enumerate(space.basis, start=1):
                rep.add(f"{prefix}.{kind}.basis.g{idx}", "kernel basis element",
                        None, str(element.restrict(sc.horizontal)))
        if exp is None:
            continue
        family = exp.metric_family if is_metric else exp.form_family
        missing = [name for name, gen in family
                   if not space.contains(gen.extend(sc.algebra.dim))]
        rep.add(f"{prefix}.{kind}.family",
                f"displayed {kind} family lies in the computed span",
                not missing,
                "all members contained" if not missing
                else "missing: " + ", ".join(missing),
                "all members contained")
        member = sc.metric.tensor if is_metric else sc.phi_family
        contained = space.contains(member.extend(sc.algebra.dim))
        rep.add(f"{prefix}.{kind}.{member_anchor}", member_claim, contained,
                "contained" if contained else "not contained", "contained")


# -- scenario verification ----------------------------------------------------


def _scenario_checks(rep: Report, name: str, cfg: RunConfig) -> None:
    sc = catalog.scenario(name)
    n = sc.name
    exp = sc.expected

    inverse_ok = all(
        sc.basis.old_to_new(sc.basis.new_vector(i).components)
        == [Fraction(int(j == i)) for j in range(1, sc.algebra.dim + 1)]
        for i in range(1, sc.algebra.dim + 1)
    )
    rep.add(f"{n}.basis-change", "adapted basis change is invertible",
            inverse_ok, "inverse round-trip exact" if inverse_ok else "failed",
            "inverse round-trip exact")

    bad = [i for i in range(1, sc.algebra.dim + 1)
           if not (sc.algebra.coframe_differential(i)
                   - catalog.mc_form(sc.algebra.dim,
                                     exp.coframe_differentials[i])).is_zero()]
    rep.add(f"{n}.structure-equations", "coframe differentials match the display",
            not bad, "10/10 rows match" if not bad
            else "mismatch at rows " + ", ".join(map(str, bad)),
            "10/10 rows match")

    d2_bad = [i for i in range(1, sc.algebra.dim + 1)
              if not sc.algebra.mc_differential(
                  sc.algebra.coframe_differential(i)).is_zero()]
    rep.add(f"{n}.d-squared", "differential squares to zero on the coframe",
            not d2_bad, "d(d e^i) = 0 for all i" if not d2_bad
            else "nonzero at " + ", ".join(map(str, d2_bad)),
            "d(d e^i) = 0 for all i")

    killing = sc.algebra.killing()
    killing_ok = (killing - exp.killing).is_zero()
    rep.add(f"{n}.killing", "Killing form in the adapted basis", killing_ok,
            str(killing), str(exp.killing))

    fib = sc.algebra.horizontal_integrability(sc.horizontal)
    rep.add(f"{n}.fibration", "vertical distribution is a fibration",
            fib, "integrable" if fib else "not integrable", "integrable")

    leaves = sc.algebra.leaf_restriction(sc.horizontal)
    leaf_bad = [idx for idx, d in zip(sc.verticals, leaves)
                if not (d - catalog.mc_form(sc.algebra.dim,
                                            exp.leaf_differentials[idx])).is_zero()]
    rep.add(f"{n}.leaf-system", "restricted vertical differentials match",
            not leaf_bad, "3/3 rows match" if not leaf_bad
            else "mismatch at rows " + ", ".join(map(str, leaf_bad)),
            "3/3 rows match")

    _invariant_space_checks(rep, sc, n, ("metric", "3-form"),
                            list_basis=False)

    # `catalog` builds phi_family as the relation combination of the
    # form family, so one comparison decides both records
    phi_ok = sc.phi_family == sc.form_from_table(3, exp.phi_display)
    rep.add(f"{n}.solution-relations",
            "relation coefficients reproduce the displayed 3-form",
            phi_ok, "families agree" if phi_ok else "families differ",
            "families agree")
    rep.add(f"{n}.structure-form", "structure family equals the display",
            phi_ok, "equal" if phi_ok else "different", "equal")

    det_ok = str(sc.metric.det) == exp.metric_det
    rep.add(f"{n}.metric.det", "metric determinant", det_ok,
            str(sc.metric.det), exp.metric_det)
    sig = sc.metric.signature()
    sig_set = "{" + ",".join(map(str, sorted(sig))) + "}"
    rep.add(f"{n}.metric.signature", "signature as an unordered pair",
            sorted(sig) == [3, 4], sig_set, "{3,4}")

    defect = sc.defect
    rep.add(f"{n}.compatibility", "metric and 3-form family are compatible",
            defect.is_zero(), "defect 0" if defect.is_zero()
            else f"defect {defect}", "defect 0")

    vol = cfg.vol_scale
    torsions = sc.torsions(vol)
    golden = _expected_torsions(sc)
    expected = golden.rescale(vol)
    _torsion_records(rep, f"{n}.torsion", torsions, expected)

    if vol == 1:
        try:
            scale = g2.calibrate_vol_scale(golden.tau0, torsions)
            ok = str(scale) == exp.vol_scale
            rep.add(f"{n}.torsion.calibration",
                    "volume scale matching the reference scalar torsion",
                    ok, str(scale), exp.vol_scale)
        except (ValidationError, ZeroReference) as exc:
            rep.add(f"{n}.torsion.calibration",
                    "volume scale matching the reference scalar torsion",
                    False, f"error: {exc}", exp.vol_scale)
    else:
        rep.note(f"{n}: calibration check skipped at vol-scale {vol}")

    ref_point = {k: Fraction(v) for k, v in exp.tau0_reference_point.items()}
    tau0_at_ref = scalars.specialize(scalars.as_scalar(torsions.tau0), ref_point)
    ref_value = Fraction(exp.tau0_reference_value) * vol
    rep.add(f"{n}.torsion.reference-point",
            "scalar torsion at " + _point_text(ref_point, sc.alphabet),
            tau0_at_ref == ref_value, str(tau0_at_ref), str(ref_value))

    # `sc.torsions` (`g2.check_torsions`) substituted the torsions into both
    # structure equations
    # and raises InternalInconsistency when either residual is nonzero
    rep.add(f"{n}.torsion.residual",
            "direct substitution into both structure equations",
            True, "(0, 0)", "(0, 0)")

    coclosed = torsions.tau1.is_zero() and torsions.tau2.is_zero()
    rep.add(f"{n}.coclosed", "structure is coclosed on the nose",
            coclosed == exp.coclosed,
            "coclosed" if coclosed else "not coclosed",
            "coclosed" if exp.coclosed else "not coclosed")

    if exp.coclosed_slice is not None:
        # The structure equations fix the torsions algebraically from phi,
        # d phi and d star phi, so wherever no denominator of the family's
        # torsions vanishes on the slice, those of the sliced family are
        # its own restricted; otherwise the check cannot conclude and
        # fails.  tau1 does not depend on the volume scale and tau2 only
        # scales by it, so the verdict holds at every scale.
        slice_subs = dict(exp.coclosed_slice)
        slice_text = ", ".join(f"{k} = {v}" for k, v in
                               sorted(slice_subs.items()))
        restricted = {}
        try:
            for label, form in (("tau1", torsions.tau1),
                                ("tau2", torsions.tau2)):
                restricted[label] = catalog.restrict_form(form, sc.alphabet,
                                                          slice_subs)
        except PoleAtPoint as exc:
            ok, computed = False, f"{label}: {exc}, check inconclusive"
        else:
            ok = all(form.is_zero() for form in restricted.values())
            computed = ", ".join(f"{label} = {form}"
                                 for label, form in restricted.items())
        rep.add(f"{n}.coclosed-slice",
                f"vector torsion vanishes on the slice {slice_text}",
                ok, computed, "tau1 = 0, tau2 = 0")

    rng = random.Random(f"{cfg.seed}:{n}")
    for idx in range(1, SPECIALIZATION_COUNT + 1):
        point = _sample_point(rng, sc)
        rep.add(*_point_pipeline(sc, expected, point, vol, f"{n}.point{idx}"))


def _point_pipeline(sc: textio.Scenario, expected: TorsionSet,
                    point: Mapping[str, Fraction], vol: Fraction,
                    anchor: str) -> tuple:
    """Full rational pipeline at one admissible point, against the golden
    torsions `expected` at volume scale `vol`; one record.

    The constrained rank, of the Bryant rows on the kernel of the
    membership rows, is rank A - rank M by rank-nullity, A the whole
    system and M its membership rows (`TorsionSystem.membership_kernel_rank`).
    After a unique solve rank A = 64, so the record eliminates the 71 rows
    once, plus the tau2 and tau3 membership blocks of 7 and 8 rows; a
    failed solve costs one more elimination for rank A.  The kernel of the
    tau2 block is the component of 2-forms with a ^ star phi = 0; where
    it is not 14-dimensional, WrongDimension ends the command with exit
    1, as a non-generic 3-form does elsewhere."""
    phi = _specialize(sc.phi_family, point)
    problems = []
    if not g2.compatibility_defect(sc.metric, phi).is_zero():
        problems.append("compatibility defect nonzero")
    system = g2.torsion_linear_system(sc.algebra, sc.metric, phi, vol)
    try:
        torsions = g2.check_torsions(sc.algebra, sc.metric, phi,
                                     system.solution(), vol)
        for field, _, _, same in _compare_torsions(
                torsions, _specialize(expected, point)):
            if not same:
                problems.append(f"{field} mismatch")
    except (NonUniqueSolution, InconsistentSystem, InternalInconsistency) as exc:
        problems.append(f"torsion solve failed: {exc}")
    rank = system.membership_kernel_rank()
    if rank != 49:
        problems.append(f"constrained rank {rank}")
    dim = system.membership_kernel_dims()["tau2"]
    if dim != 14:
        raise WrongDimension(f"2-form kernel has dimension {dim}, expected 14")
    ok = not problems
    computed = ("torsion match, constrained rank 49, 14-component dim 14"
                if ok else "; ".join(problems))
    return (anchor, "pipeline at " + _point_text(point, sc.alphabet), ok,
            computed, "torsion match, constrained rank 49, 14-component dim 14")


# -- command handlers ---------------------------------------------------------


def cmd_verify_paper(cfg: RunConfig) -> Report:
    rep = Report("verify-paper", cfg.scenario or "both", seed=cfg.seed)
    if cfg.corrupt is not None:
        j, k, i = cfg.corrupt
        table = {pair: dict(row) for pair, row in catalog.COMMUTATORS.items()}
        table.setdefault((j, k), {})[i] = table.get((j, k), {}).get(i, 0) + 1
        corrupted = LieAlgebra(10, table)
        rep.note(f"negative control: structure constant ({j},{k},{i}) "
                 f"shifted by 1; scenario checks skipped")
        _base_algebra_checks(rep, corrupted, cfg.corrupt)
        return rep
    base = liealg.sp2_build()
    _base_algebra_checks(rep, base, None)
    _subalgebra_checks(rep, base)
    _distribution_records(rep, base, "base.distribution",
                          sorted(catalog.DISTRIBUTION_FACTS))
    names = SCENARIO_NAMES if cfg.scenario is None else (cfg.scenario,)
    for name in names:
        _scenario_checks(rep, name, cfg)
    return rep


def cmd_invariants(cfg: RunConfig) -> Report:
    rep = Report("invariants", cfg.scenario or cfg.input_path, seed=None)
    sc = _load_scenario(cfg, rep)
    if sc is None:
        return rep
    kinds = ("metric", "3-form") if cfg.kind == "both" else (cfg.kind,)
    _invariant_space_checks(rep, sc, "invariants", kinds, list_basis=True)
    return rep


def cmd_torsion(cfg: RunConfig) -> Report:
    rep = Report("torsion", cfg.scenario or cfg.input_path, seed=None)
    sc = _load_scenario(cfg, rep)
    if sc is None:
        return rep
    if sc.metric is None or sc.phi_family is None:
        raise ValidationError("torsion needs both a metric and a 3-form; "
                              "the input document lacks one")
    vol = cfg.vol_scale
    expected = None if sc.expected is None else _expected_torsions(sc)
    if cfg.sets:
        _validate_point(cfg.sets, sc)
        rep.note("specialized at " + _point_text(cfg.sets, sc.alphabet))
        phi = _specialize(sc.phi_family, cfg.sets)
        torsions = g2.torsion_solve(sc.algebra, sc.metric, phi, vol)
        if expected is not None:
            expected = _specialize(expected, cfg.sets)
    else:
        torsions = sc.torsions(vol)
    if vol != 1:
        rep.note(f"volume scale {vol}")
    if expected is not None:
        expected = expected.rescale(vol)
    _torsion_records(rep, "torsion", torsions, expected)
    rep.add("torsion.verified",
            "solution re-checked against both structure equations "
            "and both component memberships",
            True, "exact", "exact")
    if cfg.fmt == "json":  # text reports never read the payload
        rep.payload["torsion"] = _torsion_payload(torsions, vol)
    return rep


def cmd_growth(cfg: RunConfig) -> Report:
    rep = Report("growth", "base", seed=None)
    names = cfg.names or tuple(sorted(catalog.DISTRIBUTION_FACTS))
    unknown = sorted(set(names) - set(catalog.DISTRIBUTION_FACTS))
    if unknown:
        raise UsageError("unknown distribution name(s): " + ", ".join(unknown)
                         + "; choose from "
                         + ", ".join(sorted(catalog.DISTRIBUTION_FACTS)))
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise UsageError("distribution name(s) given twice: " + ", ".join(repeated))
    base = liealg.sp2_build()
    _distribution_records(rep, base, "growth", names)
    return rep


def cmd_describe(cfg: RunConfig) -> str:
    if cfg.scenario == "sp2":
        return catalog.algebra_text()
    sc = _load_scenario(cfg, Report("describe", cfg.input_path))
    if sc is None:
        raise ValidationError("input document failed validation; "
                              "run torsion or invariants for a report")
    return sc.text()


# -- argument parser ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that rejects a bad command line by raising
    UsageError, which `main` reports in one line, instead of printing its
    usage and exiting; `add_subparsers` builds the subcommands' parsers
    from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitg2",
        description="Exact checks for invariant split-G2 structures on a "
                    "rank-two split symplectic quotient.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenarios=SCENARIO_NAMES, with_input=True, required=True,
               with_format=True):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--scenario", choices=scenarios,
                           help="builtin scenario")
        if with_input:
            group.add_argument("--input", metavar="PATH",
                               help="scenario document ('-' for stdin)")
        if with_format:
            p.add_argument("--format", choices=("text", "json"),
                           default="text")
        p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")

    p = sub.add_parser("verify-paper",
                       help="replay every catalogued check for one or both "
                            "scenarios")
    common(p, with_input=False, required=False)
    p.add_argument("--vol-scale", metavar="FRACTION",
                   help="positive rational volume scale (default 1)")
    p.add_argument("--seed",
                   help="seed for the sampled specializations (default 0)")
    p.add_argument("--corrupt", metavar="J,K,I",
                   help="shift one structure constant by 1 as a negative "
                        "control; the Jacobi check must then fail")

    p = sub.add_parser("invariants",
                       help="dimensions and bases of the invariant tensor "
                            "spaces")
    common(p)
    p.add_argument("--kind", choices=("metric", "3-form", "both"),
                   default="both")

    p = sub.add_parser("torsion",
                       help="solve the torsion equations exactly")
    common(p)
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="pin one parameter to a rational value (repeatable; "
                        "all parameters or none)")
    p.add_argument("--vol-scale", metavar="FRACTION",
                   help="positive rational volume scale (default 1)")

    p = sub.add_parser("growth",
                       help="invariance and growth of the named distributions")
    p.add_argument("names", nargs="*",
                   help="distribution names (default: all four)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("describe",
                       help="emit a scenario or algebra document")
    common(p, scenarios=SCENARIO_NAMES + ("sp2",), with_format=False)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept."""
    return build_parser()


def _emit(text: str, out: Optional[str]) -> None:
    """Write the report as UTF-8, whatever the locale, to the file `out` or
    to stdout; argument bytes that the locale did not decode (a path, say)
    go back out as they came.  A closed stdout, one that takes only text
    in an encoding short of the report's characters, or a failed write is
    an error."""
    data = text.encode("utf-8", "surrogateescape")
    if out:
        try:
            Path(out).write_bytes(data)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}")
        return
    stream = getattr(sys.stdout, "buffer", None)
    try:
        if stream is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            stream.write(data)
            stream.flush()
    except (AttributeError, UnicodeEncodeError):  # None when closed
        raise SplitG2Error("standard output cannot take the report; "
                           "use --out")
    except OSError as exc:
        raise SplitG2Error(f"cannot write to standard output: "
                           f"{exc.strerror or exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line; returns the exit code.

    The argument parser is built on the first call in a process, not at
    import, and reused.  A command's handler is looked up by name
    (`cmd_` and the command, `-` read as `_`) when the command runs, so
    a rebinding of `cmd_torsion` and the like takes effect.
    """
    try:
        try:
            ns = _parser().parse_args(argv)
        except SystemExit as exc:  # --help, printed to stdout
            return int(exc.code or 0)
        cfg = _config_from(ns)
        if ns.command == "describe":
            text, code = cmd_describe(cfg), 0
        else:
            report = globals()["cmd_" + ns.command.replace("-", "_")](cfg)
            text, code = report.render(cfg.fmt), 0 if report.passed() else 1
        _emit(text, cfg.out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SplitG2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def entry() -> None:
    sys.exit(main())
