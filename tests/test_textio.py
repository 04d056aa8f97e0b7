"""Structured-text documents: every parse branch plus round-trips."""

import weakref
from fractions import Fraction

import pytest

from splitg2 import catalog, scalars, textio
from splitg2.errors import ParseError
from splitg2.liealg import LieAlgebra
from splitg2.textio import parse_scenario, render_algebra, render_scenario

from conftest import slice_document

GOOD_SCENARIO = """\
format: splitg2-scenario 1
alphabet: q
dim: 5
bracket: 4 5 2 q
horizontal: 3
verticals: 4 5
phi: 1 2 3 q
exclude: q 0
"""

# a parsed metric is a Metric7, so it needs a 7-dimensional horizontal
METRIC_SCENARIO = """\
format: splitg2-scenario 1
dim: 8
horizontal: 7
metric: 1 1 1
metric: 2 2 -2/3
metric: 3 7 1
metric: 4 6 1
metric: 5 5 1
"""


def parses(text):
    return parse_scenario(text)


def test_render_is_byte_stable():
    algebra = LieAlgebra(3, {(1, 2): {3: 1}})
    assert render_algebra(algebra, "heis") == render_algebra(algebra, "heis") == (
        "format: splitg2-algebra 1\nname: heis\ndim: 3\n"
        "# bracket: J K I coefficient  encodes [x_J, x_K] = sum_I coefficient * x_I\n"
        "bracket: 1 2 3 1\n")
    doc = parse_scenario(GOOD_SCENARIO)
    assert render_scenario(doc) == render_scenario(doc)


def test_scenario_round_trip_byte_identical():
    for fixture in (GOOD_SCENARIO, METRIC_SCENARIO):
        text = render_scenario(parse_scenario(fixture))
        assert render_scenario(parse_scenario(text)) == text
    assert parse_scenario(GOOD_SCENARIO).exclusions == (("q", Fraction(0)),)
    assert parse_scenario(METRIC_SCENARIO).metric.tensor.terms == {
        (1, 1): 1, (2, 2): Fraction(-2, 3), (3, 7): 1, (4, 6): 1, (5, 5): 1}


def test_catalog_scenarios_round_trip():
    for name in ("Ml", "Ms"):
        sc = catalog.scenario(name)
        text = render_scenario(sc)
        again = parse_scenario(text)
        assert render_scenario(again) == text
        assert again.algebra.brackets == sc.algebra.brackets


def test_comments_and_blanks_ignored():
    doc = parse_scenario(
        "# leading comment\n\nformat: splitg2-scenario 1\n\ndim: 2\n"
        "   # done\nhorizontal: 1\n"
    )
    assert doc.algebra.dim == 2


def test_defaulted_verticals():
    doc = parse_scenario(
        "format: splitg2-scenario 1\ndim: 5\nbracket: 1 2 3 1\nhorizontal: 3\n"
    )
    assert doc.verticals == (4, 5)


@pytest.mark.parametrize("text,fragment", [
    ("", "empty document"),
    ("dim: 3\n", "must declare 'format'"),
    ("format: splitg2-algebra 2\ndim: 3\n", "expected format"),
    ("format: splitg2-algebra 1\nformat: splitg2-algebra 1\ndim: 2\n", "duplicate 'format'"),
    ("format: splitg2-algebra 1\njust words\n", "expected 'key: value'"),
    ("format: splitg2-algebra 1\nwhat: 3\n", "unknown key"),
    ("format: splitg2-algebra 1\n", "no 'dim' line"),
    ("format: splitg2-algebra 1\ndim: 3\ndim: 3\n", "duplicate 'dim'"),
    ("format: splitg2-algebra 1\ndim: x\n", "bad integer"),
    ("format: splitg2-algebra 1\ndim: 3\nbracket: 1 2\n", "needs 3+ fields"),
    ("format: splitg2-algebra 1\ndim: 3\nbracket: 2 1 3 1\n", "J < K"),
    ("format: splitg2-algebra 1\ndim: 3\nbracket: 1 2 3 1\nbracket: 1 2 3 1\n",
     "duplicate bracket triple"),
    ("format: splitg2-algebra 1\ndim: 3\nbracket: 1 2 3\n", "missing coefficient"),
    ("format: splitg2-algebra 1\ndim: 3\nbracket: 1 2 3 zz\n", "unknown parameter"),
    ("format: splitg2-algebra 1\ndim: 3\nbracket: 1 2 4 1\n", "bad bracket target"),
    ("format: splitg2-algebra 1\nname: a\nname: b\ndim: 2\n", "duplicate 'name'"),
    ("format: splitg2-algebra 1\nalphabet: q q\ndim: 2\n", "repeated parameter"),
    ("format: splitg2-algebra 1\nalphabet: a\nalphabet: b\ndim: 2\n", "duplicate 'alphabet'"),
    ("format: splitg2-algebra 1\nname:\nname: Other\ndim: 2\n", "duplicate 'name'"),
    ("format: splitg2-algebra 1\nalphabet:\nalphabet: q\ndim: 2\n", "duplicate 'alphabet'"),
    ("format: splitg2-algebra 1\ndim: 3\nbracket: 1 2 3 1\nalphabet: q\n",
     "must precede coefficients"),
    ("format: splitg2-algebra 1\ndim: 10 junk\n",
     "line 2: dim takes one integer, got '10 junk'"),
])
def test_algebra_parse_errors(text, fragment):
    """Errors in the algebra lines of a scenario document.  Each case is
    written with the algebra format line, which is swapped for the
    scenario one; a wrong version number stays wrong."""
    text = text.replace(textio.ALGEBRA_FORMAT, textio.SCENARIO_FORMAT)
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,fragment", [
    ("format: splitg2-scenario 1\ndim: 3\n", "no 'horizontal' line"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 9\n", "outside 1..3"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 2\nverticals: 2\n",
     "vertical index 2"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 2\nverticals:\n",
     "empty verticals"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 2\nverticals: x\n",
     "must be integers"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 2\nmetric: 2 1 1\n",
     "i <= j"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 2\nmetric: 1 1 1\nmetric: 1 1 2\n",
     "duplicate metric entry"),
    ("format: splitg2-scenario 1\nalphabet: q\ndim: 3\nhorizontal: 2\nmetric: 1 1 q\n",
     "plain rationals"),
    ("format: splitg2-scenario 1\ndim: 4\nhorizontal: 3\nphi: 1 3 2 1\n",
     "i < j < k"),
    ("format: splitg2-scenario 1\ndim: 4\nhorizontal: 3\nphi: 1 2 3 1\nphi: 1 2 3 1\n",
     "duplicate phi term"),
    ("format: splitg2-scenario 1\ndim: 4\nhorizontal: 3\nexclude: q 1\n",
     "unknown parameter"),
    ("format: splitg2-scenario 1\nalphabet: q\ndim: 4\nhorizontal: 3\nexclude: q\n",
     "'parameter value'"),
    ("format: splitg2-scenario 1\nalphabet: q\ndim: 4\nhorizontal: 3\nexclude: q q\n",
     "plain rationals"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 2\nmetric: 1 7 1\n",
     "out of range"),
    ("format: splitg2-scenario 1\ndim: 10\nhorizontal: 7 eight\n",
     "line 3: horizontal takes one integer, got '7 eight'"),
    ("format: splitg2-scenario 1\ndim: 3\nhorizontal: 1\nverticals: 2 2 3\n",
     "line 4: repeated vertical index in '2 2 3'"),
])
def test_scenario_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("old,new,message", [
    ("dim: 5", "dim: ٥", "line 3: bad integer '٥'"),
    ("dim: 5", "dim: +5", "line 3: bad integer '+5'"),
    ("bracket: 4 5 2 q", "bracket: 4 5 ２ q", "line 4: bad integer '２'"),
    ("horizontal: 3", "horizontal: 0_3", "line 5: bad integer '0_3'"),
    ("horizontal: 3", "horizontal: ٣", "line 5: bad integer '٣'"),
    ("verticals: 4 5", "verticals: 4 0_5", "line 6: verticals must be integers"),
    ("verticals: 4 5", "verticals: ٤ 5", "line 6: verticals must be integers"),
    ("metric: 1 1 1", "metric: 0_1 1 1", "line 4: bad integer '0_1'"),
    ("phi: 1 2 3 q", "phi: ١ 2 3 q", "line 7: bad integer '١'"),
], ids=["dim-arabic-indic", "dim-plus", "bracket-fullwidth", "horizontal-underscore",
        "horizontal-arabic-indic", "verticals-underscore", "verticals-arabic-indic",
        "metric-underscore", "phi-arabic-indic"])
def test_document_integers_take_ascii_digits_only(old, new, message):
    # int() reads each of these as the integer it resembles
    fixture = METRIC_SCENARIO if old.startswith("metric") else GOOD_SCENARIO
    assert old + "\n" in fixture
    with pytest.raises(ParseError) as err:
        parse_scenario(fixture.replace(old + "\n", new + "\n", 1))
    assert str(err.value) == message


def test_document_integers_may_be_zero_padded():
    doc = parse_scenario(GOOD_SCENARIO.replace("horizontal: 3", "horizontal: 03")
                         .replace("verticals: 4 5", "verticals: 04 5"))
    assert render_scenario(doc) == render_scenario(parse_scenario(GOOD_SCENARIO))


@pytest.mark.parametrize("name", ["℘", "Ⅻ", "e\u0301"],
                         ids=["weierstrass-p", "roman-numeral", "combining-accent"])
def test_alphabet_names_read_back_as_one_name(name):
    # str.isidentifier takes each of these, but the expression parser stops
    # at the symbol or the accent, so no coefficient could use the name
    assert name.isidentifier()
    text = GOOD_SCENARIO.replace("alphabet: q\n", f"alphabet: q {name}\n", 1)
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert str(err.value) == f"line 2: bad parameter name {name!r}"
    with pytest.raises(ValueError, match="bad parameter name"):
        scalars.Polynomial.variable(("q", name), "q")


def test_alphabet_names_beyond_ascii_are_usable():
    text = GOOD_SCENARIO.replace("alphabet: q\n", "alphabet: q λ aⅫ _r\n", 1)
    text = text.replace("phi: 1 2 3 q\n", "phi: 1 2 3 q*λ + aⅫ/_r\n", 1)
    doc = parse_scenario(text)
    assert doc.alphabet == ("q", "λ", "aⅫ", "_r")
    text = render_scenario(doc)
    assert render_scenario(parse_scenario(text)) == text


def _at_limit(limit: str, step: int) -> str:
    """A valid scenario document `step` past the named limit (0: at it)."""
    head = "format: splitg2-scenario 1\nhorizontal: 1\n"
    if limit == "dim":
        return head + f"dim: {textio.MAX_DIM + step}\n"
    if limit == "brackets":
        pairs = [(j, k) for j in range(1, 65) for k in range(j + 1, 65)]
        body = "".join(f"bracket: {j} {k} 1 1\n"
                       for j, k in pairs[:textio.MAX_BRACKETS + step])
        return head + f"dim: {textio.MAX_DIM}\n" + body
    if limit == "alphabet":
        names = " ".join(f"x{i}" for i in range(textio.MAX_ALPHABET + step))
        return head + f"alphabet: {names}\ndim: 2\n"
    return head + "dim: 2\n" + "# comment\n" * (textio.MAX_LINES - 3 + step)


@pytest.mark.parametrize("limit,fragment", [
    ("dim", f"exceeds the limit {textio.MAX_DIM}"),
    ("brackets", f"more than {textio.MAX_BRACKETS} bracket lines"),
    ("alphabet", f"more than {textio.MAX_ALPHABET} parameters"),
    ("lines", f"exceeds the limit of {textio.MAX_LINES} lines"),
])
def test_documents_past_a_limit_are_rejected(limit, fragment):
    assert parse_scenario(_at_limit(limit, 0)).algebra.dim in (2, textio.MAX_DIM)
    with pytest.raises(ParseError) as err:
        parse_scenario(_at_limit(limit, 1))
    assert fragment in str(err.value)
    assert len(str(err.value).splitlines()) == 1


def test_error_lines_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_scenario("format: splitg2-scenario 1\ndim: 3\nbracket: 2 1 3 1\n")


def test_render_algebra_header_comment_present():
    text = render_algebra(LieAlgebra(2, {}))
    assert "# bracket: J K I coefficient" in text


# -- interning -------------------------------------------------------------


def test_slice_documents_share_one_algebra_and_one_metric():
    first, second = (parse_scenario(slice_document(k)) for k in (2, -3))
    assert render_scenario(first) != render_scenario(second)
    assert first.algebra is second.algebra
    assert first.metric is second.metric
    assert first.algebra.jacobi_check() is second.algebra.jacobi_check()


def test_the_same_bracket_text_under_two_alphabets_gives_two_algebras():
    ml = parse_scenario(catalog.scenario("Ml").text())
    sliced = parse_scenario(slice_document(2))
    assert (ml.alphabet, sliced.alphabet) == (("a", "p", "q"), ("a", "q"))
    assert ml.algebra is not sliced.algebra
    coeffs = {c.alphabet for comps in sliced.algebra.brackets.values()
              for c in comps.values()}
    assert coeffs == {("a", "q")}
    assert ml.metric is sliced.metric


def test_a_new_table_releases_the_last_one():
    first = parse_scenario(GOOD_SCENARIO)
    ref = weakref.ref(first.algebra)
    del first
    assert ref() is not None
    assert parse_scenario(GOOD_SCENARIO).algebra is ref()
    parse_scenario(METRIC_SCENARIO)
    assert ref() is None
