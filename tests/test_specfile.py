import pytest

from bioperad.models import PRESENTATION_BUILDERS, lp_presentation
from bioperad.presentation import Presentation, relation_span
from bioperad.duality import weight2_signatures
from bioperad.specfile import (SpecFileError, TensorFileError, emit_spec,
                               parse_spec, parse_tensor_file)
from bioperad.trees import Collection, parse_term, sig, OPEN


def _span_identical(a, b):
    assert [s.name for s in a.collection] == [s.name for s in b.collection]
    if not a.is_quadratic():
        # mixed-weight ideals: relation-by-relation equality is checked by
        # the caller, which is stronger than span equality
        return True
    for s in weight2_signatures(a.collection):
        if relation_span(a, s, 2) != relation_span(b, s, 2):
            return False
    return True


@pytest.mark.parametrize("name", sorted(PRESENTATION_BUILDERS))
def test_builtin_roundtrip(name):
    pres = PRESENTATION_BUILDERS[name]()
    text = emit_spec(pres)
    back = parse_spec(text)
    assert back.name == pres.name
    assert len(back.relations) == len(pres.relations)
    # relation-by-relation equality, not just spans
    assert sorted(map(repr, back.relations)) == sorted(map(repr, pres.relations))
    assert _span_identical(pres, back)


def test_parse_simple_file():
    text = """
    # a tiny operad
    operad demo
    colors c o
    generator m : (o,o) -> o degree 0 symmetry regular
    relation m(m(o1,o2),o3) - m(o1,m(o2,o3))
    """
    pres = parse_spec(text)
    assert pres.name == "demo"
    assert len(pres.relations) == 1
    assert relation_span(pres, sig(0, 3, OPEN), 2).dim == 6


def test_parse_coefficients():
    text = """
    operad demo
    generator m : (o,o) -> o degree 0 symmetry regular
    relation 1/2*m(m(o1,o2),o3) - 3*m(o1,m(o2,o3)) + m(m(o2,o1),o3)
    """
    pres = parse_spec(text)
    rel = pres.relations[0]
    assert len(rel) == 3


def test_parse_error_unbalanced():
    with pytest.raises(SpecFileError) as err:
        parse_spec("operad x\ngenerator m : (o,o) -> o degree 0 symmetry "
                   "regular\nrelation m(m(o1,o2),o3")
    assert "line 3" in str(err.value)


def test_parse_error_unknown_generator():
    with pytest.raises(SpecFileError) as err:
        parse_spec("operad x\ngenerator m : (o,o) -> o degree 0 symmetry "
                   "regular\nrelation w(o1,o2)")
    assert "line 3" in str(err.value)


def test_parse_error_bad_symmetry():
    with pytest.raises(SpecFileError) as err:
        parse_spec("generator m : (o,o) -> o degree 0 symmetry weird")
    assert "symmetry" in str(err.value)


def test_relation_expression_signs():
    lp = lp_presentation()
    e = parse_term(lp.collection, "- n02(o1,o2) + 2*n02(o2,o1)")
    assert len(e) == 2
    vals = sorted(e.terms.values())
    assert vals == [-1, 2]


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n"])
def test_empty_spec_rejected(text):
    with pytest.raises(SpecFileError, match="empty"):
        parse_spec(text)


def test_trivial_operad_roundtrip():
    text = emit_spec(Presentation(Collection([]), [], "I"))
    assert text == "operad I\ncolors c o\n"
    back = parse_spec(text)
    assert back.name == "I"
    assert not list(back.collection) and not back.relations


def test_relation_after_a_lone_sign_is_refused():
    with pytest.raises(SpecFileError, match="line 3"):
        parse_spec("operad x\ngenerator m : (o,o) -> o degree 0 symmetry "
                   "regular\nrelation -")


def test_tensor_combination_with_signs():
    data = parse_tensor_file("open a 0\nopen b 0\nn 0 2: | a,a -> a - 3*b")
    assert data.n_tensors[(0, 2)][((), (0, 0))] == {0: 1, 1: -3}


@pytest.mark.parametrize("value, message", [
    ("1/0*a", "bad coefficient"),
    ("a -", "expected a term"),
    ("- - a", "expected a term"),
    ("1.5*a", "expected '*'"),
    ("a + c", "unknown open symbol 'c'"),
])
def test_malformed_tensor_combination_names_its_line(value, message):
    with pytest.raises(TensorFileError, match=message) as err:
        parse_tensor_file(f"open a 0\n\nn 0 2: | a,a -> {value}\n")
    assert err.value.line == 3 and "(line 3" in str(err.value)


def test_unknown_tensor_argument_names_its_line():
    with pytest.raises(TensorFileError) as err:
        parse_tensor_file("closed x 0\nl 2: x,z -> x")
    assert str(err.value) == "unknown closed symbol 'z' (line 2)"


@pytest.mark.parametrize("line, message", [
    ("colors c", "colors must be 'c o'"),
    ("generators m", "unknown declaration 'generators'"),
    ("generator m : o,o -> o degree 0", "inputs must be parenthesized"),
    ("generator m : (o,x) -> o degree 0", "input colors must be c or o"),
    ("generator m : (o,c) -> o degree 0",
     "closed inputs must precede open ones"),
    ("generator m : (o,o) -> x degree 0", "output color must be c or o"),
    ("generator m : (o,o) -> o degree one",
     "bad generator: invalid literal for int() with base 10: 'one'"),
], ids=["colors", "declaration", "parentheses", "input-color", "block-order",
        "output-color", "bad-generator"])
def test_malformed_operad_line_names_its_line(line, message):
    with pytest.raises(SpecFileError) as err:
        parse_spec(f"operad x\n{line}\n")
    assert str(err.value) == f"{message} (line 2)"
    assert err.value.line == 2


@pytest.mark.parametrize("text, message", [
    ("open a 0\nclosed x\n",
     "expected 'closed <name> <degree>' with an integer degree"),
    ("closed x 0\nl 3: x,x -> x\n",
     "arity 'l 3' does not fit 2 closed and 0 open arguments"),
], ids=["declaration", "arity"])
def test_malformed_tensor_line_names_its_line(text, message):
    with pytest.raises(TensorFileError) as err:
        parse_tensor_file(text)
    assert str(err.value) == f"{message} (line 2)"
    assert err.value.line == 2
