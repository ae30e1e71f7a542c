import pytest

from bioperad.models import (PRESENTATION_BUILDERS, h0sc_dual_presentation,
                             h0sc_presentation, lp_presentation)
from bioperad.presentation import Presentation, relation_span
from bioperad.duality import weight2_signatures
from bioperad.specfile import (SpecFileError, emit_spec, parse_spec,
                               parse_relation_expression)
from bioperad.trees import Collection, parse_term, sig, OPEN, CLOSED


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
    e = parse_relation_expression(lp.collection,
                                  "- n02(o1,o2) + 2*n02(o2,o1)")
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
