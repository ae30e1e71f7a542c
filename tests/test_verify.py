from hypothesis import given, settings
from hypothesis import strategies as st

from bioperad.dgcalc import gk_mismatches, homology_dims
from bioperad.duality import cobar_truncate, quadratic_dual
from bioperad.presentation import quotient_dims, signatures_within
from bioperad.specfile import parse_spec
from bioperad.trees import CLOSED, OPEN, sig
from bioperad.verify import dim_mismatches

SIGS = signatures_within(3)
DEGREES = range(-2, 3)

tables = st.dictionaries(
    st.tuples(st.sampled_from(SIGS), st.sampled_from(DEGREES)),
    st.integers(0, 3), max_size=12)


@settings(max_examples=200, deadline=None)
@given(tables, tables)
def test_dim_mismatches_lists_every_differing_cell_in_order(got, want):
    expected = [{"cell": f"{s} {d}", "got": got.get((s, d), 0),
                 "want": want.get((s, d), 0)}
                for s in SIGS for d in DEGREES
                if got.get((s, d), 0) != want.get((s, d), 0)]
    bad = dim_mismatches(got, want)
    assert bad == expected
    nonzero = ({k: v for k, v in got.items() if v}
               == {k: v for k, v in want.items() if v})
    assert (bad == []) == nonzero
    assert dim_mismatches(want, got) == [
        {"cell": w["cell"], "got": w["want"], "want": w["got"]} for w in bad]


def test_dim_mismatches_reports_an_extra_degree():
    # homology outside the degrees of the target is a mismatch of its own
    s = sig(2, 0, OPEN)
    got = {(s, 0): 1, (s, 1): 2, (sig(2, 0, CLOSED), 0): 1}
    want = {(s, 0): 1, (sig(2, 0, CLOSED), 0): 1}
    assert dim_mismatches(got, want) == [
        {"cell": "(2,0;o) 1", "got": 2, "want": 0}]


def _associative_spec(sign):
    return parse_spec(f"""operad assoc{sign}
generator m : (o,o) -> o degree 0 symmetry regular
relation m(m(o1,o2),o3) {sign} m(o1,m(o2,o3))
""")


def _koszul_mismatches(presentation, n):
    """Cobar homology against the quadratic dual's dimensions."""
    return dim_mismatches(homology_dims(cobar_truncate(presentation, n)),
                          quotient_dims(quadratic_dual(presentation), n))


def test_anti_associative_operad_fails_the_koszul_comparison_at_5():
    # not Koszul (Markl-Remm, arXiv:0907.1505): homology off degree 0
    anti = _associative_spec("+")
    assert _koszul_mismatches(anti, 4) == []
    assert _koszul_mismatches(anti, 5) == [
        {"cell": "(0,5;o) 1", "got": 480, "want": 0}]


def test_associative_operad_passes_the_koszul_comparison_at_5():
    assert _koszul_mismatches(_associative_spec("-"), 5) == []


def _gk_mismatches(presentation, n):
    """The series equation against the quadratic dual, through order n."""
    return gk_mismatches(quotient_dims(presentation, n),
                         quotient_dims(quadratic_dual(presentation), n), n)


def test_anti_associative_operad_fails_the_gk_equation_at_5():
    anti = _associative_spec("+")
    assert _gk_mismatches(anti, 4) == []
    assert _gk_mismatches(anti, 5) == [
        {"cell": "(0,5;o)", "got": "4", "want": 0}]


def test_associative_operad_passes_the_gk_equation_at_5():
    assert _gk_mismatches(_associative_spec("-"), 5) == []
