"""Declarative operad files: parse and emit presentations.

Line-oriented format, # comments, blank lines ignored:

    operad NAME
    generator f2 : (c,c) -> c degree 0 symmetry trivial
    generator e02 : (o,o) -> o degree 0 symmetry regular
    relation f2(f2(c1,c2),c3) - f2(c1,f2(c2,c3))
    relation 1/2*e02(o1,o2) + e02(o2,o1)

Tree terms use the canonical textual grammar of the tree layer; rationals
are written p/q.  Emission rearranges children to each vertex's stored
arrangement and folds the reparse sign into the printed coefficient, so
parse(emit(P)) reproduces the presentation relation by relation.
"""

from fractions import Fraction

from .presentation import Presentation
from .trees import (CLOSED, NONE, OPEN, REGULAR, SIGN, TRIVIAL, Collection,
                    Element, TermSyntaxError, generator, parse_term, sig,
                    text_form_signed)

SYMMETRIES = (TRIVIAL, SIGN, REGULAR, NONE)


class SpecFileError(ValueError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc = f" ({loc})"
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


def parse_relation_expression(collection, text, line=None):
    """Signed rational combination of tree terms."""
    elem = Element.zero()
    pos = 0
    n = len(text)
    sign = 1
    expect_term = True
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        ch = text[pos]
        if ch == "+":
            if expect_term:
                raise SpecFileError("unexpected '+'", line, pos + 1)
            sign, expect_term = 1, True
            pos += 1
            continue
        if ch == "-":
            if expect_term:
                sign = -sign
            else:
                sign, expect_term = -1, True
            pos += 1
            continue
        if not expect_term:
            raise SpecFileError("expected '+' or '-' between terms",
                                line, pos + 1)
        coeff = Fraction(sign)
        if ch.isdigit():
            start = pos
            while pos < n and (text[pos].isdigit() or text[pos] == "/"):
                pos += 1
            try:
                coeff *= Fraction(text[start:pos])
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecFileError(f"bad coefficient: {exc}", line,
                                    start + 1)
            while pos < n and text[pos].isspace():
                pos += 1
            if pos < n and text[pos] == "*":
                pos += 1
            else:
                raise SpecFileError("expected '*' after a coefficient",
                                    line, pos + 1)
        # find the term: balanced parentheses
        start = pos
        depth = 0
        while pos < n:
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
                if depth == 0:
                    pos += 1
                    break
                if depth < 0:
                    raise SpecFileError("unbalanced ')'", line, pos + 1)
            elif text[pos] in "+-" and depth == 0:
                break
            pos += 1
        if depth > 0:
            raise SpecFileError("unbalanced '(' in tree term", line,
                                start + 1)
        term_text = text[start:pos].strip()
        if not term_text:
            raise SpecFileError("empty term", line, start + 1)
        try:
            elem = elem + parse_term(collection, term_text).scale(coeff)
        except TermSyntaxError as exc:
            raise SpecFileError(str(exc), line, start + exc.pos + 1)
        except (ValueError, KeyError) as exc:
            raise SpecFileError(str(exc), line, start + 1)
        sign = 1
        expect_term = False
    if expect_term and not elem.is_zero():
        raise SpecFileError("dangling sign", line, pos)
    return elem


def parse_spec(text):
    """Parse an operad file into a Presentation."""
    name = "operad"
    generators = []
    relation_lines = []
    declared = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        declared = True
        head, _, rest = line.partition(" ")
        if head == "operad":
            name = rest.strip() or name
        elif head == "colors":
            if rest.split() != ["c", "o"]:
                raise SpecFileError("colors must be 'c o'", lineno)
        elif head == "generator":
            generators.append((lineno, rest))
        elif head == "relation":
            relation_lines.append((lineno, rest.strip()))
        else:
            raise SpecFileError(f"unknown declaration {head!r}", lineno)
    if not declared:
        raise SpecFileError("empty operad file: no declaration")
    spaces = []
    for lineno, rest in generators:
        try:
            gname, _, spec = rest.partition(":")
            gname = gname.strip()
            io_part, _, attrs = spec.partition("degree")
            ins, _, out = io_part.partition("->")
            ins = ins.strip()
            if not (ins.startswith("(") and ins.endswith(")")):
                raise SpecFileError("inputs must be parenthesized", lineno)
            colors = [c.strip() for c in ins[1:-1].split(",") if c.strip()]
            if any(c not in (CLOSED, OPEN) for c in colors):
                raise SpecFileError("input colors must be c or o", lineno)
            ordered = sorted(colors, key=lambda c: 0 if c == CLOSED else 1)
            if colors != ordered:
                raise SpecFileError("closed inputs must precede open ones",
                                    lineno)
            out = out.strip()
            if out not in (CLOSED, OPEN):
                raise SpecFileError("output color must be c or o", lineno)
            deg_s, _, sym_part = attrs.strip().partition("symmetry")
            degree = int(deg_s.strip())
            symmetry = sym_part.strip() or NONE
            if symmetry not in SYMMETRIES:
                raise SpecFileError(f"unknown symmetry {symmetry!r}", lineno)
            n = colors.count(CLOSED)
            m = colors.count(OPEN)
            spaces.append(generator(gname, sig(n, m, out), degree, symmetry))
        except SpecFileError:
            raise
        except Exception as exc:
            raise SpecFileError(f"bad generator: {exc}", lineno) from exc
    collection = Collection(spaces)
    relations = []
    for lineno, rest in relation_lines:
        elem = parse_relation_expression(collection, rest, lineno)
        if not elem.is_zero():
            relations.append(elem)
    return Presentation(collection, relations, name)


def emit_spec(presentation):
    """Write a Presentation in the operad file format."""
    lines = [f"operad {presentation.name}" if presentation.name
             else "operad anonymous"]
    lines.append("colors c o")
    for space in presentation.collection:
        sym = getattr(space, "symmetry", None)
        deg = getattr(space, "gen_degree", None)
        if sym is None or deg is None:
            raise ValueError("only named-generator presentations can be "
                             "emitted")
        s = space.signature
        colors = ",".join([CLOSED] * s.n_closed + [OPEN] * s.n_open)
        lines.append(f"generator {space.name} : ({colors}) -> {s.out} "
                     f"degree {deg} symmetry {sym}")
    for rel in presentation.relations:
        bits = []
        for t, c in sorted(rel.terms.items(),
                           key=lambda tc: text_form_signed(tc[0])[1]):
            reparse_sign, txt = text_form_signed(t)
            coeff = c * reparse_sign
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = txt if mag == 1 else f"{mag}*{txt}"
            bits.append(f"{sign} {body}")
        joined = " ".join(bits)
        if joined.startswith("+ "):
            joined = joined[2:]
        lines.append(f"relation {joined}")
    return "\n".join(lines) + "\n"
