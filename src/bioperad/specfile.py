"""The two text file formats: operad files and tensor files.

Both are line-oriented, one declaration per line, with # comments and blank
lines ignored, and both write linear combinations in the one grammar of
``trees.parse_combination``: ``[sign] term {sign term}``, a term being
``[coeff '*'] atom`` with an integer or ``p/q`` coefficient.

Operad files (``parse_spec`` / ``emit_spec``):

    operad NAME
    generator f2 : (c,c) -> c degree 0 symmetry trivial
    generator e02 : (o,o) -> o degree 0 symmetry regular
    relation f2(f2(c1,c2),c3) - f2(c1,f2(c2,c3))
    relation 1/2*e02(o1,o2) + e02(o2,o1)

A relation is read by ``trees.parse_term`` and written by ``repr`` of its
Element, which rearranges children to each vertex's stored arrangement and
folds the reparse sign into the printed coefficient, so
parse(emit(P)) reproduces the presentation relation by relation.

Tensor files (``parse_tensor_file``) hold the structure tensors of a graded
pair; their atoms are symbol names.  Every error names its line; a column
counts within the combination of that line.
"""

from .algebraside import GradedPair, HomotopyAlgebraData
from .presentation import Presentation, check_relation
from .trees import (CLOSED, NONE, OPEN, REGULAR, SIGN, TRIVIAL, Collection,
                    TermSyntaxError, accumulate, generator, parse_combination,
                    parse_term, sig)

SYMMETRIES = (TRIVIAL, SIGN, REGULAR, NONE)


class FileFormatError(ValueError):
    """A malformed input file, located by line and, within a combination,
    by column."""

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


class SpecFileError(FileFormatError):
    """A malformed operad file."""


class TensorFileError(FileFormatError):
    """A malformed tensor file."""


def _declarations(text, error, kind):
    """(line, head, rest) for each declaration of a file; raises error when
    the file holds none."""
    declared = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            declared = True
            head, _, rest = line.partition(" ")
            yield lineno, head, rest.strip()
    if not declared:
        raise error(f"empty {kind} file: no declaration")


def parse_spec(text):
    """Parse an operad file into a Presentation."""
    name = "operad"
    generators = []
    relation_lines = []
    for lineno, head, rest in _declarations(text, SpecFileError, "operad"):
        if head == "operad":
            name = rest or name
        elif head == "colors":
            if rest.split() != ["c", "o"]:
                raise SpecFileError("colors must be 'c o'", lineno)
        elif head == "generator":
            generators.append((lineno, rest))
        elif head == "relation":
            relation_lines.append((lineno, rest))
        else:
            raise SpecFileError(f"unknown declaration {head!r}", lineno)
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
            # a conflict with an earlier generator names this line
            Collection(spaces)
        except SpecFileError:
            raise
        except Exception as exc:
            raise SpecFileError(f"bad generator: {exc}", lineno) from exc
    collection = Collection(spaces)
    relations = []
    for lineno, rest in relation_lines:
        try:
            elem = parse_term(collection, rest)
        except TermSyntaxError as exc:
            raise SpecFileError(exc.message, lineno, exc.pos + 1) from exc
        if elem.is_zero():
            continue
        try:
            check_relation(collection, elem)
        except ValueError as exc:
            raise SpecFileError(f"bad relation: {exc}", lineno) from exc
        relations.append(elem)
    return Presentation(collection, relations, name)


def emit_spec(presentation):
    """Write a Presentation in the operad file format."""
    lines = [f"operad {presentation.name}" if presentation.name
             else "operad anonymous"]
    lines.append("colors c o")
    for space in presentation.collection:
        if space.symmetry is None:
            raise ValueError("only named-generator presentations can be "
                             "emitted")
        s = space.signature
        colors = ",".join([CLOSED] * s.n_closed + [OPEN] * s.n_open)
        lines.append(f"generator {space.name} : ({colors}) -> {s.out} "
                     f"degree {space.degree} symmetry {space.symmetry}")
    lines.extend(f"relation {rel!r}" for rel in presentation.relations)
    return "\n".join(lines) + "\n"


def parse_tensor_file(text):
    """Parse the structure-tensor text format into HomotopyAlgebraData.

    Grammar (one declaration per line, # comments):
        closed <name> <degree>
        open <name> <degree>
        l <n>: <name>,...,<name> -> <combination of closed names>
        n <p> <q>: <names> | <names> -> <combination of open names>
    A combination is ``[sign] term {sign term}`` with term
    ``[coeff '*'] name``: a coefficient is an integer or a rational p/q, a
    bare name means 1*name, and a lone ``0`` is the zero combination.
    """
    degrees = {"closed": {}, "open": {}}
    entries = []
    for lineno, head, rest in _declarations(text, TensorFileError, "tensor"):
        if head in degrees:
            try:
                name, degree = rest.split()
                degree = int(degree)
            except ValueError:
                raise TensorFileError(
                    f"expected '{head} <name> <degree>' with an integer "
                    "degree", lineno) from None
            if any(name in names for names in degrees.values()):
                raise TensorFileError(f"duplicate symbol name {name}", lineno)
            degrees[head][name] = degree
        elif head in ("l", "n"):
            entries.append((lineno, head, rest))
        else:
            raise TensorFileError(f"unknown declaration {head!r}", lineno)
    data = HomotopyAlgebraData(
        GradedPair(degrees["closed"].items(), degrees["open"].items()), {}, {})
    positions = {kind: {name: i for i, name in enumerate(names)}
                 for kind, names in degrees.items()}
    for lineno, head, rest in entries:
        try:
            _add_tensor_entry(data, positions, head, rest)
        except TermSyntaxError as exc:
            raise TensorFileError(exc.message, lineno, exc.pos + 1) from exc
        except ValueError as exc:
            raise TensorFileError(str(exc), lineno) from exc
    return data


def _position(positions, kind, name):
    if name not in positions[kind]:
        raise ValueError(f"unknown {kind} symbol {name!r}")
    return positions[kind][name]


def _add_tensor_entry(data, positions, head, rest):
    """Add the entry of one l or n declaration to data's tensors."""
    spec, _, value = rest.partition("->")
    counts, _, args = spec.partition(":")
    cargs, _, oargs = args.partition("|") if head == "n" else (args, "", "")
    ckey, okey = (tuple(_position(positions, kind, a.strip())
                        for a in names.split(",") if a.strip())
                  for kind, names in (("closed", cargs), ("open", oargs)))
    got = (len(ckey), len(okey)) if head == "n" else (len(ckey),)
    if counts.split() != [str(k) for k in got]:
        raise ValueError(f"arity '{head} {counts.strip()}' does not fit "
                         f"{len(ckey)} closed and {len(okey)} open arguments")
    out = "closed" if head == "l" else "open"

    def symbol(text, p):
        start = p
        while p < len(text) and not text[p].isspace() and text[p] not in "+-*":
            p += 1
        return _position(positions, out, text[start:p]), p

    img = accumulate({}, ((i, c) for c, i in
                          parse_combination(value.strip(), symbol)))
    data.add_entry(head == "l", ckey, okey, img)
