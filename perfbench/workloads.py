"""The benchmark's workloads: generated inputs, the timed calls, and the
deterministic outputs that the behaviour oracle compares.

Each workload runs in a fresh interpreter (see child.py).  ``prepare`` runs
in the benchmark process and turns the seed into input files; ``setup``
reads them and builds the models (it is timed as set-up); ``run`` is the
timed work; ``outputs`` turns the result into JSON-comparable tables after
timing and tracing have stopped.

Why these three, and why these sizes, is in README.md.
"""

import os
import random
from fractions import Fraction

from bioperad import (dgcalc, linalg, models, presentation, specfile, trees,
                      verify)

VERIFY_BOUNDS = {"dims": 4, "d2": 4, "homology": 4, "laws": 4}
LP_INPUTS = 4
OC_INPUTS = 4


def _cell(signature, degree):
    return f"{signature} {degree}"


def seeded_lp_spec(seed):
    """Operad-file text of a presentation of LP whose relations are a seeded
    symmetric relabeling of each builtin relation, scaled by a seeded
    nonzero rational.  The ideal, and hence every quotient dimension, is the
    same for every seed.

    LP has one relation per signature, so scaling is the only invertible
    recombination within a signature.  (Adding more relabelings per
    signature to mix makes the saturation work, and so the time, depend on
    the seed by up to 2x.)"""
    rng = random.Random(seed)
    lp = models.lp_presentation()
    relations = []
    for rel in lp.relations:
        g = rng.choice(presentation.group_elements(rel.signature()))
        scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        relations.append(trees.symmetric_act(g, rel).scale(scale))
    pres = presentation.Presentation(lp.collection, relations,
                                     f"LP-seed{seed}")
    return specfile.emit_spec(pres)


class VerifyB4:
    """All 14 verify checks at dims = d2 = homology = laws = 4."""

    def prepare(self, seed, workdir):
        return []

    def setup(self, args):
        return None

    def run(self, state):
        return verify.run_checks(bounds=VERIFY_BOUNDS, notes=False)

    def outputs(self, state, results):
        return {"statuses": {r.id: r.status for r in results}}


class IdealLp4:
    """Saturate a seeded presentation of LP and take its quotient table."""

    def prepare(self, seed, workdir):
        path = os.path.join(workdir, f"ideal-lp4-seed{seed}.operad")
        with open(path, "w") as fh:
            fh.write(seeded_lp_spec(seed))
        return [path]

    def setup(self, args):
        with open(args[0]) as fh:
            return specfile.parse_spec(fh.read())

    def run(self, pres):
        return presentation.quotient_dims(pres, LP_INPUTS)

    def outputs(self, pres, table):
        return {"quotient_dims": {_cell(s, d): v
                                  for (s, d), v in table.items()}}


class DgOc4:
    """d^2 = 0 over every chain tree of OCinf(4), then its homology."""

    def prepare(self, seed, workdir):
        return []

    def setup(self, args):
        return models.ocinf_dg(OC_INPUTS)

    def run(self, dg):
        return dgcalc.verify_d_squared(dg), dgcalc.homology_dims(dg)

    def outputs(self, dg, result):
        violations, homology = result
        chain, ranks = {}, {}
        for s in dg.signatures():
            for d in dg.cell_degrees(s):
                chain[_cell(s, d)] = dg.chain_dim(s, d)
                ech = linalg.Echelon()
                for col in dg.differential_columns(s, d):
                    ech.add(col)
                ranks[_cell(s, d)] = ech.rank
        return {"d2_violations": len(violations),
                "chain_trees": chain,
                "ranks": ranks,
                "homology": {_cell(s, d): v
                             for (s, d), v in homology.items()}}


WORKLOADS = {"verify-b4": VerifyB4(), "ideal-lp4": IdealLp4(),
             "dg-oc4": DgOc4()}


def gate(outputs, golden):
    """Compare outputs with the golden record entry by entry.

    Every scalar and every table cell (the union of both tables' keys) is
    one gate.  Returns (attempted, failed, first mismatches)."""
    attempted = failed = 0
    mismatches = []
    for key, want in sorted(golden.items()):
        got = outputs.get(key)
        if isinstance(want, dict):
            got = got if isinstance(got, dict) else {}
            pairs = [(f"{key}[{k}]", got.get(k), want.get(k))
                     for k in sorted(set(want) | set(got))]
        else:
            pairs = [(key, got, want)]
        for where, g, w in pairs:
            attempted += 1
            if g != w:
                failed += 1
                if len(mismatches) < 10:
                    mismatches.append({"at": where, "got": g, "want": w})
    return attempted, failed, mismatches
