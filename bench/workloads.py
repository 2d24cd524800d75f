"""Benchmark workloads, their seeded CLI jobs, and the traced layers.

A workload is a list of slots.  Each slot holds one CLI job or a few
alternatives; the seed picks one alternative per slot and the job order, so
the same seed always gives the same argv lists.  Every alternative has a
recorded reference output (see `record_references.py`), so an unseen seed is
still checked.
"""

import random
from collections import namedtuple

Workload = namedtuple("Workload", "why slots")
Layer = namedtuple("Layer", "function fields moves on")


def period(h, f1, f2):
    return ("period", "--h1", h, "--h2", h, "--f1", f1, "--f2", f2)


def lvalue(h, f1, f2):
    return ("lvalue", "--h1", h, "--f1", f1, "--f2", f2)


# `gate` sends these level-26 quadruples (h, h; f1, f2) to discriminant 13
# and to discriminant 2 respectively.
DISC13_QUADRUPLES = (("26a", "26a", "26a"), ("26a", "26b", "26b"))
DISC2_QUADRUPLES = (("26b", "26a", "26a"), ("26b", "26b", "26b"),
                    ("26a", "26a", "26b"))

WORKLOADS = {
    "period-small": Workload(
        "period at levels 11, 14 and 26 (disc 13): Brandt matrices via "
        "short_vectors and the p^4 two-sided ideal walk; superorders tiny, "
        "lseries idle",
        ((period("11a", "11a", "11a"),),
         (period("14a", "14a", "14a"),),
         tuple(period(*q) for q in DISC13_QUADRUPLES))),
    "period-eichler13": Workload(
        "eigenforms of the disc-2 Eichler order of level 13, plus gate on a "
        "quadruple sent there: superorders_at is rebuilt per eigenform, so "
        "memoisation can show only here",
        ((("eigen", "--disc", "2", "--level", "26"),),
         tuple(("gate", "--h1", h, "--h2", h, "--f1", f1, "--f2", f2)
               for h, f1, f2 in DISC2_QUADRUPLES))),
    "lvalue-afe": Workload(
        "lvalue of the level-11 and a level-26 triple plus a Sym2 proxy: all "
        "time in the AFE, on 10k-term and on ~100-term series; orders, "
        "brandt and lattice idle",
        ((lvalue("11a", "11a", "11a"),),
         tuple(lvalue(h, f, f) for h in ("26a", "26b")
               for f in ("26a", "26b")),
         tuple(("lvalue", "--sym2", label)
               for label in ("11a", "26a", "26b")))),
    "siegel-lift": Workload(
        "weight-2 yoshida lift, restrict with gamma 2, diffop and the "
        "degree-1 theta lift: Fraction and polynomial arithmetic of the "
        "lifts, and short_vectors used apart from Brandt counting",
        (tuple(("yoshida", "--disc", "3", "--nu1", "2", "--nu2", "2",
                "--prec", "4", "--seed", str(s)) for s in (1, 2, 3)),
         (("restrict", "--disc", "11", "--prec", "6", "--gamma", "2"),),
         (("theta", "--disc", "11", "--prec", "30"),),
         (("diffop", "--k", "4", "--a", "2", "--b", "1", "--r", "2",
           "--T", "2,1,3"),))),
}

PERIOD = ("period-small", "period-eichler13")
EVERY = tuple(WORKLOADS)

# Traced layers: the metric fields each reports, and the end-to-end metric
# and workloads a change to that layer should move.  On every other
# workload the prediction is no change.
LAYERS = (
    Layer("orders.superorders_at", ("self_s", "calls", "distinct"),
          "wall_s", ("period-eichler13",)),
    Layer("orders.essential_complement", ("calls",),
          "wall_s", ("period-eichler13",)),
    Layer("brandt.eigenforms", ("calls",), "wall_s", ("period-small",)),
    Layer("cli.match_eigenform", ("calls",), "wall_s", ("period-small",)),
    Layer("orders.two_sided_prime_ideal", ("self_s",),
          "wall_s", PERIOD + ("siegel-lift",)),
    Layer("orders.right_ideal_classes", ("self_s",),
          "wall_s", PERIOD + ("siegel-lift",)),
    Layer("lattice.short_vectors", ("self_s", "calls", "vectors"),
          "wall_s", PERIOD + ("siegel-lift",)),
    Layer("brandt.brandt_matrix", ("self_s", "calls", "cache_hits"),
          "wall_s", PERIOD + ("siegel-lift",)),
    Layer("brandt.atkin_lehner", ("self_s",), "wall_s", PERIOD),
    Layer("brandt.eichler_theta", ("self_s",), "wall_s", ("siegel-lift",)),
    Layer("yoshida.yoshida_lift", ("self_s",), "wall_s", ("siegel-lift",)),
    Layer("harmonics.c_coeff", ("self_s",), "wall_s", ("siegel-lift",)),
    Layer("diffop.apply_to_table", ("self_s",), "wall_s", ("siegel-lift",)),
    Layer("diffop.projection_poly", ("self_s",), "wall_s", ("siegel-lift",)),
    Layer("periods.period_sums", ("self_s",), "wall_s", ("period-small",)),
    Layer("lseries.central_value", ("self_s", "calls", "terms"),
          "wall_s", ("lvalue-afe",)),
    Layer("lseries.dirichlet_coefficients", ("self_s",),
          "wall_s", ("lvalue-afe",)),
    Layer("lseries.triple_factor", ("self_s", "calls"),
          "wall_s", ("lvalue-afe",)),
    Layer("lseries.sym2_factor", ("self_s",), "wall_s", ("lvalue-afe",)),
    Layer("lseries.petersson_norm_proxy", ("self_s",),
          "wall_s", ("lvalue-afe",)),
    Layer("lseries.ingest", ("self_s",), "setup_s", EVERY),
)

# Metrics of the traced run that belong to no single layer: traced minus
# untraced wall time, and traced wall time outside every span (interpreter
# start, imports, argument parsing, JSON output), which moves setup_s.
TRACE_METRICS = {"trace.overhead_s": ("wall_s", EVERY),
                 "trace.unspanned_s": ("setup_s", EVERY)}


def jobs_for(name, seed):
    """The argv lists of one pass of workload `name` under `seed`."""
    rng = random.Random(seed)
    jobs = [rng.choice(slot) for slot in WORKLOADS[name].slots]
    rng.shuffle(jobs)
    return jobs


def all_jobs():
    """Every argv list any seed can produce, in a fixed order."""
    return [job for workload in WORKLOADS.values()
            for slot in workload.slots for job in slot]
