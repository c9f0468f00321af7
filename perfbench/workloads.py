"""The benchmark's four workloads.

Each workload turns a seed into one *pass* of inputs (`prepare`), runs
the pass as a closed loop of items, one at a time, timing every item
with a pair of `perf_counter` calls (`run`), and checks every output
against an independent oracle afterwards (`check`).  A measured run is
a whole number of passes over the same inputs, each in a fresh
interpreter (see run.py).

qiso functions are looked up on their modules at call time, so that the
tracer's wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, List, Optional

from qiso import catalog, cli, isometry, metric, quantum_group, reports, transport

import oracles

# `qiso.envelope` the attribute is the function the package re-exports
envelope = importlib.import_module("qiso.envelope")

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    context: dict = field(default_factory=dict)


@dataclass
class Record:
    label: str
    seconds: float
    value: Any = None
    error: Optional[str] = None
    context: dict = field(default_factory=dict)


class HostSpeed:
    """Times a fixed slice of Python work that calls no qiso code.

    A shared 2-CPU Xeon host drifts in speed by up to 40% over tens of
    seconds, for reasons outside the program (a fixed loop's median time
    per 10 s window ranged over 0.36 of its median within 150 s).  A
    slice is timed before every item, outside the item's timing, so the
    median slice of a pass measures the host's speed during that pass and
    run.py can scale the pass's times to a reference speed."""

    def __init__(self):
        self.slices: List[float] = []

    def probe(self) -> None:
        """Integer loop and Fraction arithmetic, in about equal parts: the
        two kinds of work qiso's time goes to, which a busy neighbour slows
        by different amounts (small-object allocation feels shared caches
        more)."""
        t0 = perf_counter()
        acc = 0
        for i in range(15_000):
            acc += i * i % 7
        frac = Fraction(0)
        for i in range(1, 300):
            frac += Fraction(i % 17, 1 + i % 13)
        self.slices.append(perf_counter() - t0)


def run_items(items: List[Item], host: HostSpeed) -> List[Record]:
    out = []
    for item in items:
        host.probe()
        t0 = perf_counter()
        try:
            value, error = item.call(), None
        except Exception as ex:  # an item that raises counts as failed
            value, error = None, f"{type(ex).__name__}: {ex}"
        t1 = perf_counter()
        out.append(Record(item.label, t1 - t0, value, error, item.context))
    return out


def _subseed(seed: int, *parts: int) -> int:
    value = seed
    for part in parts:
        value = value * 1_000_003 + part
    return value % (2 ** 31)


# ---------------------------------------------------------------------------
# classical: universal decisions on permutation actions

CONDITIONS = {
    "D": lambda a: isometry.check_D(a),
    "main": lambda a: isometry.check_theorem_main(a),
    "Lip_inf": lambda a: isometry.check_winf_universal(a),
    "Lip_3": lambda a: isometry.check_lip_p_universal(a, 3),
    "Lip_2": lambda a: isometry.check_lip_p_universal(a, 2),
    "Lip_1": lambda a: isometry.check_lip1_universal(a),
}


def relabeled(sigma, move):
    """The permutation i -> sigma^-1(move(sigma(i))): `move` acting on
    points renamed so that point i is point sigma[i] of the original."""
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv[move(s)] for s in sigma)


def dihedral_generators(n: int, sigma, reflection: bool = True):
    gens = [relabeled(sigma, lambda j: (j + 1) % n)]
    if reflection:
        gens.append(relabeled(sigma, lambda j: (-j) % n))
    return gens


def cycle_action(n: int, dihedral: bool, sigma):
    """C_n (or D_n) acting on the n-cycle, with point i of the space being
    point sigma[i] of the cycle."""
    base = catalog.cycle_metric(n)
    space = metric.validate_metric([[base.dist[sigma[i]][sigma[j]] for j in range(n)]
                                    for i in range(n)])
    return catalog.permutation_action(space, dihedral_generators(n, sigma, dihedral),
                                      name=f"{'D' if dihedral else 'C'}{n}")


def non_isometric_action(n: int, seed: int):
    """A seeded random permutation action that moves some distance."""
    for attempt in range(100):
        s = _subseed(seed, attempt)
        space = metric.random_metric_space(n, s)
        action = catalog.random_permutation_action(space, s)
        if not oracles.permutation_action_isometric(action):
            return action
    raise RuntimeError("no non-isometric action sampled")


class Classical:
    """One pass: D4, C5 and D5 on seeded relabelings of the cycle and one
    seeded non-isometric permutation action on 5 points, each with all six
    conditions.  An isometric action runs every subset and vertex test, so
    its cost does not depend on the relabeling.  The random action's five
    fast refutations, the three (D) checks and D4's Lip_1 sit below D4's
    four ~0.1 s subset and vertex tests, so the median of the 24 items
    lies among those four for every seed.  The n = 6 and 7 cycles of the ROADMAP take
    4-13 s per action and are left to the walls probe."""

    name = "classical"

    def prepare(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        plan = []
        for n, dihedral in ((3, True),) if tiny else ((4, True), (5, False), (5, True)):
            sigma = list(range(n))
            rng.shuffle(sigma)
            plan.append(cycle_action(n, dihedral, sigma))
        plan.append(non_isometric_action(4 if tiny else 5, seed))
        items = []
        for action in plan:
            expected = oracles.permutation_action_isometric(action)
            for cond in CONDITIONS:
                items.append(Item(f"{action.name}:{cond}",
                                  lambda a=action, c=cond: CONDITIONS[c](a),
                                  {"expected": expected}))
        return items

    def run(self, items, host):
        return run_items(items, host)

    def check(self, items, records):
        return [oracles.check_verdict(r) for r in records]

    def digest(self, records):
        return [f"{r.label}={r.value.holds if r.value is not None else r.error}"
                for r in records]


# ---------------------------------------------------------------------------
# transport: exact-rational and float solver calls

SOLVERS = {
    "W1": lambda s, mu, nu: transport.transport_with_power(s, mu, nu, 1),
    "W2": lambda s, mu, nu: transport.transport_with_power(s, mu, nu, 2),
    "K": lambda s, mu, nu: transport.kantorovich_w1(s, mu, nu),
    "Winf": lambda s, mu, nu: transport.wasserstein_inf(s, mu, nu),
}
# (n, k): the k-th fixed problem of size n.  The two n = 20 ones are
# picked from the first eight so that their exact W2 calls (about 0.8 s
# each) and W1 calls (0.6 and 0.67 s) are the four slowest of a pass, and
# the tail sample, the 11th slowest of four passes, falls inside the
# 0.67 s call's samples
REFERENCES = ((20, 1), (20, 6), (16, 2), (16, 3))
SEEDED_SIZE = 16
REFERENCE_SEED = 0


def small_denominator_marginal(n: int, rng: random.Random):
    """Positive masses k_i / 4n."""
    weights = [1] * n
    for _ in range(3 * n):
        weights[rng.randrange(n)] += 1
    return [Fraction(w, 4 * n) for w in weights]


def transport_problem(n: int, seed: int):
    """A shortest-path-graph metric with two small-denominator marginals,
    exact and as floats."""
    rng = random.Random(seed)
    exact = {"space": metric.random_metric_space(n, seed),
             "mu": transport.prob_vector(small_denominator_marginal(n, rng)),
             "nu": transport.prob_vector(small_denominator_marginal(n, rng))}
    fl = {"space": metric.validate_metric(
              [[float(v) for v in row] for row in exact["space"].dist], mode="float"),
          "mu": transport.prob_vector([float(m) for m in exact["mu"].mass]),
          "nu": transport.prob_vector([float(m) for m in exact["nu"].mass])}
    return exact, fl


def reference_seed(n: int, k: int = 0) -> int:
    """The seed of the k-th fixed problem of size n."""
    return _subseed(REFERENCE_SEED + k, n)


class Transport:
    """One pass solves four reference problems (n = 20, 20, 16 and 16, the
    same for every seed) and one seeded n = 16 problem, each with all four
    solvers in exact arithmetic and all but Kantorovich in float.  The
    rational simplex's cost swings twofold between random instances of
    one size, relabelings included, so most problems are fixed: with
    three seeded problems in their place the median latency spread 0.19
    of itself across seeds.  Float Kantorovich, 2 ms, is left out so that
    a problem has seven items and a pass an odd count: the median item
    then lies among the exact calls instead of in the gap between the
    float and exact ones.  The n = 32 baselines of the ROADMAP are timed
    by the walls probe."""

    name = "transport"

    def prepare(self, seed: int, tiny: bool = False):
        problems = [(f"ref-n{n}-{k}", n, reference_seed(n, k))
                    for n, k in (((6, 0),) if tiny else REFERENCES)]
        n = 5 if tiny else SEEDED_SIZE
        problems.append((f"n{n}-s{seed}", n, _subseed(seed, 0)))
        items = []
        for problem, n, s in problems:
            exact, fl = transport_problem(n, s)
            for mode, data in (("exact", exact), ("float", fl)):
                for solver, fn in SOLVERS.items():
                    if mode == "float" and solver == "K":
                        continue
                    items.append(Item(
                        f"{problem}:{mode}:{solver}",
                        lambda fn=fn, d=data: fn(d["space"], d["mu"], d["nu"]),
                        {"problem": problem, "mode": mode, "solver": solver,
                         "data": data}))
        return items

    def run(self, items, host):
        return run_items(items, host)

    def check(self, items, records):
        return oracles.check_transport(records)

    def digest(self, records):
        return [f"{r.label}={oracles.transport_value(r)}" for r in records]


# ---------------------------------------------------------------------------
# hopf: quantum-group verification, Haar state, envelope

def symmetric_function_algebra(m: int, rng: random.Random):
    """C(S_m) from a seeded generating pair (an m-cycle and a transposition
    of neighbours, relabeled at random), which fixes the basis order."""
    sigma = list(range(m))
    rng.shuffle(sigma)
    swap = {0: 1, 1: 0}
    gens = [relabeled(sigma, lambda j: (j + 1) % m),
            relabeled(sigma, lambda j: swap.get(j, j))]
    return quantum_group.function_algebra_of_group(
        quantum_group.close_generators(m, gens), name=f"C(S{m})")


def dihedral_function_algebra(m: int, rng: random.Random):
    """C(D_m) acting on a seeded relabeling of the m-gon's vertices."""
    sigma = list(range(m))
    rng.shuffle(sigma)
    return quantum_group.function_algebra_of_group(
        quantum_group.close_generators(m, dihedral_generators(m, sigma)), name=f"C(D{m})")


def equal_cross_blocks_action(m: int, rng: random.Random):
    """The two-projection action of dual-D_m on a 4-point block metric
    with seeded in-block distances a, b and one cross distance c; such an
    action satisfies (D), so its envelope is the whole quantum group."""
    c = Fraction(rng.randint(2, 8), 2)
    a, b = (Fraction(rng.randint(1, 2 * int(2 * c)), 2) for _ in range(2))
    space = catalog.four_point_blocks(a, b, c)
    return catalog.dihedral_projection_action(space, m, name=f"blocks-D{m}")


def verify_with_haar(qg):
    return quantum_group.verify_quantum_group(qg), quantum_group.haar_state(qg)


class Hopf:
    """One pass: verification and Haar state of C(D4)-C(D8) on seeded
    relabelings (commutative branch) and of dual-D4 to dual-D8 and
    dual-D10 (noncommutative branch), then the envelopes of four
    (D)-isometric two-projection actions: 15 items.  The median, the
    eighth, falls among dual-D6, the D6 envelope and dual-D7/the D7
    envelope, four items within 25% of each other, rather than on one
    item between gaps.  C(S4), 5 s on its own, is timed by the walls
    probe."""

    name = "hopf"

    def prepare(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        dihedral_m = (4,) if tiny else (4, 5, 6, 7, 8)
        dual_m = (3,) if tiny else (4, 5, 6, 7, 8, 10)
        envelope_m = (3, 4) if tiny else (4, 5, 6, 7)
        groups = [symmetric_function_algebra(3, rng)] if tiny else []
        groups += [dihedral_function_algebra(m, rng) for m in dihedral_m]
        groups += [catalog.dihedral_group_algebra(m, name=f"dual-D{m}") for m in dual_m]
        items = [Item(f"qg:{qg.name}", lambda qg=qg: verify_with_haar(qg), {"group": qg})
                 for qg in groups]
        for m in envelope_m:
            action = equal_cross_blocks_action(m, rng)
            items.append(Item(f"envelope:{action.name}",
                              lambda a=action: envelope.envelope(a), {"action": action}))
        return items

    def run(self, items, host):
        return run_items(items, host)

    def check(self, items, records):
        return [oracles.check_hopf(r) for r in records]

    def digest(self, records):
        out = []
        for r in records:
            if r.error:
                out.append(f"{r.label}={r.error}")
            elif "group" in r.context:
                out.append(f"{r.label}=haar-reduced:{r.value[1].reduced}")
            else:
                out.append(f"{r.label}=dim:{r.value.dimension}")
        return out


# ---------------------------------------------------------------------------
# catalog: the end-to-end `qiso search --kind catalog` path, in-process

CATALOG_CONFIG = os.path.join(HERE, "catalog_search.json")
CATALOG_SMOKE_CONFIG = os.path.join(HERE, "catalog_smoke.json")


class Catalog:
    """One pass is `qiso search --kind catalog --random 2 --seed S` with the
    catalog entries and `n_range` of catalog_search.json, driven through
    `qiso.cli.main` in this process; an item is one
    `reports.verify_instance` call inside it.

    The entries are four permutation actions on 3 and 4 points and the
    two-projection action dual-d4-asymmetric, whose boxed-dual vertex
    enumeration takes about a third of the pass; the search adds two
    seeded random permutation actions on 3 points.  Their cost, 0.2-0.36
    s, lies below s3-equilateral's and above cyclic-3's, so that the
    fourth of the seven items, the median, is s3-equilateral or the
    slower random action for every seed.  A third
    random action would be a seeded two-projection action, whose cost
    swings from 1.3 s to 4.8 s with the metric the seed draws from the
    catalog's pool, a swing larger than the bounds."""

    name = "catalog"
    random_actions = 2

    def prepare(self, seed: int, tiny: bool = False):
        config = CATALOG_SMOKE_CONFIG if tiny else CATALOG_CONFIG
        with open(config) as fh:
            entries = len(json.load(fh)["catalog"])
        random_actions = 0 if tiny else self.random_actions
        argv = ["search", "--kind", "catalog", "--config", config,
                "--random", str(random_actions), "--seed", str(seed)]
        return {"argv": argv, "instances": entries + random_actions}

    def run(self, invocation, host):
        timings = []
        original = reports.verify_instance

        def timed(desc, *args, **kwargs):
            host.probe()
            t0 = perf_counter()
            try:
                return original(desc, *args, **kwargs)
            finally:
                timings.append(perf_counter() - t0)

        out = io.StringIO()
        reports.verify_instance = timed
        try:
            with contextlib.redirect_stdout(out):
                code, error = cli.main(invocation["argv"]), None
        except Exception as ex:  # a search that raises counts its items as failed
            code, error = None, f"{type(ex).__name__}: {ex}"
        finally:
            reports.verify_instance = original
        if error is None and code != 0:
            error = f"qiso search exited with {code}"
        if error is not None:
            timings += [0.0] * (invocation["instances"] - len(timings))
            return [Record(f"instance-{k}", sec, None, error)
                    for k, sec in enumerate(timings)]
        report = json.loads(out.getvalue())
        violations = report["implication_matrix"]["violations"]
        return [Record(inst["name"], sec, inst,
                       context={"violations": [v for v in violations
                                               if v["instance"] == inst["name"]]})
                for inst, sec in zip(report["instances"], timings)]

    def check(self, invocation, records):
        out = [oracles.check_catalog_record(r) for r in records]
        if len(records) != invocation["instances"]:
            out.append(f"search reported {len(records)} instances, "
                       f"expected {invocation['instances']}")
        return out

    def digest(self, records):
        return [f"{r.label}={r.error or oracles.pattern(r.value['conditions'])}"
                for r in records]


WORKLOADS = {w.name: w for w in (Catalog(), Classical(), Transport(), Hopf())}
