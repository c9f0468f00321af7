"""Subset condition vs coupling feasibility; the marriage corollary."""

import itertools
import random
from fractions import Fraction as F

import pytest

from qiso.metric import PairSet
from qiso.transport import ProbVector, feasible_coupling_on, prob_vector

from oracles import (NonSquareBipartition, all_pairs, hall_condition,
                     neighborhood, perfect_matching, transpose_pairs)


def test_neighborhood_examples():
    Y = PairSet.from_pairs(3, [(0, 1), (1, 0)])
    assert neighborhood(Y, set()) == frozenset()
    assert neighborhood(all_pairs(3), {1}) == {0, 1, 2}
    assert neighborhood(Y, {0}, "forward") == {1}
    assert neighborhood(Y, {0}, "backward") == {1}
    asym = PairSet.from_pairs(3, [(0, 2)])
    assert neighborhood(asym, {0}, "forward") == {2}
    assert neighborhood(asym, {2}, "backward") == {0}


def test_hall_condition_examples():
    u = ProbVector.uniform(2)
    holds, _ = hall_condition(u, u, all_pairs(2))
    assert holds
    holds, violator = hall_condition(u, u, PairSet.from_pairs(2, []))
    assert not holds and violator <= {0, 1} and len(violator) >= 1
    holds, violator = hall_condition(
        u, u, PairSet.from_pairs(2, [(0, 0), (1, 0)]))
    assert not holds and violator == {0, 1}  # nu({0}) = 1/2 < 1


def test_feasible_coupling_on_examples():
    u = ProbVector.uniform(3)
    Y = PairSet.from_pairs(3, [(0, 1), (1, 2), (2, 0)])  # a permutation graph
    v = feasible_coupling_on(u, u, Y, 1e-9)
    assert v.feasible
    assert all(v.coupling.plan[i][j] in (0, F(1, 3)) for i in range(3) for j in range(3))
    mu = prob_vector([F(2, 3), F(1, 3)])
    nu = prob_vector([F(1, 3), F(2, 3)])
    v = feasible_coupling_on(
        mu, nu, PairSet.from_pairs(2, [(0, 0), (0, 1), (1, 1)]), 1e-9)
    assert v.feasible
    assert v.coupling.plan == ((F(1, 3), F(1, 3)), (F(0), F(1, 3)))


def grid_vectors(n, max_denom):
    vecs = set()
    for q in range(1, max_denom + 1):
        for comp in itertools.product(range(q + 1), repeat=n):
            if sum(comp) == q:
                vecs.add(tuple(F(c, q) for c in comp))
    return sorted(vecs)


def test_theorem_equivalence_exhaustive_n2():
    vecs = grid_vectors(2, 3)
    for bits in range(16):
        Y = PairSet.from_pairs(2, [(i, j) for k, (i, j) in enumerate(
            itertools.product(range(2), repeat=2)) if bits >> k & 1])
        for a in vecs:
            for b in vecs:
                mu, nu = ProbVector(a), ProbVector(b)
                holds, violator = hall_condition(mu, nu, Y)
                verdict = feasible_coupling_on(mu, nu, Y, 1e-9)
                assert holds == verdict.feasible
                if not holds:
                    T = neighborhood(Y, violator)
                    assert nu(T) < mu(violator)
                if not verdict.feasible:
                    T = neighborhood(Y, verdict.violator)
                    assert nu(T) < mu(verdict.violator)


def test_symmetric_form_and_monotonicity():
    rng = random.Random(0)
    for _ in range(40):
        n = 3
        mu = ProbVector(tuple(random.choice(grid_vectors(1, 3))[0] for _ in range(n)))
        # build a random valid distribution instead
        w = [F(rng.randint(0, 3)) for _ in range(n)]
        if sum(w) == 0:
            continue
        mu = ProbVector(tuple(x / sum(w) for x in w))
        w = [F(rng.randint(0, 3)) for _ in range(n)]
        if sum(w) == 0:
            continue
        nu = ProbVector(tuple(x / sum(w) for x in w))
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4]
        Y = PairSet.from_pairs(n, pairs)
        forward = feasible_coupling_on(mu, nu, Y, 1e-9).feasible
        backward = feasible_coupling_on(nu, mu, transpose_pairs(Y), 1e-9).feasible
        assert forward == backward
        if forward:
            bigger = PairSet.from_pairs(n, pairs + [(rng.randrange(n), rng.randrange(n))])
            assert feasible_coupling_on(mu, nu, bigger, 1e-9).feasible
        else:
            smaller = PairSet.from_pairs(n, pairs[: max(0, len(pairs) - 1)])
            assert not feasible_coupling_on(mu, nu, smaller, 1e-9).feasible


def matching_bruteforce(adj):
    n = len(adj)
    for perm in itertools.permutations(range(n)):
        if all(adj[i][perm[i]] for i in range(n)):
            return perm
    return None


def test_perfect_matching_examples():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    kind, matching = perfect_matching(eye)
    assert kind == "matching" and matching == (0, 1, 2)
    # two left vertices joined only to one right vertex: pigeonhole
    adj = [[1, 0, 0], [1, 0, 0], [1, 1, 1]]
    kind, violator = perfect_matching(adj)
    assert kind == "violator"
    assert len(violator) > len({j for i in violator for j in range(3) if adj[i][j]})
    with pytest.raises(NonSquareBipartition):
        perfect_matching([[1, 0], [1, 0], [1, 1]])


def test_perfect_matching_of_the_empty_graph():
    """The empty bipartite graph has the empty perfect matching."""
    assert perfect_matching([]) == ("matching", ())


def test_perfect_matching_random_agrees_with_bruteforce():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(2, 6)
        adj = [[1 if rng.random() < 0.45 else 0 for _ in range(n)] for _ in range(n)]
        kind, payload = perfect_matching(adj)
        oracle = matching_bruteforce(adj)
        if kind == "matching":
            assert oracle is not None
            assert all(adj[i][payload[i]] for i in range(n))
            assert sorted(payload) == list(range(n))
        else:
            assert oracle is None
            nbrs = {j for i in payload for j in range(n) if adj[i][j]}
            assert len(nbrs) < len(payload)


def test_matching_feasibility_matches_feasible_coupling_on():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 5)
        adj = [[1 if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        uniform = ProbVector.uniform(n)
        Y = PairSet(tuple(tuple(bool(v) for v in row) for row in adj))
        feasible = feasible_coupling_on(uniform, uniform, Y, 1e-9).feasible
        assert (perfect_matching(adj)[0] == "matching") == feasible
