"""Reference procedures that the test suite compares qiso's with.

Each one decides its question independently of the algorithm it checks;
all but `min_cost_flow_reference` do so by exhaustive enumeration and are
exponential in the number of points:

- transport_bruteforce: every basic solution of the transportation
  polytope, against the network simplex;
- min_cost_flow_reference: the network simplex as first written, in the
  data's own scalars (Fraction pivots) with the tree adjacency and the
  potentials rebuilt on every pivot; not exponential, but independent of
  the integer-scaled, incrementally maintained tree of
  `transport._network_simplex`, whose objective must equal the
  reference's (its block-search pricing may stop at another optimal basis
  than Bland's rule);
- enumerate_lipschitz_vertices: every active set of the Lipschitz
  polytope, and enumerate_boxed_dual_vertices: every tight-pair forest
  of the boxed dual polytope, with every way of pinning its components
  (both as first written, with `_solve_linear`), against the spanning-tree
  pivot search of `enumerate_dual_vertices`;
- boxed_dual_vertices_bruteforce: every active set of the boxed dual
  polytope, against the forest enumerator and the pivot search;
- dual_vertices_by_spanning_trees: every spanning tree of K_{m,n} and its
  potentials, against the pivot search on a rectangular restriction;
- enumerate_dual_vertices_reference: the pivot search of
  `enumerate_dual_vertices` as first written, with frozenset trees, the
  slacks of each drop's crossing edges priced anew and dense eps
  coefficient rows for every node; not exponential, but independent of
  the bitmask trees, the slack-ordered scan and the fundamental-cycle
  tie-break of `transport._dual_vertex_search`, whose vertex sets must be
  equal to the reference's (Fractions, or bitwise equal floats);
- lip_p_universal_full_sweep: universal Lip_p as first decided, with one
  transport problem per character and the full-space dual vertices swept
  on every larger block, against the per-support route of
  `check_lip_p_universal`;
- lip_p_universal_loops and support_universal_loops: universal Lip_p
  and the coupling-support conditions (main, Lip_inf) as decided before
  they became array operations, one (pair, block, j/k or vertex) at a
  time, with the block supports taken anew by each call; not
  exponential, but independent of the cached supports, the character
  gather, the stacked products and the batched eigensolvers of
  `check_lip_p_universal` and `check_support_universal`, whose verdicts,
  witnesses, margins and certificates must be equal to the reference's;
- exact_psd_pairs, _exact_entries and _rationalize: exact positivity as
  the universal checks first decided it, on a (re, im) Fraction matrix
  read back entry by entry with `limit_denominator(4096)`, embedded into
  a real matrix and scaled to ints on every call; not exponential, but
  independent of the stored exact forms of `CoAction.exact_block` and
  of `algebra.exact_psd`, for the full-sweep and loops oracles;
- psd_by_principal_minors: the sign of every principal minor (2^(2b) of
  them for a b x b complex block), against the fraction-free symmetric
  elimination of `exact_psd_pairs` and of `algebra.exact_psd`; exact_psd
  applies the former to the stored blocks of an AlgElement, for the
  subset oracle;
- support_universal_bruteforce: positivity of a_{y;N(S)} - a_{x;S} for
  every pair and every subset S, against the pairwise orthogonality
  criterion of `check_theorem_main` and `check_winf_universal`;
- verify_quantum_group_dense: every Hopf axiom on A (x) A assembled as
  one dense block-diagonal matrix of side (sum n_k)^2, with products of
  AlgElements and each operator norm an SVD of the whole dense matrix
  (batched over a stack, without the rows and columns that are zero in
  all of it); not exponential, but
  independent of the product table and the block-by-block norms of
  `verify_quantum_group`'s generic path, which must report the same
  residuals;
- verify_quantum_group_loops and verify_coaction_loops: the Hopf and
  coaction axioms with one largest-singular-value norm per stack of
  blocks, coassociativity as two dim^4 products and the cancellation
  ranks one block at a time; not exponential, but independent of the
  per-size batched norms, the slabbed contractions and the stacked ranks
  of `verify_quantum_group`'s generic path and `verify_coaction`, whose
  residuals must be == to the reference's;
- haar_vector_lstsq: the bi-invariant functional as the least-squares
  solution of (h (x) id)Delta(a) = h(a)1, its mirror and h(1) = 1 over
  the basis, with the solve's residual, against the Plancherel trace of
  `haar_state`;
- group_algebra_loops: the group algebra as first built, with one
  unitarity norm per element and one homomorphism norm and composition
  per pair, and Delta(e_alpha) one column at a time, against the stacked
  checks over the Cayley table of `group_algebra`, whose structure maps
  must be bitwise equal to the reference's;
- hall_condition: the subset condition nu(p12^Y(S)) >= mu(S) over all
  2^n subsets S (guarded at n <= 20), with `neighborhood` for p12^Y(S),
  against the max-flow verdict of `feasible_coupling_on` (c04);
- feasible_coupling_reference: max-flow as first written, augmenting
  from zero flow on an arc-list residual graph; not exponential, but
  independent of the greedy fill, the warm start and the plan-matrix
  flows of `feasible_coupling_on` and `wasserstein_inf`;
- wasserstein_inf_linear_scan: the first realized distance r, in
  increasing order, whose sublevel set carries a coupling by
  `feasible_coupling_reference`; not exponential, but independent of
  the distance ranks, the bisection and the shared max-flow core of
  `wasserstein_inf`, which must return the same r and violator (the
  min-cut side nearest the source, the same for every max flow) and a
  plan that couples the marginals on the same sublevel set;
- hall_sweep_loops: the Hall-table W_inf of `isometry._hall_sweep` as
  first written, one sampled state at a time, against its bisection of
  every (state, pair) at once on chunks of states, whose radii must be
  bitwise equal to the loop's;
- commutator_defects_by_entry, check_D_by_entry, check_D_state_by_entry,
  check_D_commutant_by_entry, generation_deficit_by_entry and
  verify_coaction_by_entry: condition (D), its commutant form, the
  faithfulness deficit (Gram-Schmidt over products of entries) and the
  coaction axioms as first written, one AlgElement sum, product and norm
  per entry of u; not exponential, but independent of the coefficient
  tensor, the einsums, the span saturation by SVD and the stacked block
  norms of `isometry` and `coaction`, which must report the same
  defects, deficits, verdicts and residuals.  The commutant form,
  (U d - d U)_xy when kappa(u_ij) = u_ji, has no twin in `isometry`: it
  is the independent computation that `check_D` is compared with;
- a_element: the quantum indicator a_{x;S} = sum_{j in S} u_xj as an
  AlgElement sum, for the subset oracle and the indicator tests;
- ball, level_set, sublevel_set, lipschitz_constant, act_on_function,
  check_orthogonality, perfect_matching, convolve, convolve_vectors,
  counit_state and state_value: the paper's direct definitions, which
  the program decides by other means and no code in `qiso` calls.
  Balls and (sub)level sets compare raw distances within the space's
  dtol, against the distance ranks and `sublevel_tops` that every check
  of `qiso` reads; the Lipschitz seminorm of Li, Quaegebeur and Sabbe
  and psi |> f, against W_1 and its dual vertices; the orthogonality
  lemma a_{x;S} a_{y;T} = 0, normed block by block on `CoAction.stacks`;
  Hall's perfect matchings, by rounding the max flow of
  `feasible_coupling_on` at uniform marginals; convolution of
  functionals through Delta, the counit state and psi(a) =
  sum_k tr(rho_k a_k);
- all_pairs, diagonal_pairs, transpose_pairs, integral,
  coupling_support, check_marginals and invert: the pair-set, coupling
  and permutation conveniences the tests build their checks from;
  classical_group: a permutation action's group, read off the
  permutation of each 1x1 block (block k of C(G) is element k);
- check_ball_identity and check_lip_seminorm_state: the ball identity
  a_{x;B(y,I)} = kappa(a_{y;B(x,I)}) over all realized intervals, and
  L(psi |> f) <= L(f) on sampled functions and Lipschitz vertices, which
  the tests compare with (D) and per-state Lip_1;
- sample_orthogonality_inputs: admissible (x, y, S, T, delta) tuples for
  `check_orthogonality`, drawn at random;
- with_ordered_pairs: a pairwise universal check run over every ordered
  pair, as before it visited x < y only on an exactly symmetric d;
- scaled_twin: an action on its metric times a scale, exact or as a
  float space, for the unit-independence and metamorphic tests;
- permutation_action_by_entry, dihedral_projection_action_by_entry and
  induced_action_by_entry: the catalog's classical and two-projection
  coactions and the envelope's induced action as first built, one
  AlgElement entry of u at a time (group_element for lambda_g), against
  the coefficient tensors that `catalog` and `envelope` build as arrays,
  which must be equal to the reference's; entry_tensor stacks such
  entries into the (n, n, dim) tensor a CoAction is made of;
- metric_violation_reference: the first failing metric axiom of a
  rational matrix, checked entry by entry in Fractions, against the
  checks `validate_metric` runs on the space's integer form;
- shortest_path_metric_fractions: the shortest-path model of
  `random_metric_space` with Floyd-Warshall on Fractions, against its
  run on four times the weights in ints;
- hopf_saturate: a smallest Hopf ideal containing a block ideal, by
  branching over the survivor pairs that Delta reaches, against the
  envelope's assertion that the defect-generated ideal is already one;
  delta_violations_loops and kappa_block_map_loops: those survivor pairs
  and the antipode's block map one basis element and one block pair at a
  time, against the block-peak array passes of
  `envelope._delta_violations` and `envelope.kappa_block_map`;
- is_hopf_ideal: Delta-, kappa- and counit-compatibility of a block
  ideal, by the first violation `envelope._hopf_violation` finds, for
  the tests and the exhaustive oracles below;
- verify_universal_property: every block subset (at most 12 blocks)
  that defines a Hopf quotient acting (D)-isometrically must contain the
  envelope's ideal; annihilator_convolution_check: functionals vanishing
  on the ideal, sampled, are closed under convolution;
- random_state_by_blocks, extreme_state_by_blocks and
  haar_state_by_blocks: the samplers and the Plancherel trace as first
  written, one density per block, made into a StateFunctional from its
  densities, against the coefficient vectors that `algebra` and
  `haar_state` write directly, whose vectors and densities must be
  bitwise equal to the reference's;
- quotient_by_gather and induced_action_by_gather: the envelope's
  quotient and induced action as first built, gathering the surviving
  basis of every structure map and of u even when no block is cut,
  against the uncut envelope that shares the group's maps, whose
  `qiso envelope` output must be equal to the reference's;
- from_permutation_group, dual_of_group, save_space,
  distribution_to_dict and load_quantum_group: helpers with no caller in
  `qiso`, kept for the tests that build groups and files through them;
- _power_cost and _integer_power: the cost d^p entry by entry from
  `space.dist`, and its ints k^p at scale s^p from the integer form
  d = k / s, independent of the space's per-rank `power` table;
- near_tie_chain: a float space whose realized distances chain within
  dtol, so that a sublevel set opens ranks above its own;
- apply_delta, apply_kappa, counit, hermitian_max_eig and min_eig:
  Delta, kappa and the counit applied to one AlgElement, the largest
  eigenvalue of one Hermitian matrix and the smallest of an element, for
  the per-element oracles above and the tests.

The oracles keep their own ordered-pair loop and block stacks, built
from the AlgElement entries of u.
"""

import itertools
import json
import math
import random
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from qiso.algebra import (AlgElement, FinDimCStarAlgebra, StateFunctional,
                          extreme_state, operator_norms)
from qiso.catalog import (CatalogEntryInvalid, dihedral_group_algebra,
                          permutation_action)
from qiso.coaction import CoAction, generation_deficit
from qiso.envelope import (BlockIdeal, EnvelopeResult, _delta_violations,
                           _hopf_violation, induced_action, kappa_block_map,
                           quotient_quantum_group)
from qiso.errors import DimensionMismatch, QisoError, ShapeMismatch
from qiso.isometry import (_BORDERLINE, IsometryVerdict, _eigen_state,
                           _state_pairs, _vertex_floats, check_D,
                           check_winf_universal)
from qiso.metric import (AsymmetricMatrix, FiniteMetricSpace, NegativeDistance,
                         NonzeroDiagonal, PairSet, TriangleViolation,
                         validate_metric)
from qiso.fileio import (quantum_group_from_dict, read_json_object,
                         space_to_dict)
from qiso.quantum_group import (InconsistentIrreps, NotAGroup, Permutation,
                                QGReport, QuantumGroup, close_generators,
                                compose, function_algebra_of_group,
                                group_algebra)
from qiso.scalars import RATIONAL, Scalar, format_scalar, is_rational, tol_for
from qiso.transport import (_MAX_PIVOTS, Coupling, CouplingFeasibility,
                            DualPotentials, InfeasibleMarginals, ProbVector,
                            UnboundedFlow, WInfResult, _dual_vertex_search,
                            _integer_scale, _mode_of, enumerate_dual_vertices,
                            feasible_coupling_on, prob_vector,
                            transport_with_power)


class SizeGuardExceeded(QisoError):
    """An exhaustive oracle was asked for more than its size guard."""


class KappaConventionMismatch(QisoError):
    """The commutant form's guard kappa(u_ij) = u_ji fails."""


def apply_delta(qg: QuantumGroup, elem: AlgElement) -> np.ndarray:
    """Coefficient matrix of Delta(elem) over basis (x) basis."""
    return np.einsum("bga,a->bg", qg.delta, elem.vec())


def apply_kappa(qg: QuantumGroup, elem: AlgElement) -> AlgElement:
    return qg.algebra.from_vec(qg.kappa @ elem.vec())


def counit(qg: QuantumGroup, elem: AlgElement) -> complex:
    return complex(qg.epsilon @ elem.vec())


def hermitian_max_eig(mat: np.ndarray) -> float:
    """The largest eigenvalue of a Hermitian matrix; its real entry when
    it is 1 x 1."""
    if mat.shape == (1, 1):
        return float(mat[0, 0].real)
    return float(np.linalg.eigvalsh(mat)[-1])


def min_eig(elem: AlgElement) -> float:
    """Smallest eigenvalue over blocks; meaningful for self-adjoint elements."""
    return min(float(np.linalg.eigvalsh(m)[0]) for m in elem.data)


def _ordered_pairs(n: int):
    return [(x, y) for x in range(n) for y in range(n) if x != y]


def _block_stack(action: CoAction, k: int) -> np.ndarray:
    """u entries of block k as an (n, n, b, b) array."""
    n = action.n
    return np.array([[action.u[i][j].data[k] for j in range(n)]
                     for i in range(n)])


def _positive_integer(p) -> bool:
    """Whether p is an int, an integral Fraction or an integral float > 0:
    the exponents that raise a rational distance to an exact power."""
    if isinstance(p, float):
        return p.is_integer() and p > 0
    return isinstance(p, (int, Fraction)) and p.denominator == 1 and p > 0


def _power_cost(space: FiniteMetricSpace, p):
    """The cost matrix d^p, entry by entry from `space.dist`: exact for a
    positive integer p, float(d) ** float(p) otherwise."""
    if _positive_integer(p):
        return [[v ** int(p) for v in row] for row in space.dist]
    return [[float(v) ** float(p) for v in row] for row in space.dist]


def _integer_power(space: FiniteMetricSpace, p):
    """(k^p, s^p) entry by entry from the integer form d = k / s, for a
    rational space and a positive integer p; else None."""
    if space.mode != RATIONAL or not _positive_integer(p):
        return None
    ints, scale = space.integer_form
    return [[k ** int(p) for k in row] for row in ints], scale ** int(p)


def near_tie_chain() -> FiniteMetricSpace:
    """Five points whose realized distances 0, 1, 1 + 1.5e-9, 1 + 3e-9 and
    2 chain within dtol = 1e-9 x 2: {d <= 1} holds the pairs of rank at
    most 2 and {d <= 1 + 1.5e-9} those of rank at most 3, so the
    sublevel tops are (0, 2, 3, 3, 4).  Every distance lies in [1, 2], so
    every triangle holds."""
    a, b = 1 + 1.5e-9, 1 + 3e-9
    return validate_metric([[0.0, 1.0, a, b, 2.0],
                            [1.0, 0.0, b, 2.0, a],
                            [a, b, 0.0, 1.0, b],
                            [b, 2.0, 1.0, 0.0, 1.0],
                            [2.0, a, b, 1.0, 0.0]], mode="float")


# ---------------------------------------------------------------------------
# the paper's direct definitions, which the program decides by other means:
# balls and (sub)level sets on raw distances within dtol, the Lipschitz
# seminorm and the action on functions, the orthogonality lemma, Hall's
# perfect matchings, convolution of states, and the pair-set, coupling and
# permutation conveniences the tests build their checks from

# A real-valued function on X is just its vector of values, length n.
RealFunction = Sequence[Scalar]


def lipschitz_constant(space: FiniteMetricSpace, f: RealFunction) -> Scalar:
    """max over i != j of |f_i - f_j| / d(i,j); 0 for constant f."""
    if len(f) != space.n:
        raise DimensionMismatch(f"function has length {len(f)}, space has {space.n}")
    best = Fraction(0) if space.mode == RATIONAL else 0.0
    for i in range(space.n):
        for j in range(i + 1, space.n):
            ratio = abs(f[i] - f[j]) / space.dist[i][j]
            if ratio > best:
                best = ratio
    return best


def ball(space: FiniteMetricSpace, x: int, interval) -> frozenset:
    """{j : lo <= d(x,j) <= hi}; the closed ball B(x,r) is the case [0, r]."""
    lo, hi = interval
    if not (0 <= lo <= hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    tol = space.dtol
    return frozenset(j for j in range(space.n)
                     if lo - tol <= space.dist[x][j] <= hi + tol)


def level_set(space: FiniteMetricSpace, r: Scalar) -> PairSet:
    """{(i,j) : d(i,j) = r} within dtol, both ways as in `sublevel_tops`."""
    tol = space.dtol
    return PairSet(tuple(tuple(v <= r + tol and r <= v + tol for v in row)
                         for row in space.dist))


def sublevel_set(space: FiniteMetricSpace, r: Scalar) -> PairSet:
    """{(i,j) : d(i,j) <= r}."""
    bound = r + space.dtol
    return PairSet(tuple(tuple(v <= bound for v in row) for row in space.dist))


def all_pairs(n: int) -> PairSet:
    return PairSet(tuple(tuple(True for _ in range(n)) for _ in range(n)))


def diagonal_pairs(n: int) -> PairSet:
    return PairSet(tuple(tuple(i == j for j in range(n)) for i in range(n)))


def transpose_pairs(Y: PairSet) -> PairSet:
    n = Y.n
    return PairSet(tuple(tuple(Y.member[j][i] for j in range(n)) for i in range(n)))


def act_on_function(action: CoAction, psi: StateFunctional, f) -> Tuple[float, ...]:
    """psi |> f = (id (x) psi) rho(f); satisfies (psi|>f)(x) = (x <| psi)(f)."""
    if len(f) != action.n:
        raise ShapeMismatch("function length differs from the space")
    values = (action.coeffs @ psi.as_vector()).real
    return tuple((values @ np.array([float(v) for v in f])).tolist())


class HypothesisViolated(QisoError):
    pass


def check_orthogonality(action: CoAction, x: int, y: int, S, T, delta) -> bool:
    """a_{x;S} a_{y;T} = 0 whenever every (s, t) has |d(s,t) - d(x,y)| >= delta,
    with a_{x;S} = sum_{j in S} u_xj, formed and normed block by block."""
    space = action.space
    d_xy = space.dist[x][y]
    for s in S:
        for t in T:
            if abs(space.dist[s][t] - d_xy) < delta:
                raise HypothesisViolated(
                    f"|d({s},{t}) - d({x},{y})| < delta")
    S, T = list(S), list(T)
    return all(float(operator_norms(stack[x, S].sum(0) @ stack[y, T].sum(0)))
               <= space.tol for stack in action.stacks)


class NonSquareBipartition(QisoError):
    pass


def perfect_matching(adjacency):
    """Find a perfect matching of a bipartite graph with equal part sizes,
    or return a violating set S with |N(S)| < |S|.

    Reduction: take both marginals to be the normalized counting measure
    and ask for a coupling supported on the edge set; the flow solution is
    integral (all capacities are multiples of 1/n), so a feasible coupling
    rounds to a permutation.  The empty graph has the empty matching.
    Returns ("matching", perm) or ("violator", S).
    """
    n = len(adjacency)
    if any(len(row) != n for row in adjacency):
        raise NonSquareBipartition("bipartition classes differ in size")
    if n == 0:
        return "matching", ()
    uniform = ProbVector.uniform(n)
    Y = PairSet(tuple(tuple(bool(v) for v in row) for row in adjacency))
    verdict = feasible_coupling_on(uniform, uniform, Y, 1e-9)
    if not verdict.feasible:
        return "violator", verdict.violator
    matching = [None] * n
    for i, row in enumerate(verdict.coupling.plan):
        for j, v in enumerate(row):
            if v == Fraction(1, n):
                matching[i] = j
                break
    if any(m is None for m in matching) or len(set(matching)) != n:
        raise QisoError("flow failed to round to a permutation")
    return "matching", tuple(matching)


def integral(mu: ProbVector, f: Sequence[Scalar]) -> Scalar:
    """The integral mu(f)."""
    return sum(m * v for m, v in zip(mu.mass, f))


def coupling_support(coupling: Coupling) -> List[Tuple[int, int]]:
    return [(i, j) for i, row in enumerate(coupling.plan)
            for j, v in enumerate(row) if v != 0]


def check_marginals(coupling: Coupling) -> None:
    """Raise InfeasibleMarginals unless the plan's row and column sums are
    mu and nu (exactly for rational marginals)."""
    eps = tol_for(_mode_of(coupling.mu.mass, coupling.nu.mass))
    n = len(coupling.plan)
    for i in range(n):
        if abs(sum(coupling.plan[i]) - coupling.mu.mass[i]) > eps:
            raise InfeasibleMarginals(f"row {i} sum != mu[{i}]")
    for j in range(len(coupling.plan[0])):
        if abs(sum(row[j] for row in coupling.plan) - coupling.nu.mass[j]) > eps:
            raise InfeasibleMarginals(f"column {j} sum != nu[{j}]")


def state_value(psi: StateFunctional, elem: AlgElement) -> complex:
    """psi(a) = sum_k tr(rho_k a_k)."""
    return complex(sum(np.trace(rho @ a) for rho, a in
                       zip(psi.densities, elem.data)))


def convolve_vectors(qg: QuantumGroup, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """phi * psi = (phi (x) psi) Delta, on coefficient vectors."""
    return np.einsum("bga,b,g->a", qg.delta, phi, psi)


def convolve(qg: QuantumGroup, phi: StateFunctional,
             psi: StateFunctional) -> StateFunctional:
    out = convolve_vectors(qg, phi.as_vector(), psi.as_vector())
    return StateFunctional.from_vector(qg.algebra, out)


def counit_state(qg: QuantumGroup) -> StateFunctional:
    return StateFunctional.from_vector(qg.algebra, qg.epsilon)


def invert(g: Permutation) -> Permutation:
    out = [0] * len(g)
    for j, v in enumerate(g):
        out[v] = j
    return tuple(out)


def classical_group(action: CoAction) -> List[Permutation]:
    """The permutations of the action's characters, its 1x1 blocks in
    block order: on block k, u_ij is 1 iff g_k(j) = i.  Block k of C(G)
    is element k, so on a `permutation_action` this is its group in the
    order `close_generators` found it."""
    alg = action.group.algebra
    return [tuple(np.argmax(action.coeffs[:, :, alg.index_of(k, 0, 0)].real,
                            axis=0).tolist())
            for k, b in enumerate(alg.blocks) if b == 1]


def transport_bruteforce(mu: ProbVector, nu: ProbVector, cost) -> Scalar:
    """Independent oracle: scan every basic solution of the transportation
    polytope (all spanning trees of K_{n,n}, flows by leaf elimination) and
    return the cheapest feasible one.  Exponential; n <= 4 intended.
    """
    n = mu.n
    if n > 5:
        raise SizeGuardExceeded("bruteforce oracle is for n <= 5")
    cells = [(i, j) for i in range(n) for j in range(n)]
    best = None
    for combo in itertools.combinations(range(n * n), 2 * n - 1):
        # spanning-tree test on the 2n node bipartite graph, integers only
        parent = list(range(2 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in combo:
            i, j = cells[e]
            ri, rj = find(i), find(n + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic or len({find(v) for v in range(2 * n)}) != 1:
            continue
        # Flows by leaf elimination: every edge runs row -> column, so the
        # flow on a leaf's unique edge is exactly the leaf's residual mass.
        adjacency = {v: [] for v in range(2 * n)}
        for e in combo:
            i, j = cells[e]
            adjacency[i].append((n + j, e))
            adjacency[n + j].append((i, e))
        residual = list(mu.mass) + list(nu.mass)
        degree = [len(adjacency[v]) for v in range(2 * n)]
        used = set()
        leaves = [v for v in range(2 * n) if degree[v] == 1]
        amount = {}
        while leaves:
            v = leaves.pop()
            if degree[v] != 1:
                continue
            w, e = next((w, e) for w, e in adjacency[v] if e not in used)
            amount[e] = residual[v]
            residual[w] -= residual[v]
            residual[v] = 0
            used.add(e)
            degree[v] -= 1
            degree[w] -= 1
            if degree[w] == 1:
                leaves.append(w)
        if len(amount) != 2 * n - 1 or any(v < 0 for v in amount.values()):
            continue
        val = sum(cost[cells[e][0]][cells[e][1]] * v for e, v in amount.items())
        if best is None or val < best:
            best = val
    if best is None:
        raise InfeasibleMarginals("no basic feasible solution found")
    return best


def min_cost_flow_reference(num_nodes: int,
                            arcs: List[Tuple[int, int, Scalar]],
                            demand: Sequence[Scalar], tol: float = 1e-9):
    """Primal network simplex for uncapacitated min-cost flow.

    demand[v] is the required net inflow at v (negative for supply); the
    demands must balance.  Returns (flows per arc, node potentials).  The
    potentials satisfy pi[v] - pi[u] <= cost(u,v) on every arc, with
    equality on arcs carrying flow.  Starts from an all-artificial basis
    rooted at a virtual node; Bland's rule (lowest arc index enters, lowest
    index leaves among ties) prevents cycling under exact pivots.
    """
    rational = all(is_rational(c) for _, _, c in arcs) and \
        all(is_rational(b) for b in demand)
    eps = tol_for(RATIONAL if rational else "float", tol)
    piv_eps = Fraction(0) if rational else 1e-12

    total = sum(demand)
    if abs(total) > eps:
        raise InfeasibleMarginals(f"demands sum to {total}, not 0")

    root = num_nodes
    big = sum(abs(c) for _, _, c in arcs) + 1
    if rational:
        big = Fraction(big)
    work_arcs = list(arcs)
    basis = []
    flows = {}
    for v in range(num_nodes):
        b = demand[v]
        if b >= 0:
            work_arcs.append((root, v, big))
        else:
            work_arcs.append((v, root, big))
        idx = len(work_arcs) - 1
        basis.append(idx)
        flows[idx] = abs(b)

    n_all = num_nodes + 1

    def tree_adjacency():
        adj = {v: [] for v in range(n_all)}
        for a in basis:
            u, v, _ = work_arcs[a]
            adj[u].append((v, a, 1))   # +1: arc points away from u
            adj[v].append((u, a, -1))
        return adj

    def potentials(adj):
        pi = [None] * n_all
        pi[root] = big * 0  # zero of the right scalar type
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, a, sign in adj[u]:
                if pi[v] is None:
                    c = work_arcs[a][2]
                    pi[v] = pi[u] + c if sign > 0 else pi[u] - c
                    queue.append(v)
        return pi

    for _ in range(_MAX_PIVOTS):
        adj = tree_adjacency()
        pi = potentials(adj)
        entering = -1
        for a, (u, v, c) in enumerate(work_arcs):
            if a in flows:
                continue
            if c + pi[u] - pi[v] < -piv_eps:
                entering = a
                break
        if entering < 0:
            break
        eu, ev, _ = work_arcs[entering]
        # tree path ev -> eu; cycle orientation follows the entering arc
        parent = {ev: None}
        queue = deque([ev])
        while eu not in parent:
            u = queue.popleft()
            for v, a, sign in adj[u]:
                if v not in parent:
                    parent[v] = (u, a, sign)
                    queue.append(v)
        # The BFS ran from ev toward eu, so each recorded parent edge is
        # traversed u -> child in the same direction the cycle flow runs
        # (entering eu -> ev, then tree walk ev -> ... -> eu).  sign > 0
        # means the arc is oriented with the cycle and gains theta; sign < 0
        # means it opposes the cycle and loses theta.
        path = []
        node = eu
        while parent[node] is not None:
            u, a, sign = parent[node]
            path.append((a, sign))
            node = u
        theta = None
        leaving = -1
        for a, sign in path:
            if sign < 0:
                if theta is None or flows[a] < theta or \
                        (flows[a] == theta and a < leaving):
                    theta = flows[a]
                    leaving = a
        if leaving < 0:
            raise UnboundedFlow("negative-cost cycle with no reverse arc")
        if theta < 0:  # float fuzz on a degenerate basis
            theta = 0 * theta
        flows[entering] = theta
        for a, sign in path:
            flows[a] = flows[a] + theta if sign > 0 else flows[a] - theta
        basis.remove(leaving)
        basis.append(entering)
        del flows[leaving]
    else:
        raise QisoError("network simplex failed to terminate")

    for a in basis:
        u, v, _ = work_arcs[a]
        if (u == root or v == root) and flows[a] > eps:
            raise InfeasibleMarginals("artificial arc carries flow at optimum")
    adj = tree_adjacency()
    pi = potentials(adj)
    out = [flows.get(a, None) for a in range(len(arcs))]
    zero = big * 0
    return [zero if f is None else f for f in out], pi[:num_nodes]


def _solve_linear(A, b):
    """Gaussian elimination; None if singular.  Exact on Fractions."""
    m = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    exact = all(is_rational(v) for row in M for v in row)
    piv_eps = 0 if exact else 1e-11
    for col in range(m):
        pivot = None
        best = piv_eps
        for r in range(col, m):
            if abs(M[r][col]) > best:
                pivot, best = r, abs(M[r][col])
            if exact and pivot is not None:
                break
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        for r in range(m):
            if r != col and M[r][col] != 0:
                factor = M[r][col] / pv
                for c in range(col, m + 1):
                    M[r][c] -= factor * M[col][c]
    return [M[r][m] / M[r][r] for r in range(m)]


def enumerate_lipschitz_vertices(space: FiniteMetricSpace,
                                 max_points: int = 8) -> List[Tuple[Scalar, ...]]:
    """All vertices of {f : |f_i - f_j| <= d(i,j), f_{n-1} = 0}.

    Exhaustive active-set enumeration: each vertex of the (n-1)-dimensional
    polytope is cut out by n-1 of the n(n-1) difference constraints.  The
    vertex set is closed under negation.  Guarded: n <= max_points.
    """
    n = space.n
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    if n > max_points:
        raise SizeGuardExceeded(f"vertex enumeration guarded at n <= {max_points}")
    eps = tol_for(space.mode, space.tol)
    m = n - 1  # free coordinates f_0 .. f_{n-2}
    constraints = []  # (coeff vector over free coords, rhs) for f_i - f_j <= d_ij
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = [0] * m
            if i < m:
                row[i] += 1
            if j < m:
                row[j] -= 1
            constraints.append((row, space.dist[i][j]))

    seen = {}
    for combo in itertools.combinations(range(len(constraints)), m):
        A = [constraints[k][0] for k in combo]
        b = [constraints[k][1] for k in combo]
        sol = _solve_linear(A, b)
        if sol is None:
            continue
        if any(sum(c * x for c, x in zip(row, sol)) - rhs > eps
               for row, rhs in constraints):
            continue
        f = tuple(sol) + (space.dist[0][0] * 0,)
        key = f if not eps else tuple(round(float(v), 9) for v in f)
        seen.setdefault(key, f)
    return list(seen.values())


def enumerate_boxed_dual_vertices(space: FiniteMetricSpace, p,
                                  max_points: int = 8) -> List[DualPotentials]:
    """Vertices of the boxed, normalized Kantorovich dual polytope

        {(f, g) : f_i + g_j <= d(i,j)^p,  g_{n-1} = 0,  -2C <= f, g <= 2C}

    with C = max d^p.  Any objective that is convex, entrywise monotone in
    (f, g), and invariant under the shift (f - t, g + t) attains its sup
    over the full unbounded dual polytope at one of these vertices: the
    double c-transform of any feasible pair dominates it, lands in the box,
    and can be shifted into the slice without changing the objective.

    Enumeration is structural instead of choose(2n)-of-all-constraints: at
    a vertex the tight pair constraints f_i + g_j = c_ij form a forest on
    the f/g variables, and each tree component is pinned by exactly one
    active bound (a box wall, or the g_{n-1} = 0 column collapsing
    f_i + 0 <= c_{i,n-1} to a unary pin).  Cross-checked against literal
    active-set enumeration in the test suite.
    """
    n = space.n
    if n > max_points:
        raise SizeGuardExceeded(f"vertex enumeration guarded at n <= {max_points}")
    eps = tol_for(space.mode, space.tol)
    cost = _power_cost(space, p)
    zero = cost[0][0] * 0
    exact = space.mode == RATIONAL and all(
        is_rational(v) for row in cost for v in row)
    if exact:
        # Rescale to plain integers: the enumeration only adds, subtracts
        # and compares, so scaling by the common denominator is exact and
        # an order of magnitude faster than Fraction arithmetic.
        flat, scale = _integer_scale([v for row in cost for v in row])
        work = [flat[i * n:(i + 1) * n] for i in range(n)]
        eps = 0
    else:
        scale = 1
        work = [[float(v) for v in row] for row in cost]
        eps = float(eps) or space.tol
    C = max(max(row) for row in work)
    lo, hi = -2 * C, 2 * C

    # Variables: f_0..f_{n-1} are 0..n-1, g_0..g_{n-2} are n..2n-2.
    nvars = 2 * n - 1
    edges = [(i, n + j, work[i][j]) for i in range(n) for j in range(n - 1)]
    pins = {v: [lo, hi] for v in range(nvars)}
    for i in range(n):
        pins[i].append(work[i][n - 1])  # f_i + g_{n-1} = c tight, g_{n-1} = 0

    def feasible(vals):
        for v in vals:
            if v < lo - eps or v > hi + eps:
                return False
        for i in range(n):
            fi = vals[i]
            for j in range(n - 1):
                if fi + vals[n + j] - work[i][j] > eps:
                    return False
            if fi - work[i][n - 1] > eps:
                return False
        return True

    seen = {}

    def record(vals):
        if exact:
            out = [Fraction(v, scale) for v in vals]
        else:
            out = vals
        f = tuple(out[:n])
        g = tuple(out[n:]) + (zero,)
        key = tuple(vals) if exact else tuple(round(float(v), 9) for v in vals)
        seen.setdefault(key, DualPotentials(f, g))

    # Enumerate forests over the bipartite tight-pair graph with an
    # incremental union-find (rolled back on backtrack), then try every
    # way of pinning one variable per tree component.
    comp = list(range(nvars))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    adj = {v: [] for v in range(nvars)}

    def visit_forest():
        groups = {}
        for v in range(nvars):
            groups.setdefault(find(v), []).append(v)
        options = [[(v, val) for v in grp for val in pins[v]]
                   for grp in groups.values()]
        for pick in itertools.product(*options):
            vals = [None] * nvars
            ok = True
            for v0, val in pick:
                stack = [(v0, val)]
                while stack:
                    v, x = stack.pop()
                    if vals[v] is not None:
                        ok = ok and abs(vals[v] - x) <= eps
                        continue
                    vals[v] = x
                    for w, c in adj[v]:
                        stack.append((w, c - x))  # f + g = c determines the mate
                if not ok:
                    break
            if ok and feasible(vals):
                record(vals)

    def grow(start):
        visit_forest()
        for e in range(start, len(edges)):
            u, v, c = edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            comp[ru] = rv
            adj[u].append((v, c))
            adj[v].append((u, c))
            grow(e + 1)
            adj[u].pop()
            adj[v].pop()
            comp[ru] = ru

    grow(0)
    return list(seen.values())


def boxed_dual_vertices_bruteforce(space: FiniteMetricSpace,
                                   p) -> List[DualPotentials]:
    """Literal active-set oracle for the same sliced boxed polytope:
    choose dim-many constraints from the full list, solve, test feasibility.
    Exponential in n^2; intended for n <= 3 cross-checks only."""
    n = space.n
    if n > 3:
        raise SizeGuardExceeded("bruteforce dual enumeration is for n <= 3")
    eps = tol_for(space.mode, space.tol)
    cost = _power_cost(space, p)
    zero = cost[0][0] * 0
    C = max(max(row) for row in cost)
    nvars = 2 * n - 1
    rows = []
    for i in range(n):
        for j in range(n):
            row = [zero] * nvars
            row[i] = row[i] + 1
            if j < n - 1:
                row[n + j] = row[n + j] + 1
            rows.append((row, cost[i][j]))
    for v in range(nvars):
        row = [zero] * nvars
        row[v] = row[v] + 1
        rows.append((row, 2 * C))
        row2 = [zero] * nvars
        row2[v] = row2[v] - 1
        rows.append((row2, 2 * C))

    seen = {}
    for combo in itertools.combinations(range(len(rows)), nvars):
        A = [rows[k][0] for k in combo]
        b = [rows[k][1] for k in combo]
        sol = _solve_linear(A, b)
        if sol is None:
            continue
        if any(sum(c * x for c, x in zip(row, sol)) - rhs > eps
               for row, rhs in rows):
            continue
        f = tuple(sol[:n])
        g = tuple(sol[n:]) + (zero,)
        key = (f, g) if not eps else tuple(round(float(v), 9) for v in sol)
        seen.setdefault(key, DualPotentials(f, g))
    return list(seen.values())


def dual_vertices_by_spanning_trees(cost, tol: float = 0.0) -> set:
    """Independent oracle: the vertices (f, g) of {f_a + g_b <= cost[a][b],
    g_{n-1} = 0} for an m x n cost, from every spanning tree of K_{m,n}
    (every acyclic set of m + n - 1 edges): the tree's potentials, with
    f_a + g_b = cost[a][b] on its edges, are a vertex when every slack is
    >= -tol.  Exponential; m, n <= 4 intended."""
    m, n = len(cost), len(cost[0])
    zero = cost[0][0] * 0
    out = set()
    for tree in itertools.combinations(
            [(a, b) for a in range(m) for b in range(n)], m + n - 1):
        comp = list(range(m + n))

        def find(u):
            while comp[u] != u:
                u = comp[u]
            return u

        acyclic = True
        for a, b in tree:
            ra, rb = find(a), find(m + b)
            if ra == rb:
                acyclic = False
                break
            comp[ra] = rb
        if not acyclic:
            continue
        val = {m + n - 1: zero}
        while len(val) < m + n:
            for a, b in tree:
                if a in val and m + b not in val:
                    val[m + b] = cost[a][b] - val[a]
                elif m + b in val and a not in val:
                    val[a] = cost[a][b] - val[m + b]
        f = tuple(val[a] for a in range(m))
        g = tuple(val[m + b] for b in range(n))
        if all(cost[a][b] - f[a] - g[b] >= -tol
               for a in range(m) for b in range(n)):
            out.add((f, g))
    return out


def enumerate_dual_vertices_reference(space: FiniteMetricSpace, p, rows=None,
                                      cols=None) -> List[DualPotentials]:
    """All vertices of the normalized Kantorovich dual polyhedron

        {(f, g) : f_a + g_b <= d(rows[a], cols[b])^p,  g_{n-1} = 0}

    of the transport problem between the points `rows` (m of them) and
    `cols` (n of them); both default to the whole space.  An objective that
    is convex, entrywise monotone in (f, g) and invariant under the shift
    (f - t, g + t) attains its sup over the polyhedron at one of these
    vertices: a ray direction r has r_f_a + r_g_b <= 0 for all a, b, and
    moving along it never increases such an objective.  On the whole space
    at p = 1 the vertices are the pairs (f, -f), f a vertex of the
    Lipschitz polytope {|f_i - f_j| <= d(i,j), f_{n-1} = 0}.

    A vertex is the potential of a feasible spanning tree of K_{m,n} on the
    nodes f_0..f_{m-1}, g_0..g_{n-1}, rooted at g_{n-1} = 0: f_a + g_b =
    c_ab on its edges and every other slack is >= 0.  Perturbing c_ab by
    eps^(a n + b + 1) gives every vertex of the perturbed polyhedron
    exactly one tree, and those trees are searched breadth-first by pivots
    (Avis-Fukuda 1992): drop a tree edge, let A be the side of the cut
    without the root, and enter the edge of least slack that crosses the
    cut in the other orientation; a drop with no such edge runs along a
    ray.  A slack is the pair (value, eps coefficients), compared
    lexicographically.  There are always C(m+n-2, m-1) such trees, the
    maximal cells of the triangulation of the product of two simplices
    that the perturbed cost induces (Develin-Sturmfels 2004, "Tropical
    convexity").  Each tree's unperturbed potentials are a vertex, kept
    once.

    A rational space runs on its integer form, powered per rank as in
    `transport_with_power`, and its vertices come back as Fractions.
    Float data treats slacks within eps = tol x the largest cost as ties
    and keeps one vertex per cell of side eps, so that the vertices found
    do not depend on the units of the costs.
    """
    rows = range(space.n) if rows is None else rows
    cols = range(space.n) if cols is None else cols
    m, n = len(rows), len(cols)
    integer = _integer_power(space, p)
    exact = integer is not None
    if exact:
        power, scale = integer
        work = [power[i][j] for i in rows for j in cols]
        eps, zero = 0, 0
    else:
        power = _power_cost(space, p)
        work = [float(power[i][j]) for i in rows for j in cols]
        eps, zero = space.tol * max(work), 0.0
    # Node a is f_a and node m + b is g_b; edge k = a n + b joins them.
    root = m + n - 1

    def pivots(tree):
        """The tree's potentials and the trees one pivot away."""
        adj = [[] for _ in range(m + n)]
        for k in tree:
            a, b = divmod(k, n)
            adj[a].append((m + b, k))
            adj[m + b].append((a, k))
        val = [None] * (m + n)
        parent = [-1] * (m + n)
        pedge = [-1] * (m + n)
        order = []           # preorder: every subtree is a contiguous run
        val[root] = zero
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w, k in adj[u]:
                if val[w] is None:
                    val[w] = work[k] - val[u]
                    parent[w], pedge[w] = u, k
                    stack.append(w)
        size = [1] * (m + n)
        for u in reversed(order[1:]):
            size[parent[u]] += size[u]
        coef = []            # eps coefficients per node, built on a tie

        def eps_slack(k):
            if not coef:
                coef.extend([None] * (m + n))
                coef[root] = [0] * (m * n)
                for u in order[1:]:
                    row = [-c for c in coef[parent[u]]]
                    row[pedge[u]] += 1
                    coef[u] = row
            a, b = divmod(k, n)
            coeffs = [-s - t for s, t in zip(coef[a], coef[m + b])]
            coeffs[k] += 1
            return coeffs

        out = []
        for pos, w in enumerate(order[1:], 1):
            side = set(order[pos:pos + size[w]])     # A, the subtree of w
            f_in = pedge[w] // n in side
            crossing = [a * n + b for a in range(m) if (a in side) != f_in
                        for b in range(n) if (m + b in side) == f_in]
            if not crossing:
                continue            # the drop runs along a ray
            slack = [work[k] - val[k // n] - val[m + k % n] for k in crossing]
            low = min(slack)
            tied = [k for k, s in zip(crossing, slack) if s <= low + eps]
            enter = tied[0] if len(tied) == 1 else min(tied, key=eps_slack)
            out.append(tree - {pedge[w]} | {enter})
        return val, out

    # Start: g_{n-1} joined to every f_a, and every other g_b to an f_a
    # minimizing c_ab - c_{a,n-1}; among ties the largest a, whose
    # perturbation is the least.
    start = [a * n + n - 1 for a in range(m)]
    for b in range(n - 1):
        reduced = [work[a * n + b] - work[a * n + n - 1] for a in range(m)]
        low = min(reduced)
        start.append(max(a for a, r in enumerate(reduced) if r <= low + eps) * n + b)
    first = frozenset(start)
    seen = {first}
    queue = deque([first])
    vertices = {}
    while queue:
        val, nxt = pivots(queue.popleft())
        key = tuple(round(v / eps) for v in val) if eps else tuple(val)
        if key not in vertices:
            if exact:
                val = [Fraction(v, scale) for v in val]
            vertices[key] = DualPotentials(tuple(val[:m]), tuple(val[m:]))
        for tree in nxt:
            if tree not in seen:
                seen.add(tree)
                queue.append(tree)
    return list(vertices.values())


def _det_fraction(M) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination."""
    M = [row[:] for row in M]
    m = len(M)
    det = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if M[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, m):
            factor = M[r][col] / M[col][col]
            for c in range(col, m):
                M[r][c] -= factor * M[col][c]
    return det


def _rationalize(x: float, max_den: int = 4096) -> Optional[Fraction]:
    """The exact small-denominator rational equal to x, if there is one."""
    f = Fraction(x).limit_denominator(max_den)
    return f if float(f) == x else None


def _exact_entries(mat: np.ndarray) -> Optional[list]:
    """Matrix of (re, im) Fraction pairs when every entry is exactly a
    small rational; None otherwise."""
    out = []
    for row in np.atleast_2d(mat):
        orow = []
        for v in row:
            re = _rationalize(float(v.real))
            im = _rationalize(float(v.imag))
            if re is None or im is None:
                return None
            orow.append((re, im))
        out.append(orow)
    return out


def exact_psd_pairs(pairs) -> bool:
    """PSD test for a Hermitian matrix given as (re, im) Fraction pairs.

    A complex Hermitian matrix embeds into a real symmetric one of doubled
    size, which is scaled to integers and reduced by fraction-free
    symmetric elimination (Bareiss 1968): a negative pivot means not PSD;
    a zero pivot needs a zero row, which is dropped; otherwise the rest is
    replaced by its Schur complement times the pivot, divided exactly by
    the previous pivot.  Each step keeps PSD-ness both ways.
    """
    m = len(pairs)
    if all(im == 0 for row in pairs for _, im in row):
        real = [[re for re, _ in row] for row in pairs]
    else:
        real = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            for j in range(m):
                re, im = pairs[i][j]
                real[i][j] = re
                real[m + i][m + j] = re
                real[i][m + j] = -im
                real[m + i][j] = im
    scale = math.lcm(*(Fraction(v).denominator for row in real for v in row))
    M = [[int(v * scale) for v in row] for row in real]
    prev = 1
    while M:
        pivot, head = M[0][0], M[0]
        if pivot < 0 or (pivot == 0 and any(head)):
            return False
        if pivot:
            M = [[(pivot * v - row[0] * h) // prev
                  for v, h in zip(row[1:], head[1:])] for row in M[1:]]
            prev = pivot
        else:
            M = [row[1:] for row in M[1:]]
    return True


def psd_by_principal_minors(pairs) -> bool:
    """PSD test for a Hermitian matrix given as (re, im) Fraction pairs.

    A complex Hermitian matrix embeds into a real symmetric one of doubled
    size; a symmetric matrix is PSD iff all principal minors are >= 0.
    """
    m = len(pairs)
    if all(im == 0 for row in pairs for _, im in row):
        real = [[re for re, _ in row] for row in pairs]
    else:
        real = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            for j in range(m):
                re, im = pairs[i][j]
                real[i][j] = re
                real[m + i][m + j] = re
                real[i][m + j] = -im
                real[m + i][j] = im
    size = len(real)
    for k in range(1, size + 1):
        for subset in itertools.combinations(range(size), k):
            minor = [[real[i][j] for j in subset] for i in subset]
            if _det_fraction(minor) < 0:
                return False
    return True


def exact_psd(elem: AlgElement) -> bool:
    """Exact semidefiniteness test for elements with rational entries.

    Floats are converted exactly (every float is a binary rational), so
    this decides positivity of the stored matrices with no tolerance.
    """
    return all(exact_psd_pairs([[(Fraction(float(v.real)), Fraction(float(v.imag)))
                                 for v in row] for row in mat])
               for mat in elem.data)


def a_element(action: CoAction, x: int, S) -> AlgElement:
    """The quantum indicator of "x lands in S": sum_{j in S} u_xj."""
    acc = action.group.algebra.zero()
    for j in S:
        acc = acc + action.u[x][j]
    return acc


def _lambda_min_geq0(elem: AlgElement, tol: float, exact: bool) -> Tuple[bool, float]:
    """Decide elem >= 0 (as an operator); returns (verdict, float min eig)."""
    lam = min_eig(elem)
    if not exact or abs(lam) > _BORDERLINE:
        return lam >= -tol, lam
    if all(_exact_entries(m) is not None for m in elem.data):
        return exact_psd(elem), lam
    return lam >= -tol, lam


def support_universal_bruteforce(action: CoAction, tag: str, level_only: bool,
                                 tol: float,
                                 max_points: int = 20) -> IsometryVerdict:
    """For all x, y and every subset S, the element a_{y;T} - a_{x;S} with
    T = p12^Y(S) must be positive, where Y is the (sub)level set of d(x,y).
    Positivity under every state is extremal-eigenvalue positivity."""
    space = action.space
    n = space.n
    if n > max_points:
        raise SizeGuardExceeded(f"subset exhaustion guarded at n <= {max_points}")
    exact = space.mode == RATIONAL
    worst = None
    for x, y in _ordered_pairs(n):
        Y = (level_set if level_only else sublevel_set)(space, space.dist[x][y])
        for size in range(n + 1):
            for S in itertools.combinations(range(n), size):
                T = frozenset(j for i in S for j in range(n) if (i, j) in Y)
                elem = a_element(action, y, T) - a_element(action, x, S)
                ok, lam = _lambda_min_geq0(elem, tol, exact)
                if worst is None or lam < worst[0]:
                    worst = (lam, (x, y), S)
                if not ok:
                    k = int(np.argmin([np.linalg.eigvalsh(m)[0]
                                       for m in elem.data]))
                    return IsometryVerdict(tag, False, witness={
                        "pair": (x, y), "subset": list(S),
                        "min_eigenvalue": lam, "block": k,
                        "state": _eigen_state(action, k, -elem.data[k])})
    return IsometryVerdict(tag, True,
                           certificate={"min_eigenvalue": worst[0] if worst else 0.0})


# ---------------------------------------------------------------------------
# Hopf axioms on the dense tensor square (verify_quantum_group as first
# written, before it took its norms block by block)

def _pair_layout(algebra: FinDimCStarAlgebra):
    layout = []
    pos = 0
    for k, nk in enumerate(algebra.blocks):
        for l, nl in enumerate(algebra.blocks):
            layout.append((k, l, pos, nk, nl))
            pos += nk * nl
    return layout, pos


def coeff_to_dense(algebra: FinDimCStarAlgebra, M: np.ndarray) -> np.ndarray:
    """Coefficient matrix over basis (x) basis -> block-diagonal matrix of
    the product algebra (+)_{k,l} M_{n_k n_l}."""
    layout, N = _pair_layout(algebra)
    off = algebra.offsets
    out = np.zeros((N, N), dtype=complex)
    for k, l, pos, nk, nl in layout:
        sub = M[off[k]:off[k] + nk * nk, off[l]:off[l] + nl * nl]
        four = sub.reshape(nk, nk, nl, nl).transpose(0, 2, 1, 3)
        out[pos:pos + nk * nl, pos:pos + nk * nl] = four.reshape(nk * nl, nk * nl)
    return out


def dense_to_coeff(algebra: FinDimCStarAlgebra, D: np.ndarray) -> np.ndarray:
    """The inverse of coeff_to_dense, on a stack (..., N, N) of matrices."""
    layout, _ = _pair_layout(algebra)
    off = algebra.offsets
    dim = algebra.dim
    lead = D.shape[:-2]
    M = np.zeros(lead + (dim, dim), dtype=complex)
    for k, l, pos, nk, nl in layout:
        four = D[..., pos:pos + nk * nl, pos:pos + nk * nl].reshape(
            lead + (nk, nl, nk, nl))
        M[..., off[k]:off[k] + nk * nk, off[l]:off[l] + nl * nl] = \
            np.swapaxes(four, -3, -2).reshape(lead + (nk * nk, nl * nl))
    return M


def _dense_norm(stack) -> float:
    """The largest spectral norm in a stack (B, N, N) of dense matrices, in
    one batched SVD, with the rows and the columns that are zero in every
    matrix left out (they carry no nonzero singular value)."""
    stack = np.asarray(stack)
    live = stack != 0
    rows = np.flatnonzero(live.any(axis=(0, 2)))
    cols = np.flatnonzero(live.any(axis=(0, 1)))
    if not len(rows) or not len(cols):
        return 0.0
    return float(np.linalg.norm(stack[:, rows][:, :, cols], 2, axis=(1, 2)).max())


def _largest_element_norm(elements: Sequence[AlgElement]) -> float:
    """The largest operator norm of AlgElements, as AlgElement.norm takes
    it (abs on a 1x1 block), in one batched SVD per block."""
    out = 0.0
    for k in range(len(elements[0].data)):
        stack = np.array([e.data[k] for e in elements])
        if stack.shape[-1] == 1:
            out = max(out, float(np.abs(stack).max()))
        else:
            out = max(out, float(np.linalg.norm(stack, 2, axis=(1, 2)).max()))
    return out


def verify_quantum_group_dense(qg: QuantumGroup, tol: float = 1e-10,
                               check_cancellation: bool = True) -> QGReport:
    """Check every axiom; the report lists the max violation per axiom."""
    alg = qg.algebra
    dim = alg.dim
    basis = [alg.basis_element(a) for a in range(dim)]
    kbasis = [alg.from_vec(qg.kappa[:, a]) for a in range(dim)]
    unit = alg.unit()
    unit_vec = unit.vec()
    rep = QGReport()

    dense_delta = [coeff_to_dense(alg, apply_delta(qg, b)) for b in basis]

    def dense_of(elem: AlgElement) -> np.ndarray:
        out = np.zeros_like(dense_delta[0])
        for c, D in zip(elem.vec(), dense_delta):
            if c != 0:
                out += c * D
        return out

    # Delta is a unital *-homomorphism
    unit_tensor = coeff_to_dense(alg, np.outer(unit_vec, unit_vec))
    rep.residuals["delta_unital"] = _dense_norm([dense_of(unit) - unit_tensor])

    rep.residuals["delta_star"] = max(
        _dense_norm([dense_of(basis[a].star()) - dense_of(basis[a]).conj().T])
        for a in range(dim))

    commutative = all(b == 1 for b in alg.blocks)
    if commutative:
        # all tensor blocks are scalars: products in A (x) A are Hadamard
        # products of coefficient matrices, and e_a e_b = delta_ab e_a
        prods = np.einsum("xya,xyb->abxy", qg.delta, qg.delta)
        target = np.zeros_like(prods)
        for a in range(dim):
            target[a, a] = qg.delta[:, :, a]
        rep.residuals["delta_multiplicative"] = float(np.abs(prods - target).max())
    else:
        # one stack per a: Delta(e_a e_b) - Delta(e_a) Delta(e_b) over b
        rep.residuals["delta_multiplicative"] = max(
            _dense_norm([dense_of(basis[a] * basis[b]) - dense_delta[a] @ dense_delta[b]
                         for b in range(dim)])
            for a in range(dim))

    # coassociativity on coefficients: contract the leg being re-expanded
    D3 = qg.delta
    left = np.einsum("bga,rsb->rsga", D3, D3)   # (Delta (x) id) Delta
    right = np.einsum("bga,rsg->brsa", D3, D3)  # (id (x) Delta) Delta
    rep.residuals["coassociativity"] = float(np.abs(left - right).max())

    # cancellation: spans {(a (x) 1) Delta(b)} and {(1 (x) a) Delta(b)} full
    if check_cancellation and commutative:
        # (e_a (x) 1) . Delta(b) keeps row a of the coefficient matrix, so
        # vectors with different a have disjoint support and the total rank
        # splits as a sum of per-slice ranks
        left_rank = sum(np.linalg.matrix_rank(qg.delta[a, :, :], tol=1e-8)
                        for a in range(dim))
        right_rank = sum(np.linalg.matrix_rank(qg.delta[:, a, :], tol=1e-8)
                         for a in range(dim))
        rep.residuals["cancellation_left"] = float(dim * dim - left_rank)
        rep.residuals["cancellation_right"] = float(dim * dim - right_rank)
    elif check_cancellation:
        delta_stack = np.array(dense_delta)
        for tag, left_leg in (("cancellation_left", True),
                              ("cancellation_right", False)):
            cols = []
            for a in range(dim):
                avec = np.zeros(dim, dtype=complex)
                avec[a] = 1.0
                mult = np.outer(avec, unit_vec) if left_leg else np.outer(unit_vec, avec)
                dense_mult = coeff_to_dense(alg, mult)
                # the products with every Delta(b), b = 0 .. dim - 1, at once
                cols.extend(dense_to_coeff(alg, dense_mult @ delta_stack)
                            .reshape(dim, -1))
            mat = np.array(cols)
            rank = np.linalg.matrix_rank(mat, tol=1e-8)
            rep.residuals[tag] = float(dim * dim - rank)

    # counit axioms
    left_c = np.einsum("b,bga->ga", qg.epsilon, D3)
    right_c = np.einsum("g,bga->ba", qg.epsilon, D3)
    eye = np.eye(dim)
    rep.residuals["counit_left"] = float(np.abs(left_c - eye).max())
    rep.residuals["counit_right"] = float(np.abs(right_c - eye).max())
    eps_mult = 0.0
    for a in range(dim):
        for b in range(dim):
            prod = basis[a] * basis[b]
            eps_mult = max(eps_mult, abs(counit(qg, prod)
                                         - counit(qg, basis[a]) * counit(qg, basis[b])))
    rep.residuals["counit_multiplicative"] = eps_mult
    rep.residuals["counit_unital"] = abs(counit(qg, unit) - 1.0)

    # antipode axioms: m(kappa (x) id)Delta = eps(.)1 = m(id (x) kappa)Delta
    anti_l, anti_r = [], []
    for a in range(dim):
        M = apply_delta(qg, basis[a])
        acc_l = alg.zero()
        acc_r = alg.zero()
        for b in range(dim):
            row = M[b, :]
            if np.any(row):
                acc_l = acc_l + kbasis[b] * alg.from_vec(row)
            col = M[:, b]
            if np.any(col):
                acc_r = acc_r + alg.from_vec(col) * kbasis[b]
        target = counit(qg, basis[a]) * unit
        anti_l.append(acc_l - target)
        anti_r.append(acc_r - target)
    rep.residuals["antipode_left"] = _largest_element_norm(anti_l)
    rep.residuals["antipode_right"] = _largest_element_norm(anti_r)

    # Kac type: involutive, *-preserving, multiplication-reversing
    rep.residuals["kappa_involutive"] = float(np.abs(qg.kappa @ qg.kappa - eye).max())
    kac_star = []
    anti_mult = []
    for a in range(dim):
        kac_star.append(apply_kappa(qg, basis[a].star()) - kbasis[a].star())
        for b in range(dim):
            lhs = apply_kappa(qg, basis[a] * basis[b])
            anti_mult.append(lhs - kbasis[b] * kbasis[a])
    rep.residuals["kappa_star"] = _largest_element_norm(kac_star)
    rep.residuals["kappa_antimultiplicative"] = _largest_element_norm(anti_mult)
    rep.residuals["kappa_unital"] = (apply_kappa(qg, unit) - unit).norm()
    return rep


# ---------------------------------------------------------------------------
# Hopf and coaction axioms with one norm per stack of blocks
# (verify_quantum_group and verify_coaction before their norms were
# batched by matrix size and their contractions taken a slab at a time)

def max_operator_norm(mats: np.ndarray) -> float:
    """The largest spectral norm in a stack of square matrices (..., m, m),
    each its largest singular value (abs on 1 x 1), or NaN when an entry
    is not finite, on which the SVD would not converge."""
    if not np.isfinite(mats).all():
        return float("nan")
    if mats.shape[-1] == 1:
        return float(np.abs(mats).max())
    return float(np.linalg.svd(mats, compute_uv=False)[..., 0].max())


def _product_table(alg: FinDimCStarAlgebra):
    """Every nonzero product of matrix units, e_left e_right = e_into, as
    three index arrays: E^k_ij E^k_jq = E^k_iq; all other products are 0."""
    parts = []
    for off, n in zip(alg.offsets, alg.blocks):
        i, j, q = np.indices((n, n, n)).reshape(3, -1)
        parts.append((off + i * n + j, off + j * n + q, off + i * n + q))
    return tuple(np.concatenate(idx) for idx in zip(*parts))


def _multiply(into: np.ndarray, terms: np.ndarray, dim: int) -> np.ndarray:
    """The multiplication A (x) A -> A: terms[p, ...] is the coefficient of
    e_left[p] (x) e_right[p]; the result has the basis on its last axis."""
    out = np.zeros(terms.shape[1:] + (dim,), dtype=complex)
    np.add.at(np.moveaxis(out, -1, 0), into, terms)
    return out


def _star_index(alg) -> np.ndarray:
    """The permutation of basis indices that * induces: (E^k_ij)* = E^k_ji,
    so the coefficients of x* are x.conj()[star]."""
    return np.concatenate([off + np.arange(n * n).reshape(n, n).T.ravel()
                           for off, n in zip(alg.offsets, alg.blocks)])


def _kappa_star_residual(alg, star, kappa: np.ndarray) -> float:
    """max_a ||kappa(e_a*) - kappa(e_a)*||, zero iff kappa commutes with *."""
    return _element_norm(alg, (kappa[:, star] - kappa[star].conj()).T)


def _element_norm(alg, X: np.ndarray) -> float:
    """The largest operator norm of the elements X[..., a] of A."""
    return float(np.max([max_operator_norm(X[..., idx])
                         for idx in alg.blocks_by_size.values()]))


def _tensor_blocks(groups, X: np.ndarray):
    """The blocks of the elements X[..., b, g] of A (x) A, one stack of
    shape (..., K, L, mn, mn) per pair of block sizes (m, n)."""
    for m, rows in groups.items():
        for n, cols in groups.items():
            sub = X[..., rows[:, None, :, None, :, None],
                    cols[None, :, None, :, None, :]]
            yield sub.reshape(sub.shape[:-4] + (m * n, m * n))


def _tensor_norm(groups, X: np.ndarray) -> float:
    """The largest operator norm of the elements X[..., b, g] of A (x) A."""
    return float(np.max([max_operator_norm(blocks)
                         for blocks in _tensor_blocks(groups, X)]))



def verify_quantum_group_loops(qg: QuantumGroup) -> QGReport:
    """Check every axiom; the report lists the max violation per axiom.

    Every residual comes from the coefficient tensors: products of matrix
    units from one table, operator norms block by block, each the largest
    spectral norm of a stack of blocks by `max_operator_norm`, one SVD
    of the whole stack.  The contractions
    run on BLAS matrix products: coassociativity, counit and antipode with
    delta as a (dim^2, dim) or (dim, dim^2) matrix, and the products
    Delta(e_a) Delta(e_b) over all pairs as one product per pair of
    blocks.  Coassociativity and those products still build dim^4
    entries.  A non-finite entry in a structure map makes the residuals it
    reaches NaN, and a NaN residual fails the report.
    """
    alg = qg.algebra
    dim = alg.dim
    groups = alg.blocks_by_size
    left, right, into = _product_table(alg)
    star = _star_index(alg)
    unit = qg.unit_vec()
    delta, epsilon, kappa = qg.delta, qg.epsilon, qg.kappa
    by_a = delta.transpose(2, 0, 1)  # by_a[a]: coefficient matrix of Delta(e_a)
    eye = np.eye(dim)
    res: Dict[str, float] = {}

    # Delta is a unital *-homomorphism; (E^k_ij)* = E^k_ji
    res["delta_unital"] = _tensor_norm(groups, delta @ unit - np.outer(unit, unit))
    res["delta_star"] = _tensor_norm(
        groups, by_a[star] - by_a[:, star][:, :, star].conj())
    mult = []
    for blocks in _tensor_blocks(groups, by_a):
        # Delta(e_a) Delta(e_b) for all a, b: one matrix product per block
        # pair (K, L), the a-stack of its rows against the b-stack of columns
        K, L, mn = blocks.shape[1], blocks.shape[2], blocks.shape[-1]
        stack = blocks.transpose(1, 2, 0, 3, 4)                     # K L a i j
        prod = (stack.reshape(K, L, dim * mn, mn)
                @ stack.transpose(0, 1, 3, 2, 4).reshape(K, L, mn, dim * mn))
        prod = prod.reshape(K, L, dim, mn, dim, mn).transpose(2, 4, 0, 1, 3, 5)
        prod[left, right] -= blocks[into]  # minus Delta(e_a e_b)
        mult.append(max_operator_norm(prod))
    res["delta_multiplicative"] = float(np.max(mult))

    # coassociativity on coefficients: contract the leg being re-expanded,
    # one matrix product each with delta as a (dim^2, dim) matrix; both
    # sides index the three legs and a in the same order
    flat = delta.reshape(dim * dim, dim)
    coass = flat @ delta.reshape(dim, dim * dim)     # (Delta (x) id) Delta: [rs, ga]
    coass -= (flat @ delta).reshape(coass.shape)     # (id (x) Delta) Delta: [b, rs, a]
    res["coassociativity"] = float(np.abs(coass).max())

    # cancellation: spans {(a (x) 1) Delta(b)} and {(1 (x) a) Delta(b)} full.
    # For a = E^k_ij, (a (x) 1) Delta(e_b) has coefficient delta[E^k_jq, g, b]
    # at E^k_iq (x) e_g whatever i is, so the left span is n_k disjoint
    # copies of the row space of one (n_k dim)-square matrix per block k;
    # the right span mirrors this on the second leg.  With a non-finite
    # entry in delta the ranks are undefined and both deficits are NaN.
    left_rank = right_rank = np.nan
    if np.isfinite(delta).all():
        left_rank = right_rank = 0
        for off, n in zip(alg.offsets, alg.blocks):
            rows = delta[off:off + n * n].reshape(n, n, dim, dim)     # j q g b
            cols = delta[:, off:off + n * n].reshape(dim, n, n, dim)  # c j q b
            left_rank += n * np.linalg.matrix_rank(
                rows.transpose(0, 3, 1, 2).reshape(n * dim, n * dim), tol=1e-8)
            right_rank += n * np.linalg.matrix_rank(
                cols.transpose(1, 3, 2, 0).reshape(n * dim, n * dim), tol=1e-8)
    res["cancellation_left"] = float(dim * dim - left_rank)
    res["cancellation_right"] = float(dim * dim - right_rank)

    # counit axioms
    res["counit_left"] = float(np.abs(
        (epsilon @ delta.reshape(dim, dim * dim)).reshape(dim, dim) - eye).max())
    res["counit_right"] = float(np.abs(epsilon @ delta - eye).max())
    eps_prod = np.zeros((dim, dim), dtype=complex)
    eps_prod[left, right] = epsilon[into]
    res["counit_multiplicative"] = float(np.abs(
        eps_prod - np.outer(epsilon, epsilon)).max())
    res["counit_unital"] = float(abs(epsilon @ unit - 1.0))

    # antipode axioms: m(kappa (x) id)Delta = eps(.)1 = m(id (x) kappa)Delta
    target = np.outer(epsilon, unit)
    kappa_left = (kappa @ delta.reshape(dim, dim * dim)).reshape(dim, dim, dim)
    kappa_right = kappa @ delta  # [b, c, a]
    res["antipode_left"] = _element_norm(
        alg, _multiply(into, kappa_left[left, right], dim) - target)
    res["antipode_right"] = _element_norm(
        alg, _multiply(into, kappa_right[left, right], dim) - target)

    # Kac type: involutive, *-preserving, multiplication-reversing
    res["kappa_involutive"] = float(np.abs(kappa @ kappa - eye).max())
    res["kappa_star"] = _kappa_star_residual(alg, star, kappa)
    of_product = np.zeros((dim, dim, dim), dtype=complex)  # kappa(e_a e_b)
    of_product[left, right] = kappa.T[into]
    reversed_product = _multiply(   # kappa(e_b) kappa(e_a)
        into, kappa[left][:, None, :] * kappa[right][:, :, None], dim)
    res["kappa_antimultiplicative"] = _element_norm(
        alg, of_product - reversed_product)
    res["kappa_unital"] = _element_norm(alg, kappa @ unit - unit)
    return QGReport(res)



def haar_vector_lstsq(qg: QuantumGroup) -> Tuple[np.ndarray, float]:
    """The bi-invariant functional over the basis, by solving (h (x)
    id)Delta(a) = h(a)1 and its mirror as one least-squares system with
    h(1) = 1, and the largest residual of that system."""
    dim = qg.dim
    unit_vec = qg.unit_vec()
    D3 = qg.delta
    # row (a, g) of left invariance: sum_b D3[b,g,a] h_b - h_a unit[g] = 0;
    # row (a, b) of right invariance: sum_g D3[b,g,a] h_g - h_a unit[b] = 0
    unit_diag = np.einsum("ab,g->agb", np.eye(dim), unit_vec)
    A = np.vstack([(D3.transpose(2, 1, 0) - unit_diag).reshape(dim * dim, dim),
                   (D3.transpose(2, 0, 1) - unit_diag).reshape(dim * dim, dim),
                   unit_vec])  # normalization h(1) = 1
    b = np.zeros(2 * dim * dim + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol, float(np.abs(A @ sol - b).max())


def group_algebra_loops(group: List[Permutation], irreps: Sequence[np.ndarray],
                        name: str = "") -> QuantumGroup:
    """The dual object: blocks M_{d_r} from a complete family of unitary
    irreps, with the group-like comultiplication carried through the
    Artin-Wedderburn isomorphism; each irrep checked one element and one
    pair of elements at a time."""
    order = len(group)
    index = {g: a for a, g in enumerate(group)}
    dims = [U.shape[1] for U in irreps]
    if sum(d * d for d in dims) != order:
        raise InconsistentIrreps("irrep dimensions do not sum to the order")
    for U in irreps:
        if U.shape[0] != order:
            raise InconsistentIrreps("each irrep needs one matrix per element")
        for a, ga in enumerate(group):
            if np.linalg.norm(U[a] @ U[a].conj().T - np.eye(U.shape[1])) > 1e-9:
                raise InconsistentIrreps("irrep matrices must be unitary")
            for b, gb in enumerate(group):
                if np.linalg.norm(U[a] @ U[b] - U[index[compose(ga, gb)]]) > 1e-9:
                    raise InconsistentIrreps("irrep is not a homomorphism")
    alg = FinDimCStarAlgebra(tuple(dims))

    def embed(a: int) -> np.ndarray:
        return np.concatenate([U[a].ravel() for U in irreps])

    V = np.column_stack([embed(a) for a in range(order)])
    Vinv = np.linalg.inv(V)
    delta = np.zeros((order, order, order), dtype=complex)
    for alpha in range(order):
        coeffs = Vinv @ np.eye(order)[alpha]
        M = sum(c * np.outer(V[:, g], V[:, g]) for g, c in enumerate(coeffs))
        delta[:, :, alpha] = M
    epsilon = np.ones(order, dtype=complex) @ Vinv
    P = np.zeros((order, order))
    for a, ga in enumerate(group):
        P[index[invert(ga)], a] = 1.0
    kappa = V @ P @ Vinv
    return QuantumGroup(alg, delta, epsilon, kappa, name=name)


def verify_coaction_loops(action: CoAction, check_faithful: bool = True) -> QGReport:
    """All magic-unitary and coaction axioms as residuals, each an array
    expression in the coefficient tensor.

    Faithfulness is tested by saturating the linear span of products of
    u-entries: the action is faithful iff the span reaches the whole
    algebra.  The faithfulness entry of the report is the dimension
    deficit of `generation_deficit` (0.0 when faithful)."""
    qg = action.group
    U = action.coeffs
    rep = QGReport()
    stacks = action.stacks
    rep.residuals["entries_idempotent"] = float(np.max(
        [max_operator_norm(S @ S - S) for S in stacks]))
    rep.residuals["entries_selfadjoint"] = float(np.max(
        [max_operator_norm(S.conj().swapaxes(-1, -2) - S) for S in stacks]))
    rep.residuals["row_sums"] = float(np.max(
        [max_operator_norm(S.sum(axis=1) - np.eye(S.shape[-1])) for S in stacks]))
    rep.residuals["column_sums"] = float(np.max(
        [max_operator_norm(S.sum(axis=0) - np.eye(S.shape[-1])) for S in stacks]))
    # Delta(u_ij) = sum_k u_ik (x) u_kj on coefficients
    rep.residuals["coaction_square"] = float(np.abs(
        np.einsum("bga,ija->ijbg", qg.delta, U, optimize=True)
        - np.einsum("ikb,kjg->ijbg", U, U, optimize=True)).max())
    rep.residuals["counit_compatibility"] = float(np.abs(
        U @ qg.epsilon - np.eye(action.n)).max())

    if check_faithful:
        rep.residuals["faithfulness_deficit"] = float(generation_deficit(action))
    return rep



def _lambda_max_leq(mat: np.ndarray, bound, tol: float, scale: float,
                    exact: Optional[Callable[[], Optional[list]]]
                    ) -> Tuple[bool, float]:
    """Decide lambda_max(mat) <= bound; returns (verdict, float margin).

    The tolerance and the borderline window are relative to `scale`, the
    size of the quantities compared.  Away from the boundary the float
    eigenvalue is decisive; inside the window, rational mode re-decides by
    an exact PSD test of bound - exact(), mat as (re, im) Fraction pairs,
    falling back to the tolerance when exact() is None."""
    lam = hermitian_max_eig(mat)
    margin = lam - float(bound)
    entries = None if exact is None or abs(margin) > _BORDERLINE * scale \
        else exact()
    if entries is None:
        return margin <= tol * scale, margin
    b = Fraction(bound)
    shifted = [[((b - re) if i == j else -re, -im)
                for j, (re, im) in enumerate(row)]
               for i, row in enumerate(entries)]
    return exact_psd_pairs(shifted), margin


def _exact_prob(mass) -> Optional[ProbVector]:
    fracs = [_rationalize(float(m)) for m in mass]
    if any(f is None for f in fracs) or sum(fracs) != 1:
        return None
    return ProbVector(tuple(fracs))


def lip_p_universal_full_sweep(action: CoAction, p,
                               tol: float = 1e-9) -> IsometryVerdict:
    """Exact universal (Lip_p) decision, blockwise.

    The map psi -> W_p^p(x <| psi, y <| psi) is convex, so its sup over
    the state space sits on pure states, which live on single blocks.  A
    1x1 block carries exactly one state (its character): solve that
    transport problem outright.  A larger block is handled through the
    Kantorovich dual polyhedron: for each vertex (f, g) the sup over block
    states of psi(sum f_j u_xj + sum g_j u_yj) is the top block
    eigenvalue, and the sup over the polyhedron of that convex, monotone,
    shift-invariant objective is attained at one of its vertices.
    """
    if p == float("inf") or p == "inf":
        return check_winf_universal(action)
    if p < 1:
        raise ValueError("p must be >= 1")
    space = action.space
    exact = space.mode == RATIONAL and float(p).is_integer()
    tag = f"Lip_{p}(universal)"
    blocks = action.group.algebra.blocks
    stacks = [_block_stack(action, k) for k in range(len(blocks))]
    big_blocks = [k for k, b in enumerate(blocks) if b > 1]
    vertices = enumerate_dual_vertices(space, p) if big_blocks else []
    # each vertex as floats once; every (pair, block) takes one eigvalsh
    # over the stack of its vertex matrices
    F = np.array([[float(v) for v in vert.f] for vert in vertices])
    G = np.array([[float(v) for v in vert.g] for vert in vertices])
    worst = None

    for x, y in _ordered_pairs(space.n):
        d_xy = space.dist[x][y]
        bound_pow = d_xy ** int(p) if exact else float(d_xy) ** float(p)
        # 1x1 blocks: one state each
        for k, b in enumerate(blocks):
            if b != 1:
                continue
            chi = extreme_state(action.group.algebra, k, np.array([1.0 + 0j]))
            mu_f = [float(state_value(chi, action.u[x][j]).real) for j in range(space.n)]
            nu_f = [float(state_value(chi, action.u[y][j]).real) for j in range(space.n)]
            mu = _exact_prob(mu_f) if exact else None
            nu = _exact_prob(nu_f) if exact else None
            if mu is None or nu is None:
                mu, nu = prob_vector(mu_f, tol), prob_vector(nu_f, tol)
            value = transport_with_power(space, mu, nu, p).value
            margin = float(value) ** (1 / float(p)) - float(d_xy)
            ok = (value <= bound_pow) if exact and isinstance(value, Fraction) \
                else margin <= tol
            if worst is None or margin > worst[0]:
                worst = (margin, (x, y), k)
            if not ok:
                return IsometryVerdict(tag, False, witness={
                    "pair": (x, y), "block": k, "kind": "character",
                    "wasserstein_power": float(value), "margin": margin})
        # bigger blocks: vertex sweep with blockwise lambda_max
        for k in big_blocks:
            mats = np.einsum("vj,jab->vab", F, stacks[k][x]) + \
                np.einsum("vj,jab->vab", G, stacks[k][y])
            margins = np.linalg.eigvalsh(mats)[:, -1] - float(bound_pow)
            for i, vert in enumerate(vertices):
                mat, margin_pow = mats[i], float(margins[i])
                ok = margin_pow <= tol
                if exact and abs(margin_pow) <= _BORDERLINE:
                    # a near-tie: its own matrix, formed as one vertex's,
                    # is re-decided exactly
                    mat = np.einsum("j,jab->ab", F[i], stacks[k][x]) + \
                        np.einsum("j,jab->ab", G[i], stacks[k][y])
                    ok, margin_pow = _lambda_max_leq(
                        mat, bound_pow, tol, 1.0, lambda: _exact_entries(mat))
                if worst is None or margin_pow > worst[0]:
                    worst = (margin_pow, (x, y), k)
                if not ok:
                    state = _eigen_state(action, k, mat)
                    return IsometryVerdict(tag, False, witness={
                        "pair": (x, y), "block": k, "kind": "dual-vertex",
                        "vertex": ([str(v) for v in vert.f],
                                   [str(v) for v in vert.g]),
                        "margin": margin_pow, "state": state})
    return IsometryVerdict(tag, True,
                           certificate={"max_margin": worst[0] if worst else 0.0})


def lip_p_universal_loops(action: CoAction, p) -> IsometryVerdict:
    """Exact universal (Lip_p) decision for finite p, block by block, one
    (pair, block, vertex) at a time.

    The map psi -> W_p^p(x <| psi, y <| psi) is convex, so its sup sits on
    pure states, which live on single blocks.  On block k, row x of u is a
    family of projections summing to 1 whose support L_x (the u_xj of trace
    >= 1 there) has at most b_k points.  A 1x1 block is a character, which
    sends x to the Dirac mass at sigma(x): the condition there is
    d(sigma x, sigma y) <= d(x, y).  On a larger block, the top eigenvalue
    of sum_a f_a u_{x,L_x[a]} + sum_b g_b u_{y,L_y[b]} must stay below
    d(x,y)^p for every vertex (f, g) of the dual polyhedron of the cost d^p
    on L_x x L_y (both sums of projections are 1 on the block, so the
    objective is shift-invariant); those are found once per support pair,
    from at most C(2b_k - 2, b_k - 1) trees whatever n is.  The pairs are
    those of `_state_pairs`.

    Margins are in units of d^p (d(sigma x, sigma y)^p or the eigenvalue,
    minus d(x,y)^p) and the space's tol is relative to the largest d^p.  In
    rational mode characters compare distances exactly, and eigenvalue
    near-ties are re-decided on the exact matrix, formed from the exact
    vertex and the u entries (each rationalized once).
    """
    if p == float("inf") or p == "inf":
        return support_universal_loops(action, "Lip_inf(universal)", False)
    if not p >= 1:
        raise ValueError("p must be >= 1")
    space = action.space
    tol = space.tol
    dist = space.dist
    rational = space.mode == RATIONAL
    exact = rational and float(p).is_integer()
    tag = f"Lip_{p}(universal)"
    scale = float(space.max_distance) ** float(p)
    stacks = action.stacks
    supports = [[tuple(np.flatnonzero(row > 0.5).tolist()) for row in
                 np.einsum("xjaa->xj", stack).real] for stack in action.stacks]
    vertices = {}        # (L_x, L_y) -> (scale, raw vertices with float f, g)
    exact_u = {}         # (k, i, j) -> u_ij on block k as (re, im) pairs
    worst = None

    def numbers(vert, s):
        """A raw vertex as the numbers it stands for: v / s as Fractions,
        or the floats themselves when s is None."""
        return vert if s is None else [Fraction(v, s) for v in vert]

    def exact_matrix(k, x, y, vert):
        """The vertex combination on block k as (re, im) Fraction pairs;
        None if some u entry in it is not rational."""
        keys = [(k, x, j) for j in supports[k][x]] + \
            [(k, y, j) for j in supports[k][y]]
        for key in keys:
            if key not in exact_u:
                exact_u[key] = _exact_entries(stacks[k][key[1:]])
        if any(exact_u[key] is None for key in keys):
            return None
        terms = list(zip(vert, (exact_u[key] for key in keys)))
        size = stacks[k].shape[2]
        return [[tuple(sum(c * m[r][s][t] for c, m in terms) for t in (0, 1))
                 for s in range(size)] for r in range(size)]

    for x, y in _state_pairs(space):
        d_xy = dist[x][y]
        bound_pow = d_xy ** int(p) if exact else float(d_xy) ** float(p)
        for k, stack in enumerate(stacks):
            lx, ly = supports[k][x], supports[k][y]
            if stack.shape[2] == 1:
                (sx,), (sy,) = lx, ly
                image_pow = dist[sx][sy] ** int(p) if exact \
                    else float(dist[sx][sy]) ** float(p)
                margin = float(image_pow) - float(bound_pow)
                ok = dist[sx][sy] <= d_xy if rational else margin <= tol * scale
                worst = margin if worst is None else max(worst, margin)
                if not ok:
                    return IsometryVerdict(tag, False, witness={
                        "pair": (x, y), "block": k, "kind": "character",
                        "points": (sx, sy), "margin": margin,
                        "state": _eigen_state(action, k, stack[x, sx])})
                continue
            cut = len(lx)
            if (lx, ly) not in vertices:
                raw, vscale, _ = _dual_vertex_search(space, p, lx, ly)
                vertices[lx, ly] = vscale, [
                    (vert, fg[:cut].copy(), fg[cut:].copy())
                    for vert, fg in zip(raw, _vertex_floats(raw, vscale))]
            vscale, found = vertices[lx, ly]
            ux, uy = stack[x, list(lx)], stack[y, list(ly)]
            for vert, fv, gv in found:
                mat = np.einsum("j,jab->ab", fv, ux) + \
                    np.einsum("j,jab->ab", gv, uy)
                ok, margin = _lambda_max_leq(
                    mat, bound_pow, tol, scale,
                    (lambda: exact_matrix(k, x, y, numbers(vert, vscale)))
                    if exact else None)
                worst = margin if worst is None else max(worst, margin)
                if not ok:
                    vert = [str(v) for v in numbers(vert, vscale)]
                    return IsometryVerdict(tag, False, witness={
                        "pair": (x, y), "block": k, "kind": "dual-vertex",
                        "supports": (lx, ly),
                        "vertex": (vert[:cut], vert[cut:]),
                        "margin": margin,
                        "state": _eigen_state(action, k, mat)})
    return IsometryVerdict(tag, True,
                           certificate={"max_margin": 0.0 if worst is None else worst})


def support_universal_loops(action: CoAction, tag: str,
                            level_only: bool) -> IsometryVerdict:
    """Every state admits a coupling of (x <| psi, y <| psi) on Y, the
    (sub)level set of d(x,y), iff u_xj u_yk = 0 for every (j, k) outside Y.

    Over all states at once, the marriage theorem's subset condition is
    the operator inequality a_{x;S} <= a_{y;N(S)} for every S.  Both sides
    are projections, since each row of u is an orthogonal family of
    projections summing to 1, so the inequality says a_{x;S} u_yk = 0 for
    every k outside N(S); that holds for all S iff it holds for singletons
    (Banica 2005).  Each product is decided blockwise as
    lambda_max(P Q P) = ||P Q||^2 <= 0 with P = u_xj, Q = u_yk, over the
    pairs of `_state_pairs` and the supports of each block (the u_xj of
    trace >= 1 there), with
    d(j, k) compared to d(x, y) within the space's `dtol`."""
    space = action.space
    dist = space.dist
    dtol = space.dtol
    exact = space.mode == RATIONAL
    supports = [[tuple(np.flatnonzero(row > 0.5).tolist()) for row in
                 np.einsum("xjaa->xj", stack).real] for stack in action.stacks]
    worst = 0.0
    for x, y in _state_pairs(space):
        d_xy = dist[x][y]
        for b, stack in enumerate(action.stacks):
            for j in supports[b][x]:
                P = stack[x, j]
                for k in supports[b][y]:
                    if (abs(dist[j][k] - d_xy) <= dtol if level_only
                            else dist[j][k] <= d_xy + dtol):
                        continue
                    mat = P @ stack[y, k] @ P
                    ok, margin = _lambda_max_leq(mat, 0, space.tol, 1.0, (
                        lambda: _exact_entries(mat)) if exact else None)
                    worst = max(worst, margin)
                    if not ok:
                        return IsometryVerdict(tag, False, witness={
                            "pair": (x, y), "points": (j, k), "block": b,
                            "residual": margin,
                            "state": _eigen_state(action, b, mat)})
    return IsometryVerdict(tag, True, certificate={"max_residual": worst})


# ---------------------------------------------------------------------------
# W_inf by a linear scan of the sublevel sets


def neighborhood(Y: PairSet, S, direction: str = "forward") -> frozenset:
    """forward: p12^Y(S) = {x' : (x, x') in Y for some x in S};
    backward: p21^Y(S) = {x' : (x', x) in Y for some x in S}."""
    n = Y.n
    if direction == "forward":
        return frozenset(j for i in S for j in range(n) if (i, j) in Y)
    if direction == "backward":
        return frozenset(j for i in S for j in range(n) if (j, i) in Y)
    raise ValueError(f"unknown direction {direction!r}")


def hall_condition(mu: ProbVector, nu: ProbVector, Y: PairSet,
                   max_points: int = 20) -> Tuple[bool, Optional[frozenset]]:
    """Exhaust all 2^n subsets; returns (holds, first violator or None)."""
    n = mu.n
    if n > max_points:
        raise SizeGuardExceeded(f"subset exhaustion guarded at n <= {max_points}")
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            T = neighborhood(Y, S)
            if nu(T) < mu(S):
                return False, frozenset(S)
    return True, None


def hall_sweep_loops(space, masses, xs, ys) -> np.ndarray:
    """W_inf for every state and pair by Hall's theorem, as
    `isometry._hall_sweep` first computed it: one sampled state at a
    time, every pair of that state bisecting on the realized radii."""
    n = space.n
    values = space.realized_distances
    ranks = np.array(space.distance_ranks)
    near = np.array([ranks <= bisect_right(values, v + space.dtol) - 1
                     for v in values], dtype=float)          # (K, n, n)
    subsets = (np.arange(1, 2 ** n)[:, None] >> np.arange(n)) & 1
    reach = subsets @ near                                   # (K, 2^n-1, n)
    np.minimum(reach, 1.0, out=reach)
    radii = np.array([float(v) for v in values])
    rows = np.arange(len(subsets))
    out = np.empty((len(masses), len(xs)))
    nu = np.empty_like(reach)
    for s, mass in enumerate(masses):
        mu = mass[xs] @ subsets.T                            # (P, 2^n-1)
        np.matmul(reach, mass.T, out=nu)                     # (K, 2^n-1, n)
        lo = np.zeros(len(xs), dtype=int)
        hi = np.full(len(xs), len(values) - 1)  # {d <= max d} always feasible
        while (lo < hi).any():
            mid = (lo + hi) // 2
            deficiency = (mu - nu[mid[:, None], rows, ys[:, None]]).max(-1)
            feasible = deficiency <= max(n, 1) * 1e-9
            hi = np.where(feasible, mid, hi)
            lo = np.where(feasible, lo, np.minimum(mid + 1, hi))
        out[s] = radii[lo]
    return out


def feasible_coupling_reference(mu: ProbVector, nu: ProbVector, Y: PairSet,
                                tol: float = 1e-9) -> CouplingFeasibility:
    """Find a (mu, nu)-coupling supported on Y, or certify none exists:
    `feasible_coupling_on` as first written, augmenting from zero flow on
    its own arc-list residual graph, without a greedy fill or warm start.

    Max-flow: source->i with capacity mu_i, j->sink with capacity nu_j,
    uncapacitated arcs on Y; a coupling exists iff the max flow is 1.  On
    failure the source side of a min cut yields S with nu(p12^Y(S)) < mu(S).
    Rational marginals are scaled once to integers by the lcm of their
    denominators, so the augmentations run on plain ints.
    """
    n = mu.n
    if nu.n != n or Y.n != n:
        raise DimensionMismatch("marginals and pair set sizes differ")
    mode = _mode_of(mu.mass, nu.mass)
    eps = tol_for(mode, tol)
    if abs(sum(mu.mass) - sum(nu.mass)) > eps:
        raise InfeasibleMarginals("marginal masses differ")

    rational = mode == RATIONAL
    if rational:
        mass, scale = _integer_scale(mu.mass + nu.mass)
        eps = 0  # an int, so that the loop compares ints only
    else:
        mass, scale = list(mu.mass + nu.mass), 1
    zero = 0 * mass[0]
    source, sink = 2 * n, 2 * n + 1
    ends = [(source, i) for i in range(n)] + \
        [(n + j, sink) for j in range(n)] + \
        [(i, n + j) for i, j in Y.pairs()]
    cap = mass + [2 * scale] * (len(ends) - 2 * n)
    flow = [zero] * len(ends)
    # adj[u] lists (v, arc, forward): residual cap - flow forward, flow back
    adj = [[] for _ in range(2 * n + 2)]
    for a, (u, v) in enumerate(ends):
        adj[u].append((v, a, True))
        adj[v].append((u, a, False))

    def bfs():
        """Shortest augmenting path as (arc, forward) pairs, or None, and
        the predecessor table of the nodes reached."""
        pred = [None] * (2 * n + 2)
        pred[source] = (source, -1, True)
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for v, a, fwd in adj[u]:
                if pred[v] is None and \
                        (cap[a] - flow[a] if fwd else flow[a]) > eps:
                    pred[v] = (u, a, fwd)
                    queue.append(v)
        if pred[sink] is None:
            return None, pred
        path = []
        node = sink
        while node != source:
            node, a, fwd = pred[node]
            path.append((a, fwd))
        return path, pred

    while True:
        path, reach = bfs()
        if path is None:
            break
        bottleneck = min(cap[a] - flow[a] if fwd else flow[a]
                         for a, fwd in path)
        for a, fwd in path:
            if fwd:
                flow[a] += bottleneck
            else:
                flow[a] -= bottleneck

    value = sum(flow[:n])
    if rational:
        feasible = value == scale
    else:
        feasible = abs(value - 1) <= max(eps * n, eps)
    if feasible:
        plan = [[0 * mu.mass[0]] * n for _ in range(n)]
        for a in range(2 * n, len(ends)):
            i, j = ends[a]
            plan[i][j - n] = Fraction(flow[a], scale) if rational else flow[a]
        return CouplingFeasibility(True, Coupling(
            tuple(tuple(row) for row in plan), mu, nu), None)

    S = frozenset(i for i in range(n) if reach[i] is not None)
    neighborhood = frozenset(j for i in S for j in range(n) if (i, j) in Y)
    return CouplingFeasibility(False, None, S,
                               mu_S=mu(S), nu_neighborhood=nu(neighborhood))





def wasserstein_inf_linear_scan(space: FiniteMetricSpace, mu: ProbVector,
                                nu: ProbVector) -> WInfResult:
    """The least realized r with a (mu, nu)-coupling on sublevel_set(space,
    r), trying every r in increasing order; the violator is the one of the
    r just below, as in `wasserstein_inf`."""
    below = None
    for r in space.realized_distances:
        res = feasible_coupling_reference(mu, nu, sublevel_set(space, r))
        if res.feasible:
            return WInfResult(r, res.coupling, below)
        below = res.violator
    raise AssertionError("the largest distance always carries a coupling")


# ---------------------------------------------------------------------------
# condition (D) and the coaction axioms entry by entry (as first written,
# before they were einsums over the coefficient tensor)


def commutator_defects_by_entry(action: CoAction) -> Dict[Tuple[int, int], AlgElement]:
    """The defect elements c_xy = sum_j d(y,j) u_xj - sum_j d(x,j) kappa(u_yj);
    all zero exactly when condition (D) holds."""
    qg = action.group
    d = action.space.dist
    n = action.n
    out = {}
    for x in range(n):
        for y in range(n):
            lhs = qg.algebra.zero()
            rhs = qg.algebra.zero()
            for j in range(n):
                lhs = lhs + float(d[y][j]) * action.u[x][j]
                rhs = rhs + float(d[x][j]) * apply_kappa(qg, action.u[y][j])
            out[(x, y)] = lhs - rhs
    return out


def _defect_verdict(tag: str, residuals, space, tol: float) -> IsometryVerdict:
    """The verdict on the largest of the ((x, y), residual) pairs.  The
    residuals scale with the metric, so tol is taken relative to the
    largest distance and the verdict does not depend on its units."""
    worst, worst_pair = 0.0, None
    for pair, r in residuals:
        if r > worst:
            worst, worst_pair = r, pair
    if worst <= tol * float(max(map(max, space.dist))):
        return IsometryVerdict(tag, True, certificate={"max_residual": worst})
    return IsometryVerdict(tag, False,
                           witness={"pair": worst_pair, "residual": worst})


def check_D_by_entry(action: CoAction, tol: float = 1e-9) -> IsometryVerdict:
    """Compare rho(d_y)(x) with kappa(rho(d_x)(y)) in norm, all pairs."""
    return _defect_verdict("D", ((xy, c.norm()) for xy, c in
                                 sorted(commutator_defects_by_entry(action).items())),
                           action.space, tol)


def check_D_state_by_entry(action: CoAction, psi, tol: float = 1e-9) -> IsometryVerdict:
    """Membership of psi in the (D)-isometric functionals: psi kills every
    defect element, i.e. (x <| psi)(d_y) = (y <| bar psi)(d_x)."""
    return _defect_verdict("D(state)", ((xy, abs(state_value(psi, c))) for xy, c in
                                        sorted(commutator_defects_by_entry(action).items())),
                           action.space, tol)


def check_D_commutant_by_entry(action: CoAction, tol: float = 1e-9) -> IsometryVerdict:
    """Equivalent form when kappa(u_ij) = u_ji: the magic unitary commutes
    with the scalar distance matrix."""
    qg = action.group
    n = action.n
    for i in range(n):
        for j in range(n):
            if (apply_kappa(qg, action.u[i][j]) - action.u[j][i]).norm() > tol:
                raise KappaConventionMismatch(
                    f"kappa(u[{i}][{j}]) != u[{j}][{i}]")
    d = action.space.dist

    def residuals():
        for x in range(n):
            for y in range(n):
                ud = qg.algebra.zero()
                du = qg.algebra.zero()
                for j in range(n):
                    ud = ud + action.u[x][j] * float(d[j][y])
                    du = du + float(d[x][j]) * action.u[j][y]
                yield (x, y), (ud - du).norm()

    return _defect_verdict("D", residuals(), action.space, tol)


def generation_deficit_by_entry(action: CoAction, tol: float = 1e-9) -> int:
    """dim A minus the dimension of the algebra generated by the u-entries."""
    alg = action.group.algebra
    elems = [alg.unit()] + [e for row in action.u for e in row]
    basis_vecs: List[np.ndarray] = []

    def absorb(vec) -> bool:
        v = vec.astype(complex)
        for b in basis_vecs:
            v = v - (b.conj() @ v) * b
        nv = np.linalg.norm(v)
        if nv > max(tol, 1e-10):
            basis_vecs.append(v / nv)
            return True
        return False

    frontier = []
    for e in elems:
        if absorb(e.vec()):
            frontier.append(e)
    while frontier and len(basis_vecs) < alg.dim:
        new_frontier = []
        for a in frontier:
            for row in action.u:
                for e in row:
                    prod = a * e
                    if absorb(prod.vec()):
                        new_frontier.append(prod)
        frontier = new_frontier
    return alg.dim - len(basis_vecs)


def verify_coaction_by_entry(action: CoAction, tol: float = 1e-9,
                             check_faithful: bool = True) -> QGReport:
    """All magic-unitary and coaction axioms as residuals.

    Faithfulness is tested by saturating the linear span of products of
    u-entries: the action is faithful iff the span reaches the whole
    algebra.  The faithfulness entry of the report is the dimension
    deficit (0.0 when faithful)."""
    qg = action.group
    alg = qg.algebra
    n = action.n
    rep = QGReport()

    proj = star = 0.0
    for row in action.u:
        for e in row:
            proj = max(proj, ((e * e) - e).norm())
            star = max(star, (e.star() - e).norm())
    rep.residuals["entries_idempotent"] = proj
    rep.residuals["entries_selfadjoint"] = star

    unit = alg.unit()
    row_res = col_res = 0.0
    for i in range(n):
        rsum = alg.zero()
        csum = alg.zero()
        for j in range(n):
            rsum = rsum + action.u[i][j]
            csum = csum + action.u[j][i]
        row_res = max(row_res, (rsum - unit).norm())
        col_res = max(col_res, (csum - unit).norm())
    rep.residuals["row_sums"] = row_res
    rep.residuals["column_sums"] = col_res

    coassoc = 0.0
    vecs = [[action.u[i][j].vec() for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = apply_delta(qg, action.u[i][j])
            rhs = np.zeros_like(lhs)
            for k in range(n):
                rhs += np.outer(vecs[i][k], vecs[k][j])
            coassoc = max(coassoc, float(np.abs(lhs - rhs).max()))
    rep.residuals["coaction_square"] = coassoc

    counit_res = 0.0
    for i in range(n):
        for j in range(n):
            counit_res = max(counit_res, abs(counit(qg, action.u[i][j])
                                             - (1.0 if i == j else 0.0)))
    rep.residuals["counit_compatibility"] = counit_res

    if check_faithful:
        rep.residuals["faithfulness_deficit"] = float(
            generation_deficit_by_entry(action, tol))
    return rep


# ---------------------------------------------------------------------------
# the pairwise universal checks over every ordered pair


def with_ordered_pairs(check, action: CoAction, *args, **kwargs) -> IsometryVerdict:
    """`check(action, ...)` with every ordered pair x != y visited in
    x-major order, whatever the symmetry of d."""
    with mock.patch("qiso.isometry._state_pairs",
                    lambda space: _ordered_pairs(space.n)):
        return check(action, *args, **kwargs)


# ---------------------------------------------------------------------------
# coactions built entry by entry


def entry_tensor(u) -> np.ndarray:
    """The (n, n, dim) coefficient tensor of a magic unitary given as rows
    of AlgElement entries."""
    return np.array([[e.vec() for e in row] for row in u])


def group_element(qg: QuantumGroup, g) -> AlgElement:
    """lambda_g inside a group algebra built by group_algebra()."""
    idx = qg.group_elements.index(tuple(g))
    return qg.algebra.from_vec(qg.group_embedding[:, idx])


def permutation_action_by_entry(space: FiniteMetricSpace, generators,
                                name: str = "") -> CoAction:
    """C(G) for the generated permutation group, with u_ij = 1_{g.j = i}."""
    group = close_generators(space.n, generators)
    qg = function_algebra_of_group(group, name=name or "C(G)")
    alg = qg.algebra
    n = space.n
    u = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = np.array([1.0 if g[j] == i else 0.0 for g in group],
                           dtype=complex)
            row.append(alg.from_vec(vec))
        u.append(tuple(row))
    return CoAction(qg, space, entry_tensor(u), name=name)


def dihedral_projection_action_by_entry(space: FiniteMetricSpace, m: int,
                                        name: str = "") -> CoAction:
    """The two-projection magic unitary over the group algebra of D_m.

    p = (1 + reflection)/2 and q = (1 + rotation.reflection)/2 swap points
    0,1 and 2,3 respectively; for m >= 3 the entries do not commute and the
    action is faithful.  Needs a 4-point space."""
    if space.n != 4:
        raise CatalogEntryInvalid("two-projection action needs 4 points")
    qg = dihedral_group_algebra(m)
    ref1 = tuple((-j) % m for j in range(m))
    ref2 = tuple((1 - j) % m for j in range(m))
    unit = qg.algebra.unit()
    p = 0.5 * (unit + group_element(qg, ref1))
    q = 0.5 * (unit + group_element(qg, ref2))
    zero = qg.algebra.zero()
    cp = unit - p
    cq = unit - q
    u = ((p, cp, zero, zero),
         (cp, p, zero, zero),
         (zero, zero, q, cq),
         (zero, zero, cq, q))
    return CoAction(qg, space, entry_tensor(u), name=name or f"dual-D{m}-projections")


def induced_action_by_entry(action: CoAction, quotient: QuantumGroup,
                            survivors: List[int], name: str = "") -> CoAction:
    """Compress the magic unitary blockwise, one entry at a time."""
    n = action.n
    u = tuple(tuple(AlgElement(quotient.algebra,
                               tuple(action.u[i][j].data[k] for k in survivors))
                    for j in range(n)) for i in range(n))
    return CoAction(quotient, action.space, entry_tensor(u),
                    name=name or f"{action.name}-envelope")


def quotient_by_gather(qg: QuantumGroup, ideal: BlockIdeal,
                       name: str = "") -> Tuple[QuantumGroup, List[int]]:
    """The quotient by a block ideal, its maps gathered on the surviving
    basis even when every block survives, when it keeps qg's group."""
    alg = qg.algebra
    survivors = [k for k in range(len(alg.blocks)) if k not in ideal]
    sub_alg = FinDimCStarAlgebra(tuple(alg.blocks[k] for k in survivors))
    keep = alg.block_indices(survivors)
    group = {} if len(survivors) < len(alg.blocks) else dict(
        group_table=qg.group_table, group_elements=qg.group_elements,
        group_embedding=qg.group_embedding)
    return QuantumGroup(sub_alg, qg.delta[np.ix_(keep, keep, keep)], qg.epsilon[keep],
                        qg.kappa[np.ix_(keep, keep)],
                        name=name or f"{qg.name}/I", **group), survivors


def induced_action_by_gather(action: CoAction, quotient: QuantumGroup,
                             survivors: List[int], name: str = "") -> CoAction:
    """The induced action, u gathered on the surviving basis."""
    keep = action.group.algebra.block_indices(survivors)
    return CoAction(quotient, action.space, action.coeffs[..., keep],
                    name=name or f"{action.name}-envelope")


# ---------------------------------------------------------------------------
# states one density per block


def random_state_by_blocks(algebra: FinDimCStarAlgebra, seed: int) -> StateFunctional:
    """`algebra.random_state` as first written: the same draws from
    `random.Random(seed)`, one density per block, 1x1 blocks included."""
    rng = random.Random(seed)
    weights = np.array([rng.expovariate(1.0) for _ in algebra.blocks])
    weights /= weights.sum()
    densities = []
    for w, b in zip(weights, algebra.blocks):
        if b == 1:
            densities.append(np.array([[w]]))
            continue
        G = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * b * b)]
                     ).view(complex).reshape(b, b)
        rho = G @ G.conj().T
        densities.append(rho / np.trace(rho).real * w)
    return StateFunctional(algebra, tuple(densities))


def extreme_state_by_blocks(algebra: FinDimCStarAlgebra, block: int, xi) -> StateFunctional:
    """The vector state xi xi* on one block, zero densities elsewhere."""
    xi = np.asarray(xi, dtype=complex)
    densities = [np.zeros((b, b), dtype=complex) for b in algebra.blocks]
    densities[block] = np.outer(xi, xi.conj())
    return StateFunctional(algebra, tuple(densities))


def haar_state_by_blocks(qg: QuantumGroup) -> StateFunctional:
    """The Plancherel trace, density (n_k / dim) I on block k."""
    return StateFunctional(qg.algebra, [np.eye(n) * (n / qg.dim) for n in qg.algebra.blocks])


# ---------------------------------------------------------------------------
# an action on a rescaled metric


def scaled_twin(action: CoAction, scale, float_mode: bool) -> CoAction:
    """The action on its metric times `scale`: exactly, or as a float space
    whose entries are the exact products rounded once."""
    scale = Fraction(scale)
    dist = [[Fraction(v) * scale for v in row] for row in action.space.dist]
    if float_mode:
        dist = [[float(v) for v in row] for row in dist]
    return CoAction(action.group, validate_metric(dist), action.coeffs,
                    name=action.name)


# ---------------------------------------------------------------------------
# the ball identity and the Lipschitz seminorm, entry by entry


def check_ball_identity(action: CoAction, tol: float = 1e-9) -> float:
    """Max residual of a_{x;B(y,I)} = kappa(a_{y;B(x,I)}) over all pairs and
    all realized closed balls and realized intervals I."""
    space = action.space
    qg = action.group
    radii = space.realized_distances
    intervals = [(radii[0], r) for r in radii] + \
        [(r1, r2) for r1 in radii for r2 in radii if 0 < r1 <= r2]
    worst = 0.0
    for x in range(space.n):
        for y in range(space.n):
            for I in intervals:
                lhs = a_element(action, x, ball(space, y, I))
                rhs = apply_kappa(qg, a_element(action, y, ball(space, x, I)))
                worst = max(worst, (lhs - rhs).norm())
    return worst


def check_lip_seminorm_state(action: CoAction, psi: StateFunctional,
                             samples: int = 50, seed: int = 0,
                             tol: float = 1e-9) -> bool:
    """L(psi |> f) <= L(f) on random functions and all polytope vertices."""
    space = action.space
    rng = random.Random(seed)
    fns = [tuple(rng.uniform(-1.0, 1.0) for _ in range(space.n))
           for _ in range(samples)]
    fns += [tuple(float(v) for v in vert.f)
            for vert in enumerate_dual_vertices(space, 1)]
    for f in fns:
        lf = lipschitz_constant(space, f)
        lg = lipschitz_constant(space, act_on_function(action, psi, f))
        if float(lg) > float(lf) + tol:
            return False
    return True


def sample_orthogonality_inputs(action: CoAction, count: int, seed: int):
    """Admissible (x, y, S, T, delta) tuples for `check_orthogonality`."""
    space = action.space
    n = space.n
    rng = random.Random(seed)
    realized = space.realized_distances
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        x, y = rng.randrange(n), rng.randrange(n)
        d_xy = space.dist[x][y]
        gaps = [abs(r - d_xy) for r in realized if r != d_xy]
        if not gaps:
            continue
        delta = min(gaps)
        size = rng.randint(1, n)
        S = frozenset(rng.sample(range(n), size))
        allowed = [t for t in range(n)
                   if all(abs(space.dist[s][t] - d_xy) >= delta for s in S)]
        if not allowed:
            continue
        T = frozenset(rng.sample(allowed, rng.randint(1, len(allowed))))
        out.append((x, y, S, T, delta))
    return out


def metric_violation_reference(matrix):
    """The first metric axiom that a rational (int or Fraction) square
    matrix fails, as (error class, witness, message), in the order and
    with the messages of `validate_metric`; None for a metric.  Every
    entry is compared as a Fraction, one at a time."""
    d = [[Fraction(v) for v in row] for row in matrix]
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            return NonzeroDiagonal, (i,), f"d({i},{i}) = {matrix[i][i]} != 0"
        for j in range(n):
            if d[i][j] != d[j][i]:
                return (AsymmetricMatrix, (i, j),
                        f"d({i},{j}) = {matrix[i][j]} != {matrix[j][i]} = d({j},{i})")
            if d[i][j] < 0:
                return NegativeDistance, (i, j), f"d({i},{j}) = {matrix[i][j]} < 0"
            if i != j and d[i][j] == 0:
                return (NegativeDistance, (i, j),
                        f"d({i},{j}) = {matrix[i][j]} vanishes for distinct points")
    for i, j, k in itertools.product(range(n), repeat=3):
        if d[i][k] > d[i][j] + d[j][k]:
            return (TriangleViolation, (i, j, k),
                    f"d({i},{k}) > d({i},{j}) + d({j},{k}): "
                    f"{matrix[i][k]} > {matrix[i][j]} + {matrix[j][k]}")
    return None


def shortest_path_metric_fractions(n: int, seed: int) -> FiniteMetricSpace:
    """`random_metric_space(n, seed)` on the shortest-path model as first
    written: the same draws from `random.Random(seed)`, every weight a
    Fraction and Floyd-Warshall run on Fractions."""
    rng = random.Random(seed)
    big = Fraction(10 ** 6)
    w = [[big] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = Fraction(0)
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        w[a][b] = w[b][a] = Fraction(rng.randint(1, 12), rng.choice((1, 2, 4)))
    for i in range(n):
        for j in range(i + 1, n):
            if w[i][j] == big and rng.random() < 0.4:
                w[i][j] = w[j][i] = Fraction(rng.randint(1, 12), rng.choice((1, 2, 4)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = w[i][k] + w[k][j]
                if through < w[i][j]:
                    w[i][j] = through
    return validate_metric(w, mode=RATIONAL)


# ---------------------------------------------------------------------------
# the envelope's Hopf saturation and universal property, by search


def kappa_block_map_loops(qg: QuantumGroup, tol: float = 1e-9) -> Dict[int, FrozenSet[int]]:
    """Which blocks the antipode sends each block into, one block pair of
    kappa at a time."""
    alg = qg.algebra
    spans = [slice(off, off + b * b) for off, b in zip(alg.offsets, alg.blocks)]
    return {k: frozenset(l for l, rows in enumerate(spans)
                         if np.abs(qg.kappa[rows, cols]).max() > tol)
            for k, cols in enumerate(spans)}


def delta_violations_loops(qg: QuantumGroup, included: FrozenSet[int],
                           tol: float) -> List[Tuple[int, int]]:
    """Surviving block pairs (k, l) where Delta of some ideal element has a
    residual, one ideal basis element and one survivor block pair at a
    time."""
    alg = qg.algebra
    survivors = [k for k in range(len(alg.blocks)) if k not in included]
    bad = set()
    for k in included:
        off, b = alg.offsets[k], alg.blocks[k]
        for idx in range(off, off + b * b):
            M = qg.delta[:, :, idx]
            for k1 in survivors:
                o1, b1 = alg.offsets[k1], alg.blocks[k1]
                for k2 in survivors:
                    o2, b2 = alg.offsets[k2], alg.blocks[k2]
                    if np.abs(M[o1:o1 + b1 * b1, o2:o2 + b2 * b2]).max() > tol:
                        bad.add((k1, k2))
    return sorted(bad)


class SaturationReachedFullAlgebra(QisoError):
    pass


def hopf_saturate(qg: QuantumGroup, ideal: BlockIdeal,
                  tol: float = 1e-9) -> Tuple[BlockIdeal, int]:
    """A smallest Hopf ideal containing the given one, plus the number of
    blocks that had to be added (zero for defect-generated ideals).

    Closure under the antipode is a block-set closure; the
    comultiplication condition may be repairable by killing either member
    of a violating survivor pair, so a minimum is found by branching and
    the first one found is returned.  The minimum is not unique: the Hopf
    ideals of C(G) are the ideals I_H of the functions vanishing on a
    subgroup H, and I_H meet I_K is the ideal of the functions vanishing
    on H u K, which need not be a subgroup.  On C(S3), from the survivors
    {e, (12), (13)}, the search returns {e, (13)}, and {e, (12)} is just
    as small."""
    counit_block = qg.counit_block()
    kmap = kappa_block_map(qg, tol)
    memo: Dict[FrozenSet[int], Optional[FrozenSet[int]]] = {}

    def close_kappa(inc: FrozenSet[int]) -> FrozenSet[int]:
        out = set(inc)
        changed = True
        while changed:
            changed = False
            for k in list(out):
                extra = kmap[k] - out
                if extra:
                    out |= extra
                    changed = True
        return frozenset(out)

    def search(inc: FrozenSet[int]) -> Optional[FrozenSet[int]]:
        inc = close_kappa(inc)
        if counit_block in inc:
            return None
        if inc in memo:
            return memo[inc]
        memo[inc] = None  # cycle guard; overwritten below
        violations = _delta_violations(qg, inc, tol)
        if not violations:
            memo[inc] = inc
            return inc
        k1, k2 = violations[0]
        candidates = [search(inc | {k1}), search(inc | {k2})]
        candidates = [c for c in candidates if c is not None]
        best = min(candidates, key=len) if candidates else None
        memo[inc] = best
        return best

    result = search(ideal.included_blocks)
    if result is None:
        raise SaturationReachedFullAlgebra(
            "no proper Hopf ideal contains the generators")
    return BlockIdeal(result), len(result) - len(ideal.included_blocks)


def is_hopf_ideal(qg: QuantumGroup, included: FrozenSet[int],
                  tol: float = 1e-9) -> bool:
    """Delta-, kappa- and counit-compatibility of a block ideal."""
    return _hopf_violation(qg, included, tol) is None


def verify_universal_property(action: CoAction, env: EnvelopeResult,
                              max_blocks: int = 12) -> dict:
    """Enumerate every block subset defining a Hopf quotient; every one
    whose induced action passes condition (D) must contain the envelope's
    ideal (i.e. factor through it).  Reports violations (there must be
    none) and the lattice of (D)-isometric quotients found."""
    qg = action.group
    K = len(qg.algebra.blocks)
    if K > max_blocks:
        raise SizeGuardExceeded(f"universal property exhaustion needs <= {max_blocks} blocks")
    violations = []
    isometric_quotients = []
    for size in range(K):
        for subset in itertools.combinations(range(K), size):
            J = frozenset(subset)
            if not is_hopf_ideal(qg, J, action.space.tol):
                continue
            quotient, survivors = quotient_quantum_group(qg, BlockIdeal(J))
            act = induced_action(action, quotient, survivors)
            if not check_D(act).holds:
                continue
            isometric_quotients.append(sorted(J))
            if not env.ideal.included_blocks <= J:
                violations.append(sorted(J))
    return {"violations": violations,
            "isometric_quotients": isometric_quotients}


def annihilator_convolution_check(qg: QuantumGroup, ideal: BlockIdeal,
                                  samples: int = 100, seed: int = 0,
                                  tol: float = 1e-8) -> bool:
    """Functionals vanishing on the ideal must be closed under convolution."""
    rng = np.random.default_rng(seed)
    alg = qg.algebra
    mask = np.zeros(alg.dim)
    for k in range(len(alg.blocks)):
        if k not in ideal:
            off, b = alg.offsets[k], alg.blocks[k]
            mask[off:off + b * b] = 1.0
    for _ in range(samples):
        phi = (rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)) * mask
        psi = (rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)) * mask
        conv = convolve_vectors(qg, phi, psi)
        if np.abs(conv * (1.0 - mask)).max() > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# group constructors and file helpers that only the tests call


def from_permutation_group(space: FiniteMetricSpace, generators):
    """(QuantumGroup, CoAction) for the generated permutation group acting
    tautologically on the space's points."""
    action = permutation_action(space, generators)
    return action.group, action


def dual_of_group(table, irreps, name: str = "") -> QuantumGroup:
    """Group algebra from a multiplication table and unitary irrep data.

    table[i][j] is the index of the product of elements i and j; each
    irrep is an array of shape (order, d, d).  The table is turned into
    permutations through the regular (Cayley) embedding."""
    order = len(table)
    perms = [tuple(row) for row in table]
    if any(sorted(p) != list(range(order)) for p in perms):
        raise NotAGroup("multiplication table rows must be permutations")
    for i in range(order):
        for j in range(order):
            for k in range(order):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup("multiplication table is not associative")
    return group_algebra(perms, irreps, name=name)


def save_space(path: str, space: FiniteMetricSpace) -> None:
    with open(path, "w") as fh:
        json.dump(space_to_dict(space), fh, indent=1)


def distribution_to_dict(mu: ProbVector) -> dict:
    return {"mass": [format_scalar(m) for m in mu.mass]}


def load_quantum_group(path: str) -> QuantumGroup:
    return quantum_group_from_dict(read_json_object(path))
