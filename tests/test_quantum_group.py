"""Block algebras, states, Hopf verification, Haar states, convolution."""

import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from qiso import algebra, cli, coaction, quantum_group
from qiso.algebra import (AlgElement, BadVector, FinDimCStarAlgebra,
                          StateFunctional, extreme_state, max_operator_norms,
                          operator_norms, random_state)
from qiso.catalog import (catalog_action, cycle_metric, dihedral_group_algebra,
                          dihedral_irreps, dihedral_perms,
                          random_permutation_action, standard_actions,
                          standard_groups)
from qiso.coaction import CoAction, verify_coaction
from qiso.fileio import quantum_group_from_dict, quantum_group_to_dict
from qiso.quantum_group import (InconsistentIrreps, KacViolation, NotAGroup,
                                QuantumGroup, close_generators, compose,
                                function_algebra_of_group, group_algebra,
                                haar_state, require_kac,
                                verify_quantum_group)

from oracles import (apply_kappa, convolve, convolve_vectors, counit_state,
                     exact_psd, exact_psd_pairs, group_algebra_loops,
                     haar_vector_lstsq, invert, psd_by_principal_minors,
                     state_value,
                     verify_coaction_loops, verify_quantum_group_dense,
                     verify_quantum_group_loops)


def test_algebra_shapes_and_unit():
    alg = FinDimCStarAlgebra((1, 2))
    assert alg.dim == 5
    unit = alg.unit()
    assert (unit * unit - unit).norm() == 0
    e = alg.basis_element(alg.index_of(1, 0, 1))
    assert np.allclose(e.data[1], [[0, 1], [0, 0]])
    assert np.allclose(e.star().data[1], [[0, 0], [1, 0]])


def test_block_layout_equals_per_block_loops():
    """block_of, block_indices, block_any and element_blocks equal loops
    over each block's span of basis indices, on 20 seeded random block
    tuples, an all-1x1 algebra (where block_any is the identity) and a
    single block, for masks with 1, 2 and 3 basis axes."""
    rng = random.Random(3303)
    gen = np.random.default_rng(3303)
    algebras = [FinDimCStarAlgebra((1,) * 5), FinDimCStarAlgebra((3,))] + [
        FinDimCStarAlgebra(tuple(rng.choice((1, 1, 2, 3))
                                 for _ in range(rng.randint(1, 5))))
        for _ in range(20)]
    for alg in algebras:
        K = len(alg.blocks)
        spans = [list(range(off, off + b * b))
                 for off, b in zip(alg.offsets, alg.blocks)]
        assert alg.block_of.tolist() == [k for k in range(K) for _ in spans[k]]
        for count in (0, 1, 4):
            chosen = [rng.randrange(K) for _ in range(count)]
            assert alg.block_indices(chosen).tolist() == \
                [a for k in chosen for a in spans[k]]
        for axes in (1, 2, 3):
            mask = gen.random((alg.dim,) * axes) < rng.choice((0.02, 0.2, 0.5))
            want = np.zeros((K,) * axes, dtype=bool)
            for ks in itertools.product(range(K), repeat=axes):
                want[ks] = mask[np.ix_(*(spans[k] for k in ks))].any()
            got = alg.block_any(mask)
            assert got.shape == want.shape and (got == want).all(), alg.blocks
            if K == alg.dim:
                assert (got == mask).all()
        X = gen.normal(size=(2, 3, alg.dim)) + 1j * gen.normal(size=(2, 3, alg.dim))
        stacks = alg.element_blocks(X)
        assert list(alg.blocks_by_size) == list(dict.fromkeys(alg.blocks))
        assert len(stacks) == len(alg.blocks_by_size)
        for n, stack in zip(alg.blocks_by_size, stacks):
            ks = [k for k in range(K) if alg.blocks[k] == n]
            assert stack.shape == (2, 3, len(ks), n, n)
            for i, k in enumerate(ks):
                assert (stack[:, :, i] == X[..., spans[k]].reshape(2, 3, n, n)).all()


def test_exact_psd():
    alg = FinDimCStarAlgebra((2,))
    good = AlgElement(alg, (np.array([[1.0, 0.5], [0.5, 1.0]]),))
    bad = AlgElement(alg, (np.array([[1.0, 2.0], [2.0, 1.0]]),))
    assert exact_psd(good) and not exact_psd(bad)
    # complex Hermitian via real embedding
    herm = AlgElement(alg, (np.array([[1.0, 0.5j], [-0.5j, 1.0]]),))
    assert exact_psd(herm)
    edge = AlgElement(alg, (np.array([[1.0, 1.0], [1.0, 1.0]]),))
    assert exact_psd(edge)  # boundary case decided exactly


def hermitian_from_vectors(vectors, signs):
    """sum_k signs[k] v_k v_k^* as (re, im) Fraction pairs, for vectors of
    (re, im) pairs."""
    b = len(vectors[0])
    return [[(sum(s * (v[i][0] * v[j][0] + v[i][1] * v[j][1])
                  for v, s in zip(vectors, signs)),
              sum(s * (v[i][1] * v[j][0] - v[i][0] * v[j][1])
                  for v, s in zip(vectors, signs)))
             for j in range(b)] for i in range(b)]


def integer_real_form(pairs):
    """The real form [[Re, -Im], [Im, Re]] of a matrix of (re, im)
    Fraction pairs, times the lcm of its denominators, as ints."""
    top = [[re for re, _ in row] + [-im for _, im in row] for row in pairs]
    bottom = [[im for _, im in row] + [re for re, _ in row] for row in pairs]
    scale = math.lcm(*(v.denominator for row in top + bottom for v in row))
    return [[int(v * scale) for v in row] for row in top + bottom]


def test_exact_psd_matches_principal_minors():
    """Elimination and principal minors agree on seeded rational Hermitian
    matrices, b <= 4, real and complex: full-rank and singular PSD ones,
    ones with a negative term v v^* (at most one negative eigenvalue), and
    ones where elimination meets a zero pivot on a nonzero row.  Both
    eliminations are compared: the oracle's on (re, im) pairs, and
    `algebra.exact_psd` on the integer real form, as the universal checks
    call it."""
    rng = random.Random(12)

    def entry():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))

    kinds = ("full", "singular", "negative", "zero-pivot")
    verdicts = {kind: set() for kind in kinds}
    for trial in range(400):
        b = 1 + trial % 4
        complex_ = trial % 8 >= 4
        kind = kinds[trial % 4 if b > 1 else trial % 3]
        rank = {"full": b, "singular": rng.randint(0, b - 1),
                "negative": b + 1, "zero-pivot": 1}[kind]
        vectors = [[(entry(), entry() if complex_ else F(0))
                    for _ in range(b)] for _ in range(max(rank, 1))]
        signs = [0] if rank == 0 else [1] * rank
        if kind == "negative":
            signs[rng.randrange(rank)] = F(-1, rng.randint(1, 6))
        pairs = hermitian_from_vectors(vectors, signs)
        if kind == "zero-pivot":
            # a rank-one block leaves a zero Schur complement, and the
            # added pair makes a zero pivot sit on a nonzero row
            i, j = (0, 1) if b == 2 else (b - 2, b - 1)
            re, im = F(rng.randint(1, 4), 3), F(rng.randint(-2, 2), 3) * complex_
            pairs[i][j] = (pairs[i][j][0] + re, pairs[i][j][1] + im)
            pairs[j][i] = (pairs[j][i][0] + re, pairs[j][i][1] - im)
            if b == 2:
                pairs[0][0] = (F(0), F(0))
        verdict = exact_psd_pairs(pairs)
        assert verdict == psd_by_principal_minors(pairs), pairs
        assert algebra.exact_psd(integer_real_form(pairs)) == verdict, pairs
        verdicts[kind].add(verdict)
    assert verdicts == {"full": {True}, "singular": {True},
                        "negative": {True, False}, "zero-pivot": {False}}


def test_max_operator_norm_equals_unscreened_max():
    """max_operator_norms is == to the largest of operator_norms on seeded
    complex stacks of 1x1 to 6x6 matrices: with exact-zero matrices, with
    matrices sharing one set of singular values (their Frobenius norms
    tie), rank-one matrices (Frobenius norm equal to the spectral norm),
    and scaled so far that the Frobenius sums underflow (1e-160, 1e-170)
    or overflow (1e155), alone and mixed with other scales; each stack on
    its own, and all of them at once, several to a name and in transposed
    (non-contiguous) layouts, so that each matrix size takes one batched
    SVD of every stack's top and one of every stack's survivors."""
    rng = np.random.default_rng(1515)

    def ginibre(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def unscreened(stacks):
        return float(np.max([operator_norms(mats).max() for mats in stacks]))

    named = {}
    for m in (1, 2, 4, 6):
        for trial in range(12):
            mats = ginibre(14, m, m)
            mats[rng.random(14) < 0.3] = 0.0
            # U diag(s) V with one s: equal spectral and Frobenius norms
            s = np.sort(rng.random(m))[::-1] * 4
            for k in rng.choice(14, size=4, replace=False):
                u, _ = np.linalg.qr(ginibre(m, m))
                v, _ = np.linalg.qr(ginibre(m, m))
                mats[k] = (u * s) @ v
            mats[rng.integers(14)] = np.linalg.qr(ginibre(m, m))[0] * 4
            # rank one, norm 5: Frobenius norm equal to the spectral norm
            for k in rng.choice(14, size=3, replace=False):
                x, y = ginibre(m), ginibre(m)
                mats[k] = 5 * np.outer(x / np.linalg.norm(x), y / np.linalg.norm(y))
            for scale in (1.0, 1e-150, 1e150, 1e-160, 1e-170, 1e155):
                scaled = mats * scale
                assert max_operator_norms({"": [scaled]})[""] == \
                    unscreened([scaled]), (m, trial, scale)
                named[(m, trial, scale)] = [scaled]
            mixed = mats * rng.choice([1e-170, 1e-160, 1e-150, 1.0, 1e150, 1e155],
                                      size=(14, 1, 1))
            stacked = mats[:12].reshape(3, 4, m, m)
            transposed = mats[:12].reshape(2, 6, m, m).transpose(1, 0, 2, 3)
            named[(m, trial)] = [mixed, stacked, transposed]
            for stacks in [[mixed], [stacked], [transposed], named[(m, trial)]]:
                assert max_operator_norms({"": stacks})[""] == unscreened(stacks), \
                    (m, trial)
        assert max_operator_norms({"": [np.zeros((3, m, m))]})[""] == 0.0
    together = max_operator_norms(named)
    assert list(together) == list(named)
    assert together == {name: unscreened(stacks) for name, stacks in named.items()}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_max_operator_norm_of_a_non_finite_stack_is_nan(bad):
    """A stack with a non-finite entry has NaN for its name, alone or among
    finite stacks of its size and of other names."""
    rng = np.random.default_rng(7)
    for m in (1, 2, 4):
        mats = rng.normal(size=(6, m, m)) * 1e3 + 0j
        mats[rng.integers(6), rng.integers(m), rng.integers(m)] = bad
        clean = rng.normal(size=(5, m, m)) + 0j
        norms = max_operator_norms({"bad": [clean, mats], "clean": [clean]})
        assert np.isnan(norms["bad"])
        assert norms["clean"] == operator_norms(clean).max()


def test_state_roundtrip_and_sampling():
    alg = FinDimCStarAlgebra((1, 2))
    psi = random_state(alg, 7)
    assert psi.is_state(1e-9)
    vec = psi.as_vector()
    back = StateFunctional.from_vector(alg, vec)
    for rho1, rho2 in zip(psi.densities, back.densities):
        assert np.allclose(rho1, rho2)
    assert not np.allclose(random_state(alg, 8).as_vector(), vec)
    with pytest.raises(BadVector):
        extreme_state(alg, 1, np.array([1.0, 1.0]))
    chi = extreme_state(alg, 0, np.array([1.0]))
    assert abs(state_value(chi, alg.unit()) - 1.0) < 1e-12


def test_random_state_keeps_numpy_seed_contract():
    """random_state takes an int seed >= 0, as numpy's generators did: a
    float raises TypeError, a negative int ValueError; an int-like seed
    (numpy's int64) is read through operator.index."""
    alg = FinDimCStarAlgebra((1, 2))
    for bad in (1.0, 2.5, "3"):
        with pytest.raises(TypeError):
            random_state(alg, bad)
    for bad in (-1, -977):
        with pytest.raises(ValueError):
            random_state(alg, bad)
    assert np.array_equal(random_state(alg, np.int64(5)).as_vector(),
                          random_state(alg, 5).as_vector())
    assert random_state(alg, 0).is_state(1e-9)


def test_random_state_is_deterministic_full_rank_and_unbiased():
    """Each seed gives one state, its densities of full rank, built one
    stack per block size (blocks of one size interleaved with others);
    over 400 seeds the block weights average 1/K (Dirichlet(1, ..., 1))
    and the normalized densities I/b (Ginibre), within 0.05."""
    alg = FinDimCStarAlgebra((2, 1, 3, 2, 1))
    weights, shapes = [], []
    for seed in range(400):
        psi = random_state(alg, seed)
        assert np.array_equal(psi.as_vector(), random_state(alg, seed).as_vector())
        assert psi.is_state(1e-9)
        traces = [np.trace(rho).real for rho in psi.densities]
        weights.append(traces)
        shapes.append([rho / t for rho, t in zip(psi.densities, traces)])
        for rho in psi.densities:
            assert np.linalg.eigvalsh(rho)[0] > 0
    assert np.abs(np.mean(weights, axis=0) - 1 / len(alg.blocks)).max() < 0.05
    for k, b in enumerate(alg.blocks):
        mean = np.mean([s[k] for s in shapes], axis=0)
        assert np.abs(mean - np.eye(b) / b).max() < 0.05


def test_group_closure_errors():
    with pytest.raises(NotAGroup):
        close_generators(3, [(0, 0, 1)])
    assert len(close_generators(3, [(1, 2, 0)])) == 3
    assert len(close_generators(3, [(1, 2, 0), (1, 0, 2)])) == 6
    g = (2, 0, 1)
    assert compose(g, invert(g)) == (0, 1, 2)


def test_bounded_closure_is_a_prefix():
    """close_generators with max_order returns a prefix of the closure that
    is longer than max_order exactly when the group is, so comparing its
    length with max_order decides as the whole group would."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(3, 6)
        gens = []
        for _ in range(rng.randint(1, 2)):
            perm = list(range(n))
            rng.shuffle(perm)
            gens.append(tuple(perm))
        full = close_generators(n, gens)
        for cap in (1, 6, 12, len(full)):
            part = close_generators(n, gens, cap)
            assert part == full[:len(part)]
            assert (len(part) <= cap) == (len(full) <= cap)


def test_random_permutation_action_stops_closure_early(monkeypatch):
    """Seed 26 at n = 11 first draws a shuffle and a second permutation
    that generate a large group; it is rejected after a few dozen products
    instead of after the whole closure (S_11 took gigabytes)."""
    real, calls = quantum_group.compose, []

    def counted(a, b):
        calls.append(1)
        if len(calls) > 10_000:
            raise AssertionError("closure ran past max_order")
        return real(a, b)

    monkeypatch.setattr(quantum_group, "compose", counted)
    action = random_permutation_action(cycle_metric(11), 26)
    assert action.group.dim <= 12


def test_function_algebra_verifies():
    for gens, order in ([[(1, 0)], 2], [[(1, 2, 0)], 3],
                        [[(1, 2, 0), (1, 0, 2)], 6]):
        qg = function_algebra_of_group(close_generators(len(gens[0]), gens))
        assert qg.dim == order
        assert verify_quantum_group(qg).passed(1e-10)


_verify_axioms = quantum_group._verify_axioms


def _assert_same_residuals(qg, label):
    blockwise = _verify_axioms(qg).residuals
    dense = verify_quantum_group_dense(qg).residuals
    assert list(blockwise) == list(dense), label
    for key, value in dense.items():
        if key.startswith("cancellation"):
            assert blockwise[key] == value, (label, key)
        else:
            assert abs(blockwise[key] - value) <= 1e-12, (label, key)


def test_blockwise_verifier_matches_dense_reference():
    """The block-by-block verifier reports the dense tensor-square
    verifier's residuals: on commutative and noncommutative groups up to
    dim 24, on C(S3) with column 0 of Delta wiped (a cancellation rank
    deficit), and on 300 seeded single-entry faults in delta, epsilon and
    kappa of sizes 1e-3, 0.1 and 1.  Every group takes the generic path,
    called directly, whatever path `verify_quantum_group` picks for it."""
    small = [e.action.group for e in standard_actions()] + standard_groups()
    groups = small + [function_algebra_of_group(dihedral_perms(m), name=f"C(D{m})")
                      for m in range(4, 9)] + \
        [dihedral_group_algebra(m) for m in range(3, 11)] + \
        [function_algebra_of_group(close_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
                                   name="C(S4)")]
    for qg in groups:
        _assert_same_residuals(qg, qg.name)
    # a wiped column of Delta shows in the cancellation ranks
    s3 = function_algebra_of_group(close_generators(3, [(1, 2, 0), (1, 0, 2)]),
                                   name="C(S3)")
    wiped = s3.delta.copy()
    wiped[:, :, 0] = 0.0
    wiped = QuantumGroup(s3.algebra, wiped, s3.epsilon, s3.kappa)
    _assert_same_residuals(s3, "C(S3)")
    _assert_same_residuals(wiped, "C(S3), Delta column 0 wiped")
    assert _verify_axioms(s3).residuals["cancellation_left"] == 0
    assert _verify_axioms(wiped).residuals["cancellation_left"] > 0
    rng = random.Random(707)
    for fault in range(300):
        qg = rng.choice(small)
        delta, epsilon, kappa = qg.delta.copy(), qg.epsilon.copy(), qg.kappa.copy()
        dim = qg.dim
        size = rng.choice((1e-3, 0.1, 1.0)) * rng.choice((1, -1, 1j))
        target = rng.choice(("delta", "epsilon", "kappa"))
        if target == "delta":
            delta[rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)] += size
        elif target == "epsilon":
            epsilon[rng.randrange(dim)] += size
        else:
            kappa[rng.randrange(dim), rng.randrange(dim)] += size
        mutated = QuantumGroup(qg.algebra, delta, epsilon, kappa)
        _assert_same_residuals(mutated, (fault, qg.name, target, size))


def _hopf_workload_groups():
    """The groups the benchmark's hopf workload verifies: C(D4)-C(D8) on
    seeded relabelings of the m-gon, dual-D4 to dual-D8 and dual-D10."""
    rng = random.Random(5)
    groups = []
    for m in range(4, 9):
        sigma = list(range(m))
        rng.shuffle(sigma)
        inv = [sigma.index(j) for j in range(m)]
        gens = [tuple(inv[g[s]] for s in sigma) for g in dihedral_perms(m)[1:3]]
        groups.append(function_algebra_of_group(
            close_generators(m, gens), name=f"C(D{m}), relabeled"))
    return groups + [dihedral_group_algebra(m) for m in (4, 5, 6, 7, 8, 10)]


def _faulted(rng, groups, actions, sizes):
    """One seeded single-entry fault, in delta, epsilon, kappa or u: a
    QuantumGroup, or a CoAction of an unchanged group."""
    target = rng.choice(("delta", "epsilon", "kappa", "u"))
    size = rng.choice(sizes)
    if not np.isnan(size):
        size = size * rng.choice((1, -1, 1j))
    if target == "u":
        action = rng.choice(actions)
        i, j = rng.randrange(action.n), rng.randrange(action.n)
        coeffs = action.coeffs.copy()
        coeffs[i, j, rng.randrange(action.group.dim)] += size
        return CoAction(action.group, action.space, coeffs)
    qg = rng.choice(groups)
    delta, epsilon, kappa = qg.delta.copy(), qg.epsilon.copy(), qg.kappa.copy()
    index = lambda: rng.randrange(qg.dim)
    if target == "delta":
        delta[index(), index(), index()] += size
    elif target == "epsilon":
        epsilon[index()] += size
    else:
        kappa[index(), index()] += size
    return QuantumGroup(qg.algebra, delta, epsilon, kappa)


def _same_residuals(report, reference):
    """== residual by residual and in the same order, NaN matching NaN."""
    mine, theirs = report.residuals, reference.residuals
    return list(mine) == list(theirs) and all(
        mine[k] == theirs[k] or (np.isnan(mine[k]) and np.isnan(theirs[k]))
        for k in mine)


def test_verifiers_equal_loop_references():
    """The generic path of verify_quantum_group, called directly, and
    verify_coaction report residuals == to the references of
    tests/oracles.py, which norm each stack of blocks on its own and
    contract coassociativity in two dim^4 products: on the hopf workload's
    groups, the catalog and standard groups and actions, C(D4)-C(D8),
    dual-D3 to dual-D12, C(S4) and dual-D10 with every exact 0 of Delta
    set to 1e-300 (a full block support, as a Delta written in an element
    basis has), and on 420 seeded single-entry faults of sizes 1e-3, 0.1,
    1, NaN and inf: at least 300 in delta, epsilon and kappa, the rest in
    u.  On the faulted groups of 1x1 blocks, which verify_quantum_group
    checks against the Cayley table their Delta defines, it agrees with
    the reference on pass or fail at 1e-10."""
    catalog_actions = [e.action for e in standard_actions()]
    small = [a.group for a in catalog_actions] + standard_groups()
    dense = dihedral_group_algebra(10)
    filled = dense.delta.copy()
    filled[filled == 0] = 1e-300
    dense = QuantumGroup(dense.algebra, filled, dense.epsilon, dense.kappa,
                         name="dual-D10, zeros as 1e-300")
    assert dense.delta.all()
    groups = _hopf_workload_groups() + small + \
        [function_algebra_of_group(dihedral_perms(m), name=f"C(D{m})")
         for m in range(4, 9)] + \
        [dihedral_group_algebra(m) for m in range(3, 13)] + \
        [function_algebra_of_group(close_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
                                   name="C(S4)"), dense]
    for qg in groups:
        assert _same_residuals(_verify_axioms(qg), verify_quantum_group_loops(qg)), qg.name
    for action in catalog_actions:
        assert _same_residuals(verify_coaction(action),
                               verify_coaction_loops(action)), action.name
    rng = random.Random(2323)
    faulted = small + _hopf_workload_groups()[:8]
    kinds = {"group": 0, "action": 0, "commutative": 0}
    with np.errstate(all="ignore"):
        for fault in range(420):
            case = _faulted(rng, faulted, catalog_actions,
                            (1e-3, 0.1, 1.0, np.nan, np.inf))
            if isinstance(case, CoAction):
                kinds["action"] += 1
                assert _same_residuals(
                    verify_coaction(case, check_faithful=False),
                    verify_coaction_loops(case, check_faithful=False)), fault
            else:
                kinds["group"] += 1
                reference = verify_quantum_group_loops(case)
                assert _same_residuals(_verify_axioms(case), reference), fault
                if max(case.algebra.blocks) == 1:
                    kinds["commutative"] += 1
                    assert verify_quantum_group(case).passed(1e-10) == \
                        reference.passed(1e-10), fault
    assert kinds["group"] >= 300 and kinds["action"] >= 50, kinds
    assert kinds["commutative"] >= 100, kinds


def test_verifier_on_random_block_supports():
    """On 80 seeded random structure maps over algebras of one to five
    blocks of sizes 1 to 3, with Delta nonzero on a random share (5% to
    all) of the block triples, some with integer entries and some with a
    NaN or inf, the generic path of verify_quantum_group, called
    directly, reports the residuals of the loop reference.  The block support
    changes the shapes of the BLAS products, not their terms, so
    delta_multiplicative and coassociativity may sum the same terms in
    another order (one ulp apart at blocks of size 3): each of their
    entries sums at most dim products of two delta entries per side, so
    they agree within 4 dim^2 eps max|delta|^2.  Every other residual
    is ==."""
    rng = random.Random(3232)
    gen = np.random.default_rng(3232)
    eps = np.finfo(float).eps
    for trial in range(80):
        blocks = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 5)))
        alg = FinDimCStarAlgebra(blocks)
        dim = alg.dim
        block_of = np.repeat(np.arange(len(blocks)), np.square(blocks))
        kept = gen.random((len(blocks),) * 3) < rng.choice((0.05, 0.2, 0.5, 1.0))
        delta = (gen.normal(size=(dim,) * 3) + 1j * gen.normal(size=(dim,) * 3)) \
            * kept[np.ix_(block_of, block_of, block_of)]
        if trial % 4 == 1:
            delta = np.round(delta.real) + 0j
        bound = 4 * dim ** 2 * eps * np.abs(delta).max() ** 2
        if trial % 8 == 3:
            delta[rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)] = \
                rng.choice((np.nan, np.inf))
        qg = QuantumGroup(alg, delta, gen.normal(size=dim) + 0j,
                          gen.normal(size=(dim, dim)) + 0j)
        with np.errstate(all="ignore"):
            reference = verify_quantum_group_loops(qg).residuals
            mine = _verify_axioms(qg).residuals
        assert list(mine) == list(reference), trial
        for key, value in reference.items():
            if np.isnan(value):
                assert np.isnan(mine[key]), (trial, key)
            elif key in ("delta_multiplicative", "coassociativity"):
                assert abs(mine[key] - value) <= bound, (trial, key, mine[key], value)
            else:
                assert mine[key] == value, (trial, key)


def test_screened_residuals_equal_unscreened(monkeypatch):
    """Every residual of verify_quantum_group and verify_coaction is == to
    the one computed with the plain maximum of operator_norms in place of
    the Frobenius screen: on the catalog groups and actions, C(D4)-C(D8),
    dual-D10, and 40 seeded single-entry faults in delta, epsilon, kappa
    and u.  The patched name is the one the verifiers call: each verifier
    call invokes it once.  Every group takes the generic path of
    verify_quantum_group, called directly."""
    catalog_actions = [e.action for e in standard_actions()]
    clean = [a.group for a in catalog_actions] + standard_groups() + \
        [function_algebra_of_group(dihedral_perms(m), name=f"C(D{m})")
         for m in range(4, 9)] + [dihedral_group_algebra(10)]
    rng = random.Random(1515)
    groups, actions = list(clean), list(catalog_actions)
    for _ in range(40):
        case = _faulted(rng, [a.group for a in catalog_actions], catalog_actions,
                        (1e-3, 0.1, 1.0))
        (actions if isinstance(case, CoAction) else groups).append(case)

    def residuals():
        return ([_verify_axioms(qg).residuals for qg in groups],
                [verify_coaction(a, check_faithful=False).residuals
                 for a in actions])

    screened = residuals()
    calls = []

    def unscreened(named):
        calls.append(len(named))
        return {name: float(np.max([operator_norms(mats).max() for mats in stacks]))
                for name, stacks in named.items()}

    monkeypatch.setattr(quantum_group, "max_operator_norms", unscreened)
    monkeypatch.setattr(coaction, "max_operator_norms", unscreened)
    assert residuals() == screened
    # positive control: one call per verifier call, with every norm residual
    assert calls == [8] * len(groups) + [4] * len(actions)


@pytest.mark.parametrize("target", ["delta", "epsilon", "kappa"])
def test_nan_in_a_structure_map_fails_verification(target):
    """A NaN in delta, epsilon or kappa makes the residuals it reaches NaN,
    and a NaN residual fails: worst() is NaN, passed() is False and
    failing() lists it: on the generic path, called directly, and on the
    path verify_quantum_group picks for C(D4) and dual-D4 given by their
    arrays, the C(G) certificate and the generic path.  require_kac
    rejects a NaN antipode."""
    for qg in (function_algebra_of_group(dihedral_perms(4), name="C(D4)"),
               dihedral_group_algebra(4)):
        delta, epsilon, kappa = qg.delta.copy(), qg.epsilon.copy(), qg.kappa.copy()
        if target == "delta":
            delta[1, 2, 3] = np.nan
        elif target == "epsilon":
            epsilon[2] = np.nan
        else:
            kappa[1, 1] = np.nan
        broken = QuantumGroup(qg.algebra, delta, epsilon, kappa)
        report = _verify_axioms(broken)
        nan_keys = {k for k, v in report.residuals.items() if np.isnan(v)}
        assert len(nan_keys) >= 6, (qg.name, nan_keys)
        for report in (report, verify_quantum_group(broken)):
            nan_keys = {k for k, v in report.residuals.items() if np.isnan(v)}
            assert np.isnan(report.worst()), (qg.name, report.residuals)
            assert not report.passed(1e-10) and not report.passed(np.inf)
            assert nan_keys and nan_keys <= set(report.failing(1e-10))
        if target == "kappa":
            with pytest.raises(KacViolation):
                require_kac(broken)


def test_corrupted_delta_is_detected():
    """A fault added in place is seen by the next verification: on C(Z2),
    and on dual-D10 after a passing verification, with 1e-3 added to an
    entry of a block triple of multiplicity 0, which the support of the
    first verification left out."""
    qg = function_algebra_of_group(close_generators(2, [(1, 0)]))
    qg.delta[0, 1, 0] += 0.1
    report = verify_quantum_group(qg)
    assert not report.passed(1e-10)
    assert any(abs(v - 0.1) < 0.2 and v > 0.01 for v in report.residuals.values())
    qg = dihedral_group_algebra(10)
    assert verify_quantum_group(qg).passed(1e-10)
    chars = np.array([U.trace(axis1=1, axis2=2)
                      for U in dihedral_irreps(10, dihedral_perms(10))])
    multiplicity = np.einsum("Kg,Lg,kg->KLk", chars, chars, chars.conj()).real / 20
    K, L, k = np.argwhere(np.abs(multiplicity) < 0.5)[0]
    offsets = qg.algebra.offsets
    assert qg.delta[offsets[K], offsets[L], offsets[k]] == 0
    qg.delta[offsets[K], offsets[L], offsets[k]] += 1e-3
    report = verify_quantum_group(qg)
    assert not report.passed(1e-10)
    assert report.worst() >= 1e-3 / 2, report.residuals


def _group_built_populations():
    """C(D4)-C(D8), C(S3), C(S4), C(S5), dual-D3 to dual-D12, the hopf
    workload's groups and the standard and catalog groups: every one
    built from a finite group."""
    return [function_algebra_of_group(dihedral_perms(m), name=f"C(D{m})")
            for m in range(4, 9)] + \
        [function_algebra_of_group(close_generators(n, gens), name=f"C(S{n})")
         for n, gens in ((3, [(1, 2, 0), (1, 0, 2)]),
                         (4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
                         (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))] + \
        [dihedral_group_algebra(m) for m in range(3, 13)] + \
        _hopf_workload_groups() + standard_groups() + \
        [e.action.group for e in standard_actions()]


CERTIFICATE_KEYS = {
    False: ["group_table", "delta_cayley", "counit_identity", "antipode_inverse"],
    True: ["group_shape", "group_table", "group_basis", "group_identity",
           "group_multiplicative", "group_star", "delta_grouplike",
           "counit_grouplike", "antipode_grouplike"]}


def test_group_certificate_passes_and_dense_twins_pass_generic():
    """Every group built from a finite group is verified against it, with
    the certificate's residuals by name, at 1e-10: a dual against the
    group it keeps, C(G) against the table its Delta defines.  The same
    structure maps pass the generic path, called directly."""
    groups = _group_built_populations()
    assert len(groups) > 40
    for qg in groups:
        report = verify_quantum_group(qg)
        assert list(report.residuals) == \
            CERTIFICATE_KEYS[qg.group_embedding is not None], qg.name
        assert report.passed(1e-10), (qg.name, report.failing(1e-10))
        generic = _verify_axioms(qg)
        assert "coassociativity" in generic.residuals, qg.name
        assert generic.passed(1e-10), (qg.name, generic.failing(1e-10))


def _fails(report) -> bool:
    worst = report.worst()
    return bool(np.isnan(worst) or worst >= 1e-4)


def _fault_groups():
    """The standard and catalog groups and the hopf workload's groups."""
    return standard_groups() + [e.action.group for e in standard_actions()] + \
        _hopf_workload_groups()


def _check_seeded_faults(groups, check) -> None:
    """330 seeded single-entry faults of sizes 1e-3, 0.1, 1, NaN and inf,
    each added in place to delta, epsilon or kappa of one of `groups`,
    checked by check(qg, size, label) and undone; at least 80 per map."""
    rng = random.Random(4949)
    targets = {"delta": 0, "epsilon": 0, "kappa": 0}
    with np.errstate(all="ignore"):
        for fault in range(330):
            qg = rng.choice(groups)
            target = rng.choice(sorted(targets))
            size = rng.choice((1e-3, 0.1, 1.0, np.nan, np.inf))
            if not np.isnan(size):
                size = size * rng.choice((1, -1, 1j))
            entries = getattr(qg, target)
            at = tuple(rng.randrange(n) for n in entries.shape)
            kept = entries[at]
            entries[at] += size
            try:
                check(qg, size, (fault, qg.name, target, size))
            finally:
                entries[at] = kept
            targets[target] += 1
    assert min(targets.values()) >= 80, targets


def test_group_certificate_detects_in_place_faults():
    """330 seeded single-entry faults (`_check_seeded_faults`) of groups
    built from finite groups each fail the certificate with a worst
    residual of at least 1e-4 or NaN; the same fault fails the generic
    path, called directly."""
    groups = _fault_groups()

    def check(qg, size, label):
        assert _fails(verify_quantum_group(qg)), label
        assert _fails(_verify_axioms(qg)), label

    _check_seeded_faults(groups, check)
    for qg in groups:                  # every fault was undone
        assert verify_quantum_group(qg).passed(1e-10), qg.name


def test_recovered_certificate_rejects_in_place_faults():
    """The 330 seeded faults of `_check_seeded_faults`, applied to the
    stripped twins of the duals (their arrays alone, which keep no group),
    each fail with a worst residual of at least 1e-4 or NaN, through the
    generic path: the group recovered from the faulty maps fails its
    certificate, and a non-finite fault skips the recovery and gives NaN
    residuals rather than an exception.  Unfaulted, every twin takes the
    recovered certificate."""
    twins = [QuantumGroup(qg.algebra, qg.delta, qg.epsilon, qg.kappa, name=qg.name)
             for qg in _fault_groups() if qg.group_embedding is not None]
    assert len(twins) >= 8

    def check(qg, size, label):
        report = verify_quantum_group(qg)
        assert _fails(report), label
        assert "coassociativity" in report.residuals, label
        assert np.isnan(report.worst()) == (not np.isfinite(size)), label

    _check_seeded_faults(twins, check)
    for qg in twins:
        report = verify_quantum_group(qg)
        assert list(report.residuals) == CERTIFICATE_KEYS[True], qg.name
        assert report.passed(1e-10), (qg.name, report.failing(1e-10))


def test_group_certificate_does_not_trust_the_group_data():
    """A dual's table and V are checked on every call: one entry of V
    moved by 1e-3, or two entries of a row of the Cayley table swapped,
    fails the certificate although the structure maps are unchanged.  C(G)
    keeps no table: a Delta built as the 0/1 tensor of a Cayley table
    with two entries of one row swapped defines a table that is no
    group's, and fails with group_table 1."""
    import dataclasses
    rng = random.Random(5151)
    for qg in [dihedral_group_algebra(m) for m in (3, 4, 7, 10)]:
        for _ in range(5):
            V = qg.group_embedding.copy()
            V[rng.randrange(qg.dim), rng.randrange(qg.dim)] += 1e-3 * rng.choice((1, -1, 1j))
            assert _fails(verify_quantum_group(
                dataclasses.replace(qg, group_embedding=V))), qg.name
    for qg in [function_algebra_of_group(dihedral_perms(m), name=f"C(D{m})")
               for m in (4, 5)] + [dihedral_group_algebra(m) for m in (3, 4, 7)]:
        order, dual = qg.dim, qg.group_table is not None
        every = np.arange(order)
        for _ in range(5):
            table = qg.group_table.copy() if dual else np.abs(qg.delta).argmax(axis=2)
            row, (i, j) = rng.randrange(order), rng.sample(range(order), 2)
            table[row, [i, j]] = table[row, [j, i]]
            if dual:
                swapped = dataclasses.replace(qg, group_table=table)
            else:
                delta = np.zeros_like(qg.delta)
                delta[every[:, None], every, table] = 1.0
                swapped = QuantumGroup(qg.algebra, delta, qg.epsilon, qg.kappa)
            report = verify_quantum_group(swapped)
            assert _fails(report), qg.name
            assert report.residuals["group_table"] == 1.0, qg.name


def test_function_algebra_of_s5_verifies():
    """C(S5), of dim 120, verifies at 1e-10 on the C(G) certificate,
    against the Cayley table its Delta defines: one argmax over Delta's
    dim^3 entries, then the table's group axioms and the 0/1 maps."""
    qg = function_algebra_of_group(close_generators(
        5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]), name="C(S5)")
    assert qg.dim == 120
    report = verify_quantum_group(qg)
    assert report.passed(1e-10), report.failing(1e-10)


def test_commutative_groups_need_no_stored_group():
    """C(S4) and C(S5) given by their arrays, and C(S4) round-tripped
    through its JSON dict, report the C(G) certificate's residuals and
    pass at 1e-10.  A dual-D6 loaded from its JSON dict keeps no group and
    takes the certificate of the group its Delta defines."""
    groups = [function_algebra_of_group(close_generators(n, gens), name=f"C(S{n})")
              for n, gens in ((4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
                              (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))]
    cases = [QuantumGroup(qg.algebra, qg.delta, qg.epsilon, qg.kappa, name=qg.name)
             for qg in groups] + [quantum_group_from_dict(quantum_group_to_dict(groups[0]))]
    for qg in cases:
        report = verify_quantum_group(qg)
        assert list(report.residuals) == CERTIFICATE_KEYS[False], qg.name
        assert report.passed(1e-10), (qg.name, report.failing(1e-10))
    loaded = quantum_group_from_dict(quantum_group_to_dict(dihedral_group_algebra(6)))
    assert loaded.group_embedding is None
    report = verify_quantum_group(loaded)
    assert list(report.residuals) == CERTIFICATE_KEYS[True], report.residuals
    assert report.passed(1e-10), report.failing(1e-10)


def test_duals_without_their_group_take_the_recovered_certificate():
    """A group dual that keeps no group is verified against the group-likes
    and Cayley table recovered from its Delta: dual-D3 to dual-D12 (the
    hopf workload's among them) round-tripped through their JSON dicts and
    given by their arrays, C*(D6) by the Hopf ideal of blocks 2, 3 and 4,
    and the catalog duals conjugated by seeded unitaries on each block
    report the C*(G) certificate's residuals with worst <= 1e-13."""
    from qiso.envelope import BlockIdeal, quotient_quantum_group
    from test_metamorphic import conjugate
    cases = []
    for m in range(3, 13):
        qg = dihedral_group_algebra(m)
        cases += [quantum_group_from_dict(quantum_group_to_dict(qg)),
                  QuantumGroup(qg.algebra, qg.delta, qg.epsilon, qg.kappa, name=qg.name)]
    cases.append(quotient_quantum_group(dihedral_group_algebra(6),
                                        BlockIdeal(frozenset({2, 3, 4})))[0])
    cases += [conjugate(catalog_action(name), seed)[0].group
              for name in ("dual-d3-blocks", "dual-d4-blocks", "dual-d4-asymmetric")
              for seed in range(3)]
    for qg in cases:
        assert qg.group_embedding is None, qg.name
        report = verify_quantum_group(qg)
        assert list(report.residuals) == CERTIFICATE_KEYS[True], qg.name
        assert report.passed(1e-10) and report.worst() <= 1e-13, (qg.name, report.residuals)


def test_catalog_search_and_hopf_workload_take_no_generic_path(monkeypatch, tmp_path):
    """Every quantum group that `qiso --seed 3 search --kind catalog
    --random 6` or the hopf workload verifies is a group dual that keeps
    its group, or C(G), and takes a certificate: with the generic path and
    the recovery of a group from Delta patched to raise, both run through
    without calling either."""
    calls = []

    def raising(qg):
        calls.append(qg.name)
        raise AssertionError(f"{qg.name} left the stored and C(G) certificates")

    monkeypatch.setattr(quantum_group, "_verify_axioms", raising)
    monkeypatch.setattr(quantum_group, "_recovered_group", raising)
    out = tmp_path / "search.json"
    assert cli.main(["--seed", "3", "search", "--kind", "catalog", "--random", "6",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["instances"]
    for qg in _hopf_workload_groups():
        assert verify_quantum_group(qg).passed(1e-10), qg.name
    assert not calls, calls


def test_dual_s3_verifies():
    qg = dihedral_group_algebra(3)
    assert tuple(qg.algebra.blocks) == (1, 1, 2)
    assert verify_quantum_group(qg).passed(1e-10)


def test_inconsistent_irreps_rejected():
    group = close_generators(3, [(1, 2, 0), (1, 0, 2)])
    order = len(group)
    triv = np.ones((order, 1, 1), dtype=complex)
    with pytest.raises(InconsistentIrreps):
        group_algebra(group, [triv])  # dimensions do not sum to 6
    broken = np.ones((order, 1, 1), dtype=complex)
    broken[2] = -1.0
    with pytest.raises(InconsistentIrreps):
        group_algebra(group, [triv, broken, np.zeros((order, 2, 2))])


def test_group_algebra_equals_loop_constructor():
    """group_algebra's stacked checks over the Cayley table build structure
    maps bitwise equal to the loop constructor's on dihedral m = 3..12,
    but for Delta off the character support, and both raise
    InconsistentIrreps on the same inputs.  On the block triples (K, L, k)
    whose multiplicity <chi_K chi_L, chi_k> is positive, Delta is bitwise
    the loop constructor's; on the others it is exactly 0, where the loop
    constructor leaves the rounding of sums of |G| terms that cancel,
    within |G| machine epsilons (2.5e-15 at m = 12)."""
    for m in range(3, 13):
        group = dihedral_perms(m)
        irreps = dihedral_irreps(m, group)
        mine, theirs = group_algebra(group, irreps), group_algebra_loops(group, irreps)
        for key in ("epsilon", "kappa"):
            assert np.array_equal(getattr(mine, key).view(float),
                                  getattr(theirs, key).view(float)), (m, key)
        chars = np.array([[np.trace(U[a]) for a in range(len(group))] for U in irreps])
        multiplicity = np.einsum("Kg,Lg,kg->KLk", chars, chars,
                                 chars.conj()).real / len(group)
        block_of = np.repeat(np.arange(len(irreps)), [U.shape[1] ** 2 for U in irreps])
        on = multiplicity[np.ix_(block_of, block_of, block_of)] > 0.5
        assert 0 < on.sum() < on.size, m
        assert np.array_equal(mine.delta[on].view(float), theirs.delta[on].view(float)), m
        assert not mine.delta[~on].any(), m
        assert np.abs(theirs.delta[~on]).max() <= len(group) * np.finfo(float).eps, m
    group = dihedral_perms(4)
    irreps = dihedral_irreps(4, group)
    scaled = [U.copy() for U in irreps]
    scaled[4][3] *= 1 + 1e-6                     # not unitary
    swapped = [U.copy() for U in irreps]
    swapped[4][[1, 2]] = swapped[4][[2, 1]]      # unitary, not a homomorphism
    flipped = [U.copy() for U in irreps]
    flipped[1][5] *= -1                          # a 1-d irrep's sign
    cases = [irreps, irreps[:-1], [U[:-1] for U in irreps], scaled, swapped,
             flipped, irreps[:4] + [np.zeros((8, 2, 2))]]

    def raises(build, case) -> bool:
        try:
            build(group, case)
        except InconsistentIrreps:
            return True
        return False

    for build in (group_algebra, group_algebra_loops):
        assert [raises(build, case) for case in cases] == [False] + [True] * 6


def test_dihedral_quarter_turns_are_exact():
    """Rotations by quarter turns take the exact powers of i, so dual-D4
    and its catalog actions verify with every residual exactly 0 (they
    were about 4e-16 with omega = exp(2 pi i / 4)), and dual-D8's
    quarter turns are exact entries of its irreps."""
    qg = dihedral_group_algebra(4)
    assert set(np.concatenate([U.ravel() for U in
                               dihedral_irreps(4, dihedral_perms(4))]).tolist()) \
        <= {0, 1, -1, 1j, -1j}
    assert verify_quantum_group(qg).worst() == 0.0
    for name in ("dual-d4-blocks", "dual-d4-mixed", "dual-d4-asymmetric"):
        action = catalog_action(name)
        assert verify_quantum_group(action.group).worst() == 0.0, name
        assert verify_coaction(action).worst() == 0.0, name
    group = dihedral_perms(8)
    U = dihedral_irreps(8, group)[-3]            # k = 1
    quarter = group.index(tuple((j + 2) % 8 for j in range(8)))
    assert U[quarter][0, 0] == 1j and U[quarter][1, 1] == -1j


def test_haar_state_equals_least_squares_solution():
    """The Plancherel trace sum_k (n_k / dim) Tr_k is within 1e-12 of the
    least-squares bi-invariant functional, and its invariance residual is
    below 1e-12: on the catalog and standard groups, the hopf workload's
    groups, dual-D3 to dual-D12, C(S4) and the quotients of the catalog
    envelopes."""
    from qiso.envelope import envelope
    envelopes = [envelope(e.action) for e in standard_actions()]
    groups = [e.action.group for e in standard_actions()] + standard_groups() + \
        _hopf_workload_groups() + \
        [dihedral_group_algebra(m) for m in range(3, 13)] + \
        [function_algebra_of_group(close_generators(
            4, [(1, 2, 3, 0), (1, 0, 2, 3)]), name="C(S4)")] + \
        [env.quotient for env in envelopes]
    # a positive control: some envelope is a proper quotient
    assert any(len(env.ideal) for env in envelopes)
    for qg in groups:
        haar = haar_state(qg)
        solution, solve_residual = haar_vector_lstsq(qg)
        assert solve_residual < 1e-12, qg.name
        assert np.abs(haar.state.as_vector() - solution).max() < 1e-12, qg.name
        assert haar.residual < 1e-12 and haar.reduced, qg.name


def test_haar_states():
    qg = function_algebra_of_group(close_generators(3, [(1, 2, 0)]))
    h = haar_state(qg)
    assert np.allclose(h.state.as_vector(), np.full(3, 1 / 3))
    assert h.reduced
    dual = dihedral_group_algebra(3)
    hd = haar_state(dual)
    traces = [float(np.trace(r).real) for r in hd.state.densities]
    assert np.allclose(traces, [1 / 6, 1 / 6, 2 / 3])  # Plancherel weights
    assert hd.reduced


def test_haar_invariance_under_random_convolution():
    for qg in standard_groups():
        h = haar_state(qg).state
        hvec = h.as_vector()
        for k in range(20):
            psi = random_state(qg.algebra, 31 * k + 1)
            left = convolve(qg, h, psi).as_vector()
            right = convolve(qg, psi, h).as_vector()
            assert np.abs(left - hvec).max() < 1e-9
            assert np.abs(right - hvec).max() < 1e-9


def test_counit_is_convolution_unit():
    for qg in standard_groups():
        eps = counit_state(qg)
        for k in range(5):
            psi = random_state(qg.algebra, 53 * k)
            out = convolve(qg, eps, psi).as_vector()
            assert np.abs(out - psi.as_vector()).max() < 1e-10
            out = convolve(qg, psi, eps).as_vector()
            assert np.abs(out - psi.as_vector()).max() < 1e-10


def test_point_mass_convolution_is_group_law():
    group = close_generators(3, [(1, 2, 0), (1, 0, 2)])
    qg = function_algebra_of_group(group)
    index = {g: a for a, g in enumerate(group)}
    for g in group[:4]:
        for h in group[:4]:
            dg = np.zeros(qg.dim)
            dg[index[g]] = 1.0
            dh = np.zeros(qg.dim)
            dh[index[h]] = 1.0
            conv = convolve_vectors(qg, dg, dh)
            expected = np.zeros(qg.dim)
            expected[index[compose(g, h)]] = 1.0
            assert np.abs(conv - expected).max() < 1e-12


def test_convolution_associative():
    for qg in standard_groups():
        states = [random_state(qg.algebra, s).as_vector() for s in (1, 2, 3)]
        a, b, c = states
        left = convolve_vectors(qg, convolve_vectors(qg, a, b), c)
        right = convolve_vectors(qg, a, convolve_vectors(qg, b, c))
        assert np.abs(left - right).max() < 1e-10


def test_convolution_of_states_is_state():
    for qg in standard_groups():
        phi = random_state(qg.algebra, 5)
        psi = random_state(qg.algebra, 6)
        assert convolve(qg, phi, psi).is_state(tol=1e-8)


def test_antipode_on_magic_unitary_convention():
    from qiso.catalog import standard_actions
    for entry in standard_actions():
        qg = entry.action.group
        u = entry.action.u
        n = entry.action.n
        for i in range(n):
            for j in range(n):
                assert (apply_kappa(qg, u[i][j]) - u[j][i]).norm() < 1e-9


def test_no_invariant_state_on_broken_input():
    qg = function_algebra_of_group(close_generators(2, [(1, 0)]))
    broken = __import__("copy").deepcopy(qg)
    broken.delta = broken.delta * 0.0  # not a quantum group at all
    with pytest.raises(Exception) as exc:
        haar_state(broken)
    from qiso.quantum_group import NoInvariantState
    assert isinstance(exc.value, NoInvariantState)


def test_nan_in_delta_has_no_invariant_state():
    """A NaN in delta raises NoInvariantState, not numpy's LinAlgError from
    the least-squares solve."""
    from qiso.catalog import catalog_action
    from qiso.quantum_group import NoInvariantState
    qg = catalog_action("dual-d4-blocks").group
    delta = qg.delta.copy()
    delta[0, 0, 0] = np.nan
    with pytest.raises(NoInvariantState):
        haar_state(QuantumGroup(qg.algebra, delta, qg.epsilon, qg.kappa))


def test_kac_violation_rejected_at_load():
    from qiso.fileio import quantum_group_from_dict, quantum_group_to_dict
    from qiso.quantum_group import KacViolation
    qg = function_algebra_of_group(close_generators(3, [(1, 2, 0)]))
    doc = quantum_group_to_dict(qg)
    doc["kappa"][0][1] = 0.5  # antipode no longer involutive
    with pytest.raises(KacViolation):
        quantum_group_from_dict(doc)


def test_kac_star_violation_rejected_at_load():
    """kappa(e_a) = i e_b, kappa(e_b) = -i e_a on a pair of inverse group
    elements of Z3 is still involutive, but no longer commutes with *:
    kappa(e_a*) = i e_b while kappa(e_a)* = -i e_b.  The catalog groups
    load unchanged."""
    from qiso.catalog import standard_actions, standard_groups
    from qiso.fileio import quantum_group_from_dict, quantum_group_to_dict
    from qiso.quantum_group import KacViolation
    qg = function_algebra_of_group(close_generators(3, [(1, 2, 0)]))
    a, b = [a for a in range(qg.dim) if qg.kappa[a, a] == 0]
    doc = quantum_group_to_dict(qg)
    doc["kappa"][b][a], doc["kappa"][a][b] = [0.0, 1.0], [0.0, -1.0]
    with pytest.raises(KacViolation, match="does not commute with"):
        quantum_group_from_dict(doc)
    for group in standard_groups() + [e.action.group for e in standard_actions()]:
        assert quantum_group_from_dict(quantum_group_to_dict(group)) is not None
