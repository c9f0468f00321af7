"""States as coefficient vectors: the samplers and the Haar state write
the vector directly, and the algebra owns its per-basis tables.  Both
must be bitwise what the per-block constructions give."""

import random

import numpy as np
import pytest

from qiso.algebra import FinDimCStarAlgebra, StateFunctional, extreme_state, random_state
from qiso.catalog import dihedral_group_algebra, standard_actions, standard_groups
from qiso.quantum_group import close_generators, function_algebra_of_group, haar_state

from oracles import (_star_index, extreme_state_by_blocks, haar_state_by_blocks,
                     random_state_by_blocks)

# all 1x1 blocks with K >= 8, where a sum of the weights in another
# order changes their last bits, and mixed block sizes in several orders
ALGEBRAS = [(1,) * 8, (1,) * 12, (1, 2, 3), (2, 1, 3, 2, 1), (1, 1, 2, 2, 3), (3,)]


def _bits(psi: StateFunctional):
    return (psi.as_vector().dtype, psi.as_vector().tobytes(),
            [(rho.shape, rho.dtype, rho.tobytes()) for rho in psi.densities])


def _hopf_groups():
    dihedral = [function_algebra_of_group(close_generators(
        m, [tuple((j + 1) % m for j in range(m)), tuple(-j % m for j in range(m))]),
        name=f"C(D{m})") for m in (3, 4, 6)]
    duals = [dihedral_group_algebra(m) for m in (4, 5, 6, 10)]
    return dihedral + duals + standard_groups() + \
        [entry.action.group for entry in standard_actions()]


def test_random_state_vectors_equal_the_per_block_sampler():
    """Over 300 seeds on each algebra, `random_state`'s vector and
    densities are bitwise those of the sampler that builds one density
    per block and concatenates them."""
    for blocks in ALGEBRAS:
        alg = FinDimCStarAlgebra(blocks)
        for seed in range(300):
            assert _bits(random_state(alg, seed)) == \
                _bits(random_state_by_blocks(alg, seed)), (blocks, seed)


def test_extreme_state_vectors_equal_the_per_block_state():
    rng = random.Random(3)
    for blocks in ALGEBRAS:
        alg = FinDimCStarAlgebra(blocks)
        for k, b in enumerate(blocks):
            for _ in range(5):
                xi = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(b)])
                xi /= np.linalg.norm(xi)
                assert _bits(extreme_state(alg, k, xi)) == \
                    _bits(extreme_state_by_blocks(alg, k, xi)), (blocks, k)


def test_haar_state_vector_equals_the_per_block_plancherel_trace():
    """The Haar state's vector, the unit's coefficients times n_k / dim,
    and its densities are bitwise those of the densities (n_k / dim) I."""
    groups = _hopf_groups()
    assert len(groups) >= 20
    for qg in groups:
        assert _bits(haar_state(qg).state) == _bits(haar_state_by_blocks(qg)), qg.name


def test_state_vectors_are_read_only_and_round_trip():
    """`as_vector()` is read-only whichever way the state was made, and
    the vector and the densities convert into each other bitwise;
    `from_vector` copies its input."""
    alg = FinDimCStarAlgebra((2, 1, 3))
    psi = random_state(alg, 4)
    made = [psi, extreme_state(alg, 2, np.ones(3) / np.sqrt(3)),
            haar_state(dihedral_group_algebra(4)).state,
            StateFunctional.from_vector(alg, psi.as_vector()),
            StateFunctional(alg, psi.densities)]
    for state in made:
        vec = state.as_vector()
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0
    for blocks in ALGEBRAS:
        alg = FinDimCStarAlgebra(blocks)
        for seed in range(20):
            psi = random_state(alg, seed)
            assert _bits(StateFunctional.from_vector(alg, psi.as_vector())) == _bits(psi)
            assert _bits(StateFunctional(alg, psi.densities)) == _bits(psi)
    source = np.array(random_state(alg, 1).as_vector())
    copied = StateFunctional.from_vector(alg, source)
    source[:] = 0
    assert _bits(copied) == _bits(random_state(alg, 1))


def test_algebra_owns_its_per_basis_tables():
    """`dim`, `unit_vector`, `basis_sizes` and `star_index` equal their
    per-block definitions bitwise, are read-only and are built once per
    algebra."""
    for blocks in ALGEBRAS + [(1,), (2, 2)]:
        alg = FinDimCStarAlgebra(blocks)
        assert alg.dim == sum(b * b for b in blocks)
        tables = {"unit_vector": alg.unit().vec(),
                  "basis_sizes": np.repeat(blocks, np.square(blocks)),
                  "star_index": _star_index(alg)}
        for name, want in tables.items():
            got = getattr(alg, name)
            assert got is getattr(alg, name), name
            assert not got.flags.writeable, name
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
