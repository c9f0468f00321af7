"""Metamorphic tests: each isometry condition is a property of the action,
not of how it is presented, so no verdict may change when the points are
relabelled, when each block of the algebra is conjugated by a unitary
(with Delta, epsilon and kappa transported), when the action is saved to
its JSON document and loaded back (which keeps no group), when the metric
passes to floats, or when it is rescaled by 10^k for k in {-9, -3, 0, 3,
9}, exactly or in floats.

The population is the catalog and the first 40 random instances of the
tower-of-conditions population (`test_c07`).  Every transformed instance
must validate (its metric, quantum group and coaction) and give the
unscaled rational instance's
- six universal verdicts (D, main, Lip_inf, Lip_1, Lip_2, Lip_3), the
  verdict of the commutant form of (D) (`check_D_commutant_by_entry`)
  and injectivity;
- envelope dimension and killed blocks;
- the quantum group's pass, and the residuals its report names: a dual
  that lost its group takes the certificate of the group its Delta
  defines, as the original takes that of the group it keeps;
- per-state `check_lip_p_state` verdicts at two seeded states for
  p = 1, 2, 3 and inf, under the relabelling and the rescalings, which
  leave the algebra and so its states as they are.
A failing verdict's witness pair, mapped back to the original points,
must fail the same check there when the check visits that pair alone.
"""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from qiso.algebra import element_norms, random_state
from qiso.coaction import CoAction, verify_coaction
from qiso.envelope import envelope
from qiso.fileio import coaction_from_dict, coaction_to_dict
from qiso.isometry import (IsometryVerdict, check_D, check_injectivity,
                           check_lip_p_state, check_lip_p_universal,
                           check_theorem_main, check_winf_universal,
                           commutator_defects)
from qiso.metric import validate_metric
from qiso.quantum_group import QuantumGroup, verify_quantum_group
from qiso.reports import SearchConfig, build_instance, instance_descriptors

from oracles import check_D_commutant_by_entry, entry_tensor, scaled_twin

UNIVERSAL = [("D", check_D, ()), ("main", check_theorem_main, ()),
             ("Lip_inf", check_winf_universal, ())] + \
    [(f"Lip_{p}", check_lip_p_universal, (p,)) for p in (1, 2, 3)]
PS = (1, 2, 3, float("inf"))
STATE_SEEDS = (11, 12)


def relabel(action: CoAction, seed: int):
    """The action with point i renamed perm[i], for a seeded perm other than
    the identity; returns the twin and perm."""
    n = action.n
    perm = list(range(n))
    rng = random.Random(seed)
    while perm == sorted(perm):
        rng.shuffle(perm)
    inv = np.argsort(perm)
    dist = [[action.space.dist[inv[a]][inv[b]] for b in range(n)]
            for a in range(n)]
    u = [[action.u[inv[a]][inv[b]] for b in range(n)] for a in range(n)]
    return CoAction(action.group, validate_metric(dist), entry_tensor(u),
                    name=action.name), perm


def conjugate(action: CoAction, seed: int):
    """The action through the automorphism a -> W a W* of the algebra, W a
    seeded random unitary on each block.  On coefficient vectors (row-major
    matrix units) that is the unitary C = (+)_k W_k (x) conj(W_k); Delta,
    epsilon and kappa are transported through it."""
    rng = np.random.default_rng(seed)
    qg = action.group
    alg = qg.algebra
    C = np.zeros((alg.dim, alg.dim), dtype=complex)
    for off, b in zip(alg.offsets, alg.blocks):
        W, _ = np.linalg.qr(rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b)))
        C[off:off + b * b, off:off + b * b] = np.kron(W, W.conj())
    C_inv = C.conj().T
    group = QuantumGroup(alg, np.einsum("Bb,Gg,bgc,ca->BGa", C, C, qg.delta, C_inv),
                         qg.epsilon @ C_inv, C @ qg.kappa @ C_inv, name=qg.name)
    u = [[alg.from_vec(C @ e.vec()) for e in row] for row in action.u]
    return CoAction(group, action.space, entry_tensor(u), name=action.name), None


def file_twin(action: CoAction, seed: int):
    """The action saved to its JSON document and loaded back."""
    return coaction_from_dict(coaction_to_dict(action)), None


def rescale(k: int, float_mode: bool):
    def transform(action: CoAction, seed: int):
        return scaled_twin(action, Fraction(10) ** k, float_mode), None
    return transform


TRANSFORMS = {"relabel": relabel, "conjugate": conjugate, "file": file_twin}
TRANSFORMS.update({f"scale-1e{k}-{'float' if fm else 'rational'}": rescale(k, fm)
                   for k in (-9, -3, 0, 3, 9) for fm in (False, True)
                   if k or fm})


def _summary(action: CoAction, per_state: bool) -> dict:
    """Every compared verdict, keyed by check; universal and per-state
    entries keep their IsometryVerdict for the witness check."""
    out = {name: check(action, *args) for name, check, args in UNIVERSAL}
    out["D_commutant"] = check_D_commutant_by_entry(action,
                                                    action.space.tol).holds
    out["injective"] = check_injectivity(action)
    env = envelope(action)
    out["envelope"] = (env.dimension, sorted(env.ideal.included_blocks))
    if per_state:
        for s, seed in enumerate(STATE_SEEDS):
            psi = random_state(action.group.algebra, seed)
            for p in PS:
                out[("state", s, p)] = check_lip_p_state(action, psi, p)
    return out


def _holds(value):
    return getattr(value, "holds", value)


def _fails_at(action: CoAction, key, pair) -> bool:
    """Whether `action` fails the check `key` when it visits only `pair`."""
    if key == "D":
        residual = element_norms(action.group.algebra,
                                 commutator_defects(action))[pair]
        return residual > 1e-9 * float(action.space.max_distance)
    with mock.patch("qiso.isometry._state_pairs", lambda space: [pair]):
        if isinstance(key, tuple):
            _, s, p = key
            psi = random_state(action.group.algebra, STATE_SEEDS[s])
            return not check_lip_p_state(action, psi, p).holds
        _, check, args = next(c for c in UNIVERSAL if c[0] == key)
        return not check(action, *args).holds


@pytest.fixture(scope="module")
def population():
    """(instance, its summary) over the catalog and the first 40 random
    instances of the c07 population."""
    config = SearchConfig(random_actions=200, n_range=(3, 4), seed=777)
    descs = instance_descriptors(config)
    descs = [d for d in descs if d["source"] == "catalog"] + \
        [d for d in descs if d["source"] != "catalog"][:40]
    actions = [build_instance(d) for d in descs]
    return [(a, _summary(a, per_state=True)) for a in actions]


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_verdicts_do_not_depend_on_presentation(population, name):
    transform = TRANSFORMS[name]
    states_kept = name != "conjugate"
    mismatches, witnesses = [], 0
    for seed, (action, expected) in enumerate(population):
        twin, perm = transform(action, seed)
        if twin.group is not action.group:
            report = verify_quantum_group(twin.group)
            assert report.passed(1e-9), action.name
            assert list(report.residuals) == \
                list(verify_quantum_group(action.group).residuals), action.name
        assert verify_coaction(twin).passed(1e-9), action.name
        got = _summary(twin, per_state=states_kept)
        inv = list(range(action.n)) if perm is None else list(np.argsort(perm))
        for key, value in got.items():
            if _holds(value) != _holds(expected[key]):
                mismatches.append((action.name, key, _holds(expected[key])))
            elif isinstance(value, IsometryVerdict) and not value.holds:
                x, y = value.witness["pair"]
                witnesses += 1
                assert _fails_at(action, key, (int(inv[x]), int(inv[y]))), \
                    (action.name, key, value.witness["pair"])
    assert not mismatches, mismatches[:10]
    assert witnesses
