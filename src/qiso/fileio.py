"""JSON readers and writers for the on-disk formats.

Scalars: a bare number, a rational as a "p/q" string, or a complex number
as a two-element [re, im] list whose parts may themselves be rationals.
Quantum-group files may present their structure maps over any element
basis; loading converts to the canonical matrix-unit basis.  Every reader
checks the JSON type and shape of the fields it reads and raises
ValueError (or ShapeMismatch for a size that disagrees with another
field) naming the field, so that a mistyped file is invalid input.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

import numpy as np

from .algebra import AlgElement, FinDimCStarAlgebra, StateFunctional
from .coaction import CoAction
from .errors import QisoError, ShapeMismatch
from .metric import FiniteMetricSpace, PairSet, validate_metric
from .quantum_group import QuantumGroup, require_kac
from .scalars import FLOAT, RATIONAL, format_scalar, parse_scalar
from .transport import ProbVector, prob_vector


def read_json_object(path: str) -> dict:
    """The JSON document at `path`, which must be an object: every input
    file format is one, so a bare list or scalar is invalid input."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, "
                         f"got {type(doc).__name__}")
    return doc


def _array(value, what: str, length: Optional[int] = None) -> list:
    """value, which must be a JSON array, of `length` entries if given."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    if length is not None and len(value) != length:
        raise ShapeMismatch(f"{what} must have {length} entries, got {len(value)}")
    return value


def _matrix(value, what: str, rows: Optional[int] = None,
            cols: Optional[int] = None) -> list:
    """value, which must be a JSON array of arrays, rows x cols if given."""
    for i, row in enumerate(_array(value, what, rows)):
        _array(row, f"{what}[{i}]", cols)
    return value


def _is_int(value) -> bool:
    """Whether a JSON value is an integer (a boolean is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _name(doc: dict) -> str:
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    return name


def parse_complex(value) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise QisoError(f"complex scalar needs [re, im], got {value!r}")
        return complex(float(parse_scalar(value[0], FLOAT)),
                       float(parse_scalar(value[1], FLOAT)))
    return complex(float(parse_scalar(value, FLOAT)), 0.0)


def format_complex(z: complex):
    if abs(z.imag) == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# metric spaces and distributions


def space_to_dict(space: FiniteMetricSpace) -> dict:
    out = {"n": space.n,
           "dist": [[format_scalar(v) for v in row] for row in space.dist],
           "mode": space.mode}
    if space.labels:
        out["labels"] = list(space.labels)
    return out


def space_from_dict(doc: dict, tol: Optional[float] = None) -> FiniteMetricSpace:
    mode = doc.get("mode", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"mode must be {RATIONAL!r} or {FLOAT!r}, got {mode!r}")
    matrix = [[parse_scalar(v, mode) for v in row]
              for row in _matrix(doc["dist"], "dist")]
    if "n" in doc and doc["n"] != len(matrix):
        raise ShapeMismatch("declared n differs from the matrix size")
    labels = doc.get("labels")
    if labels is not None and not all(
            isinstance(label, str) for label in _array(labels, "labels")):
        raise ValueError("labels must be strings")
    return validate_metric(matrix, tolerance=tol, labels=labels, mode=mode)


def load_space(path: str, tol: Optional[float] = None) -> FiniteMetricSpace:
    return space_from_dict(read_json_object(path), tol=tol)


def distribution_from_dict(doc: dict, mode: str = RATIONAL, *, tol: float,
                           field: str = "mass") -> ProbVector:
    """The distribution in the array doc[field] ("mass" in a distribution
    file; "mu" and "nu" in a Hall instance)."""
    return prob_vector([parse_scalar(v, mode) for v in _array(doc[field], field)],
                       tol=tol)


def load_distribution(path: str, mode: str = RATIONAL, *,
                      tol: float) -> ProbVector:
    return distribution_from_dict(read_json_object(path), mode=mode, tol=tol)


def pairs_from_dict(doc: dict, n: int) -> PairSet:
    """The pair set in doc["pairs"], an array of [i, j] point indices
    below n."""
    pairs = _array(doc["pairs"], "pairs")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_int(i) and 0 <= i < n for i in pair)):
            raise ValueError(f"pairs: expected [i, j] with 0 <= i, j < {n}, "
                             f"got {pair!r}")
    return PairSet.from_pairs(n, [tuple(pair) for pair in pairs])


# ---------------------------------------------------------------------------
# quantum groups


def _element_to_json(elem: AlgElement) -> list:
    return [[[format_complex(v) for v in row] for row in mat]
            for mat in elem.data]


def _blocks_from_json(alg: FinDimCStarAlgebra, doc, what: str) -> tuple:
    """One b x b complex matrix per block of alg, from a JSON array."""
    data = []
    for k, (mat, b) in enumerate(zip(_array(doc, what, len(alg.blocks)),
                                     alg.blocks)):
        data.append(np.array([[parse_complex(v) for v in row]
                              for row in _matrix(mat, f"{what}[{k}]", b, b)]))
    return tuple(data)


def quantum_group_to_dict(qg: QuantumGroup) -> dict:
    """Serialized over the canonical matrix-unit basis."""
    alg = qg.algebra
    dim = alg.dim
    basis = [_element_to_json(alg.basis_element(a)) for a in range(dim)]
    delta = [[format_complex(qg.delta[b, g, a]) for a in range(dim)]
             for b in range(dim) for g in range(dim)]
    return {"blocks": list(alg.blocks),
            "basis": basis,
            "delta": delta,
            "epsilon": [format_complex(v) for v in qg.epsilon],
            "kappa": [[format_complex(v) for v in row] for row in qg.kappa],
            "name": qg.name}


def _group_and_basis(doc: dict) -> Tuple[QuantumGroup, np.ndarray]:
    """(QuantumGroup, B): the group over the matrix-unit basis, checked to
    be of Kac type, and the invertible B whose column a is the file's
    basis element a over it."""
    blocks = _array(doc["blocks"], "blocks")
    if not all(_is_int(b) and b >= 1 for b in blocks):
        raise ValueError("blocks must be block sizes, integers >= 1")
    alg = FinDimCStarAlgebra(tuple(blocks))
    dim = alg.dim
    basis = _array(doc["basis"], "basis")
    if len(basis) != dim:
        raise ShapeMismatch(f"need {dim} basis elements, got {len(basis)}")
    B = np.column_stack([np.concatenate([m.ravel() for m in _blocks_from_json(
        alg, b, "basis element")]) for b in basis])
    if np.linalg.matrix_rank(B) < dim:
        raise ShapeMismatch("basis elements are linearly dependent")
    Binv = np.linalg.inv(B)

    delta_rows = _matrix(doc["delta"], "delta", dim * dim, dim)
    D_file = np.array([[parse_complex(v) for v in row] for row in delta_rows])
    D3_file = D_file.reshape(dim, dim, dim)
    D3 = np.einsum("cb,dg,bga,ae->cde", B, B, D3_file, Binv, optimize=True)
    epsilon = np.array([parse_complex(v)
                        for v in _array(doc["epsilon"], "epsilon", dim)]) @ Binv
    K_file = np.array([[parse_complex(v) for v in row]
                       for row in _matrix(doc["kappa"], "kappa", dim, dim)])
    kappa = B @ K_file @ Binv
    qg = QuantumGroup(alg, D3, epsilon, kappa, name=_name(doc))
    require_kac(qg)
    return qg, B


def quantum_group_from_dict(doc: dict) -> QuantumGroup:
    return _group_and_basis(doc)[0]


def save_quantum_group(path: str, qg: QuantumGroup) -> None:
    with open(path, "w") as fh:
        json.dump(quantum_group_to_dict(qg), fh, indent=1)


# ---------------------------------------------------------------------------
# coactions and states


def coaction_to_dict(action: CoAction) -> dict:
    """The coaction document with its group and space documents inline."""
    u = [[[format_complex(v) for v in vec] for vec in row] for row in action.coeffs]
    return {"u": u, "name": action.name,
            "group": quantum_group_to_dict(action.group),
            "space": space_to_dict(action.space)}


def save_coaction(path: str, action: CoAction) -> None:
    """Write the coaction file; group and space go to sibling files
    referenced by relative path (`coaction_to_dict` gives the document
    with both inline)."""
    import os
    doc = coaction_to_dict(action)
    stem = path[:-5] if path.endswith(".json") else path
    for field in ("group", "space"):
        with open(f"{stem}.{field}.json", "w") as fh:
            json.dump(doc[field], fh, indent=1)
        doc[field] = f"{os.path.basename(stem)}.{field}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def coaction_from_dict(doc: dict, base_dir: str = ".",
                       tol: Optional[float] = None) -> CoAction:
    import os
    docs = []
    for field in ("group", "space"):
        sub = doc[field]
        if isinstance(sub, str):
            sub = read_json_object(os.path.join(base_dir, sub))
        elif not isinstance(sub, dict):
            raise ValueError(f"{field} must be a file name or a JSON object")
        docs.append(sub)
    group_doc, space_doc = docs
    qg, B = _group_and_basis(group_doc)
    space = space_from_dict(space_doc, tol=tol)
    n = space.n
    u_doc = _matrix(doc["u"], "u", n, n)
    u = [[[parse_complex(v) for v in _array(u_doc[i][j], f"u[{i}][{j}]", qg.dim)]
          for j in range(n)] for i in range(n)]
    return CoAction(qg, space, np.array(u, dtype=complex) @ B.T, name=_name(doc))


def load_coaction(path: str, tol: Optional[float] = None) -> CoAction:
    import os
    return coaction_from_dict(read_json_object(path),
                              base_dir=os.path.dirname(path) or ".", tol=tol)


def state_from_dict(doc: dict, alg: FinDimCStarAlgebra) -> StateFunctional:
    return StateFunctional(alg, _blocks_from_json(alg, doc["densities"],
                                                  "densities"))


def load_state(path: str, alg: FinDimCStarAlgebra) -> StateFunctional:
    return state_from_dict(read_json_object(path), alg)


def state_to_dict(psi: StateFunctional) -> dict:
    return {"densities": [[[format_complex(v) for v in row] for row in mat]
                          for mat in psi.densities]}
