"""Independent checks of every output the benchmark times.

Each check returns None when the output is right and a one-line reason
otherwise.  The checks do not call the qiso procedures they judge:

- a permutation action passes all six conditions exactly when every
  group element, read off the magic unitary's 1x1 blocks, preserves d;
- a two-projection action must give the verdict pattern that the seed
  commit produced, stored in expected.json;
- a transport plan is checked by LP duality in exact arithmetic, and the
  float solvers against the exact values;
- a quantum group's axiom residuals must stay within 1e-10 and its Haar
  functional must be an invariant state;
- the envelope of a two-projection action on a block metric with one
  cross distance is the whole quantum group, because such an action
  satisfies (D): every defect sum_j d(y,j) u_xj - sum_j d(x,j) kappa(u_yj)
  vanishes when kappa fixes both projections.
"""

from __future__ import annotations

import json
import os

import numpy as np

ORDER = ["D", "main", "Lip_inf", "Lip_3", "Lip_2", "Lip_1"]
QG_TOL = 1e-10
COACTION_TOL = 1e-9
HAAR_TOL = 1e-9
FLOAT_REL_TOL = 1e-9

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def pattern(flags: dict) -> str:
    return "".join("T" if flags.get(c) is True else "F" if flags.get(c) is False
                   else "?" for c in ORDER)


def action_key(action) -> str:
    return f"{action.group.dim}|" + ";".join(
        ",".join(str(v) for v in row) for row in action.space.dist)


# ---------------------------------------------------------------------------
# permutation actions


def group_permutations(action):
    """The permutations g with u_ij = 1 on g's block exactly when g(j) = i,
    or None when some block is not 1x1 (a genuinely quantum action)."""
    if any(b != 1 for b in action.group.algebra.blocks):
        return None
    n = action.n
    perms = []
    for k in range(len(action.group.algebra.blocks)):
        g = [None] * n
        for i in range(n):
            for j in range(n):
                if abs(action.u[i][j].data[k][0, 0] - 1) < 1e-9:
                    g[j] = i
        if sorted(x for x in g if x is not None) != list(range(n)):
            raise ValueError(f"block {k} of {action.name} is not a permutation")
        perms.append(g)
    return perms


def permutation_action_isometric(action) -> bool:
    d = action.space.dist
    n = action.n
    return all(d[g[i]][g[j]] == d[i][j]
               for g in group_permutations(action)
               for i in range(n) for j in range(n))


def expected_pattern(action) -> str:
    if group_permutations(action) is not None:
        return "TTTTTT" if permutation_action_isometric(action) else "FFFFFF"
    return EXPECTED["patterns"].get(action_key(action), "no recorded pattern")


def check_verdict(record):
    """A classical (action, condition) decision against the oracle."""
    if record.error:
        return f"{record.label}: {record.error}"
    if record.value.holds != record.context["expected"]:
        return (f"{record.label}: verdict {record.value.holds}, "
                f"oracle {record.context['expected']}")
    return None


def check_catalog_record(record):
    """One verify_instance record from the catalog search report."""
    from qiso import reports
    if record.error:
        return f"{record.label}: {record.error}"
    inst = record.value
    if record.context.get("violations"):
        return f"{record.label}: tower violations {record.context['violations']}"
    if inst.get("state_consistency") is not True:
        return f"{record.label}: sampled states contradict a universal verdict"
    if not inst["quantum_group_residual"] <= QG_TOL:
        return f"{record.label}: quantum-group residual {inst['quantum_group_residual']}"
    want = expected_pattern(reports.build_instance(inst["descriptor"]))
    got = pattern(inst["conditions"])
    if got != want:
        return f"{record.label}: pattern {got}, oracle {want}"
    return None


# ---------------------------------------------------------------------------
# quantum groups, Haar states, envelopes


def haar_residual(qg, state) -> float:
    """How far `state` is from an invariant state of qg:
    (h (x) id)Delta(a) = h(a) 1 = (id (x) h)Delta(a) for every basis a,
    h Hermitian-positive on every block, h(1) = 1."""
    h = state.as_vector()
    unit = qg.unit_vec()
    left = np.einsum("bga,b->ga", qg.delta, h) - np.outer(unit, h)
    right = np.einsum("bga,g->ba", qg.delta, h) - np.outer(unit, h)
    worst = max(np.abs(left).max(), np.abs(right).max())
    trace = 0.0
    for rho in state.densities:
        worst = max(worst, np.abs(rho - rho.conj().T).max(),
                    -float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]))
        trace += float(np.trace(rho).real)
    return float(max(worst, abs(trace - 1)))


def check_hopf(record):
    if record.error:
        return f"{record.label}: {record.error}"
    if "group" in record.context:
        report, haar = record.value
        if not report.worst() <= QG_TOL:
            return f"{record.label}: axiom residuals {report.failing(QG_TOL)}"
        residual = haar_residual(record.context["group"], haar.state)
        if not residual <= HAAR_TOL:
            return f"{record.label}: Haar state residual {residual:.3e}"
        return None
    env = record.value
    qg_res = env.reports["quantum_group"].worst()
    co_res = env.reports["coaction"].worst()
    if not (qg_res <= QG_TOL and co_res <= COACTION_TOL):
        return f"{record.label}: quotient residuals {qg_res:.3e} / {co_res:.3e}"
    action = record.context["action"]
    if env.dimension != action.group.dim:
        return (f"{record.label}: envelope dimension {env.dimension} of a (D)-isometric "
                f"action on a {action.group.dim}-dimensional quantum group")
    return None


# ---------------------------------------------------------------------------
# transport


def transport_value(record):
    """The scalar a transport item computes (W_p^p, W1 or W_inf)."""
    if record.error:
        return record.error
    solver = record.context["solver"]
    if solver == "K":
        return record.value[0]
    if solver == "Winf":
        return record.value.r
    return record.value.value


def _marginal_error(plan, mu, nu):
    n = len(plan)
    if any(v < 0 for row in plan for v in row):
        return "negative plan entry"
    if any(sum(plan[i]) != mu.mass[i] for i in range(n)):
        return "row sums differ from mu"
    if any(sum(plan[i][j] for i in range(n)) != nu.mass[j] for j in range(n)):
        return "column sums differ from nu"
    return None


def _check_exact_wp(res, data, p):
    d = data["space"].dist
    n = len(d)
    cost = [[v ** p for v in row] for row in d]
    plan = res.plan.plan
    err = _marginal_error(plan, data["mu"], data["nu"])
    if err:
        return err
    primal = sum(cost[i][j] * plan[i][j] for i in range(n) for j in range(n))
    f, g = res.duals.f, res.duals.g
    if any(f[i] + g[j] > cost[i][j] for i in range(n) for j in range(n)):
        return "dual potentials infeasible"
    dual = sum(m * v for m, v in zip(data["mu"].mass, f)) + \
        sum(m * v for m, v in zip(data["nu"].mass, g))
    if not (primal == dual == res.value):
        return f"primal {primal}, dual {dual}, reported {res.value}"
    return None


def _check_exact_k(value, witness, data, w1):
    d = data["space"].dist
    n = len(d)
    if any(witness[i] - witness[j] > d[i][j] for i in range(n) for j in range(n)):
        return "Kantorovich witness is not 1-Lipschitz"
    pairing = sum((m - v) * f for m, v, f in
                  zip(data["mu"].mass, data["nu"].mass, witness))
    if pairing != value:
        return f"witness attains {pairing}, reported {value}"
    if value != w1:
        return f"Kantorovich value {value} differs from W1 {w1}"
    return None


def _check_exact_winf(res, data):
    space, mu, nu = data["space"], data["mu"], data["nu"]
    d = space.dist
    n = len(d)
    r = res.r
    plan = res.plan.plan
    err = _marginal_error(plan, mu, nu)
    if err:
        return err
    if any(plan[i][j] != 0 and d[i][j] > r for i in range(n) for j in range(n)):
        return "plan uses a pair beyond r"
    below = [v for v in space.realized_distances if v < r]
    if not below:
        return None if mu.mass == nu.mass else "r = 0 with mu != nu"
    r_prev = max(below)
    S = res.lower_violator
    if not S:
        return "no lower infeasibility witness"
    reach = {j for i in S for j in range(n) if d[i][j] <= r_prev}
    if not sum(mu.mass[i] for i in S) > sum(nu.mass[j] for j in reach):
        return "lower witness does not certify infeasibility"
    return None


def check_transport(records):
    exact = {(r.context["problem"], r.context["solver"]): r
             for r in records if r.context["mode"] == "exact"}
    out = []
    for rec in records:
        if rec.error:
            out.append(f"{rec.label}: {rec.error}")
            continue
        ctx = rec.context
        key = (ctx["problem"], ctx["solver"])
        if ctx["mode"] == "exact":
            solver = ctx["solver"]
            if solver in ("W1", "W2"):
                err = _check_exact_wp(rec.value, ctx["data"], int(solver[1]))
            elif solver == "K":
                w1 = exact.get((ctx["problem"], "W1"))
                err = _check_exact_k(*rec.value, ctx["data"],
                                     None if w1 is None else transport_value(w1))
            else:
                err = _check_exact_winf(rec.value, ctx["data"])
        else:
            ref = exact.get(key)
            if ref is None or ref.error:
                err = "no exact reference"
            else:
                a, b = float(transport_value(rec)), float(transport_value(ref))
                err = None if abs(a - b) <= FLOAT_REL_TOL * max(abs(b), 1e-300) \
                    else f"float {a!r} vs exact {b!r}"
        out.append(None if err is None else f"{rec.label}: {err}")
    return out
