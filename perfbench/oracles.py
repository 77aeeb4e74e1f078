"""Independent oracles for the benchmark's correctness checks.

Everything here is written with numpy and scipy alone and never imports
``centralizer_lab``: the conventions are re-derived from the mathematics,
not read from the library.

* sl_n conventions: xi is the unit subdiagonal, eta = sum_i i (n - i) E_{i,i+1},
  the Kostant section is xi + span(eta, ..., eta^{n-1}), the pairing is the
  trace form and f_i(x) = tr(x^{i+1}) / (i + 1) for i = 1 .. n - 1.
* Toda flows: the closed Lax form dx/dt = [(x^i)_{>0}, x] of the i-th flow
  (Kostant 1979, Adv. Math. 34; Symes 1982, Physica D 4), integrated with
  ``scipy.integrate.solve_ivp`` over a whole batch of points at once.
* The chart: exp(sum_i lam_i grad f_i(s)) at a section point s.  Its
  pullback of the symplectic form is evaluated with exact derivatives
  (``scipy.linalg.expm_frechet``), not finite differences.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

CHAMBER_GAP = 1e-9


def xi(n: int) -> np.ndarray:
    return np.eye(n, k=-1, dtype=complex)


def eta_powers(n: int) -> list:
    """eta, eta^2, ..., eta^(n-1)."""
    eta = np.diag(np.array([i * (n - i) for i in range(1, n)], dtype=complex), k=1)
    out, p = [], np.eye(n, dtype=complex)
    for _ in range(n - 1):
        p = p @ eta
        out.append(p)
    return out


def toda_matrix(diag, root_coords) -> np.ndarray:
    """xi + diag + superdiagonal."""
    diag = np.asarray(diag, dtype=complex)
    return xi(diag.size) + np.diag(diag) + np.diag(np.asarray(root_coords, dtype=complex), k=1)


def real_part_gap(x: np.ndarray) -> float:
    """Smallest distance between the real parts of the eigenvalues of x."""
    re = np.sort(np.linalg.eigvals(x).real)
    return float(np.min(np.diff(re)))


def in_flow_domain(x: np.ndarray, eps: float = CHAMBER_GAP) -> bool:
    return real_part_gap(x) > eps


def invariants(x: np.ndarray) -> np.ndarray:
    """(tr x^2 / 2, ..., tr x^n / n) from trace powers."""
    n = x.shape[-1]
    out, p = [], x
    for k in range(2, n + 1):
        p = p @ x
        out.append(np.trace(p, axis1=-2, axis2=-1) / k)
    return np.stack(out, axis=-1)


def gradient(x: np.ndarray, i: int) -> np.ndarray:
    """Trace-form dual of d f_i at x: x^i - tr(x^i) / n."""
    n = x.shape[0]
    p = np.linalg.matrix_power(x, i)
    return p - np.trace(p) / n * np.eye(n)


def section_residual(x: np.ndarray) -> float:
    """Distance of x - xi from span(eta^k), relative to 1 + |x|."""
    n = x.shape[0]
    basis = np.stack([b.ravel() for b in eta_powers(n)], axis=1)
    target = (x - xi(n)).ravel()
    coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return float(np.linalg.norm(basis @ coeffs - target) / (1.0 + np.linalg.norm(x)))


def stabilizer_residual(g: np.ndarray, x: np.ndarray) -> float:
    """|g x g^-1 - x| relative to |x|."""
    return float(np.linalg.norm(g @ x - x @ g) / (np.linalg.norm(g) * np.linalg.norm(x)))


class _PoleNearby(Exception):
    """The trajectory needs more right-hand-side evaluations than allowed."""


def _integrate(x0: np.ndarray, i: int, legs: np.ndarray, max_rhs: int) -> np.ndarray:
    """Follow dx/dtau = [(x^i)_{>0}, x] along straight legs in complex time.

    ``legs`` has one row per leg and one column per point: the time step of
    that leg for that point.  Each leg is integrated in s in [0, 1].
    """
    import scipy.integrate  # only the checks need it, not the set-up probe

    shape = x0.shape
    above = np.triu(np.ones(shape[-2:]), 1)
    y = x0.ravel()
    calls = 0
    for step in legs:
        dt = step.reshape(-1, 1, 1)

        def rhs(_s, flat, dt=dt):
            nonlocal calls
            calls += 1
            if calls > max_rhs:
                raise _PoleNearby
            x = flat.reshape(shape)
            power = x
            for _ in range(i - 1):
                power = power @ x
            upper = power * above
            return (dt * (upper @ x - x @ upper)).ravel()

        sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), y, method="DOP853",
                                        rtol=1e-12, atol=1e-13)
        if not sol.success:
            raise RuntimeError(f"Lax oracle did not integrate: {sol.message}")
        y = sol.y[:, -1]
    return y.reshape(shape)


def lax_flow(x0: np.ndarray, i: int, t: np.ndarray, chunk: int = 16,
             max_rhs: int = 1500) -> np.ndarray:
    """x_k(t_k) for a stack x0 of shape (m, n, n) under dx/dt = [(x^i)_{>0}, x].

    Chunks of points are integrated as one system along the real segment
    [0, t_k].  A complex Toda trajectory can pass close to a pole at real
    time; a chunk that needs more than ``max_rhs`` evaluations is redone
    point by point, along the real segment and then along the detours
    0 -> t/2 +- i|t|/2 -> t, with a larger budget once all three failed.  The solution is
    meromorphic in complex time, so every path that avoids the poles reaches
    the same value.
    """
    x0 = np.asarray(x0, dtype=complex)
    t = np.asarray(t, dtype=complex)
    out = np.empty_like(x0)
    for a in range(0, len(x0), chunk):
        part = slice(a, a + chunk)
        try:
            out[part] = _integrate(x0[part], i, t[None, part], max_rhs)
            continue
        except _PoleNearby:
            pass
        for k in range(a, min(a + chunk, len(x0))):
            out[k] = _detoured(x0[k:k + 1], i, t[k], max_rhs)[0]
    return out


def _detoured(x0: np.ndarray, i: int, t: complex, max_rhs: int) -> np.ndarray:
    paths = [[t]] + [[t / 2 + sign * 0.5j * abs(t), t / 2 - sign * 0.5j * abs(t)]
                     for sign in (1, -1)]
    for cap in (max_rhs, 50 * max_rhs):
        for legs in paths:
            try:
                return _integrate(x0, i, np.array(legs).reshape(-1, 1), cap)
            except _PoleNearby:
                continue
    raise RuntimeError(f"Lax oracle found no pole-free path to t={t}")


def symplectic_matrix(x: np.ndarray, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """<y_a, z_b> - <y_b, z_a> + <x, [y_a, y_b]> with the trace form, for
    every pair of the left-trivialized tangent vectors (ys[a], zs[a])."""
    yz = np.einsum("aij,bji->ab", ys, zs)
    xyy = np.einsum("ij,ajk,bki->ab", x, ys, ys)
    return yz - yz.T + xyy - xyy.T


def chart(lam, s: np.ndarray) -> np.ndarray:
    """Group part of the chart: exp(sum_i lam_i grad f_i(s))."""
    total = sum(li * gradient(s, i) for i, li in enumerate(lam, start=1))
    return scipy.linalg.expm(total)


def _gradient_derivative(s: np.ndarray, i: int, v: np.ndarray) -> np.ndarray:
    """d/de of grad f_i(s + e v) at e = 0."""
    n = s.shape[0]
    powers = [np.linalg.matrix_power(s, a) for a in range(i)]
    d = sum(powers[a] @ v @ powers[i - 1 - a] for a in range(i))
    return d - np.trace(d) / n * np.eye(n)


def cjl_pullback_blocks(lam, s: np.ndarray) -> tuple:
    """Deviations (flow-flow, flow-section, section-section) of the chart
    pullback of the symplectic form from sum(dz_i ^ df_i), with exact
    derivatives.

    The flow directions are (grad f_i(s), 0), because the gradients commute.
    The section directions move s along the coordinate fields v_j of span(eta^k)
    with d f_i(v_j) = delta_ij; their group part is g^-1 times the Frechet
    derivative of exp at the exponent in the direction of its derivative.
    """
    lam = np.asarray(lam, dtype=complex)
    r = lam.size
    etas = np.stack(eta_powers(r + 1))
    grads = np.stack([gradient(s, i) for i in range(1, r + 1)])
    gram = np.einsum("iab,kba->ik", grads, etas)
    fields = np.einsum("kj,kab->jab", np.linalg.inv(gram), etas)
    exponent = np.einsum("i,iab->ab", lam, grads)
    g = scipy.linalg.expm(exponent)
    section_ys = []
    for v in fields:
        d_exponent = sum(lam[i - 1] * _gradient_derivative(s, i, v) for i in range(1, r + 1))
        _, d_g = scipy.linalg.expm_frechet(exponent, d_exponent)
        section_ys.append(np.linalg.solve(g, d_g))
    ys = np.concatenate([grads, np.stack(section_ys)])
    zs = np.concatenate([np.zeros_like(grads), fields])
    omega = symplectic_matrix(s, ys, zs)
    return (float(np.abs(omega[:r, :r]).max()),
            float(np.abs(omega[:r, r:] - np.eye(r)).max()),
            float(np.abs(omega[r:, r:]).max()))


def self_test() -> None:
    """Check the oracles against closed forms; raise AssertionError if off.

    * sl_2 Toda from diag (0, 0), root coordinate 1: at time t the point is
      (tanh t, -tanh t) with root coordinate cosh(t)^-2.
    * The chart pullback at a random n = 3 point has exact blocks 0, delta, 0.
    """
    times = np.array([1.0, -0.5, 0.25])
    x0 = np.repeat(toda_matrix([0.0, 0.0], [1.0])[None], times.size, axis=0)
    xt = lax_flow(x0, 1, times)
    for x, t in zip(xt, times):
        expected = toda_matrix([np.tanh(t), -np.tanh(t)], [np.cosh(t) ** -2])
        err = np.linalg.norm(x - expected)
        if err > 1e-10:
            raise AssertionError(f"sl_2 Lax oracle off by {err:.3e} at t={t}")
    if not np.allclose(invariants(xt), invariants(x0), rtol=0, atol=1e-10):
        raise AssertionError("sl_2 Lax oracle does not conserve the invariant")

    rng = np.random.default_rng(0)
    s = xi(3) + sum(c * e for c, e in zip(rng.uniform(-0.3, 0.3, 2), eta_powers(3)))
    if section_residual(s) > 1e-14 or section_residual(s + np.diag([1.0, -1.0, 0.0])) < 1e-3:
        raise AssertionError("section membership oracle misclassifies")
    g = chart([0.3, -0.2], s)
    if stabilizer_residual(g, s) > 1e-12:
        raise AssertionError("chart group part does not centralize s")
    if max(cjl_pullback_blocks([0.3, -0.2], s)) > 1e-10:
        raise AssertionError("chart pullback oracle misses sum(dz_i ^ df_i)")
