"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import functools
import json
import time

import numpy as np
import pytest

from centralizer_lab import linalg
from centralizer_lab.centralizer import (
    CJLPoint,
    ZPoint,
    cjl_pullback_deviation,
    flow_step,
    moment_preimage_report,
    z_invariants,
)
from centralizer_lab.cli import main
from centralizer_lab.errors import NotInGStar
from centralizer_lab.invariants import (
    invariant_gradients,
    invariant_vector,
    section_from_invariants,
)
from centralizer_lab.kostant_maps import (
    chamber_conjugator,
    chamber_form,
    chamber_to_section_conjugator,
    conjugate_section,
    decompose_to_section,
    dress,
    stabilizer_lift,
)
from centralizer_lab.lie_core import (
    adjoint,
    build_chevalley,
    group_equal,
    scalar_aligned_distance,
)
from centralizer_lab.sampling import (
    complex_uniform,
    random_group_element,
    random_section_point,
    random_stabilizer_element,
    sample_flow_domain,
    stream,
)
from centralizer_lab.toda import (
    embed,
    embed_inverse,
    intertwine_check,
    intertwine_infinitesimal,
    make_toda_point,
    rk4_toda,
    toda_flow,
    toda_matrix,
)

FLIP2 = np.array([[0.0, 1.0], [1.0, 0.0]])
RANKS = (2, 3, 4)


def _report(name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {status}  {name}: {detail}")


def _warmup():
    chev = build_chevalley(2)
    linalg.mat_exp(np.eye(2))
    linalg.eig(FLIP2)
    return chev


@functools.lru_cache(maxsize=None)
def _domain_samples(n: int, count: int):
    """Shared seeded sample set; criteria 2 and 3 use the same points."""
    chev = build_chevalley(n)
    rng = stream(42, f"acceptance-domain-{n}")
    return tuple(sample_flow_domain(chev, rng) for _ in range(count))


def test_criterion_1_golden_table():
    chev = _warmup()
    golden = make_toda_point([0.0, 0.0], [1.0])
    x0 = toda_matrix(chev, golden)
    start = time.perf_counter()

    dev = linalg.norm(chamber_form(chev, x0) - np.array([[1.0, 0.0], [1.0, -1.0]]))
    dev = max(dev, linalg.norm(chamber_conjugator(chev, x0)
                               - np.array([[1.0, -1.0], [0.0, 1.0]])))
    dev = max(dev, linalg.norm(chamber_to_section_conjugator(chev, x0)
                               - np.array([[1.0, -1.0], [0.0, 1.0]])))
    dev = max(dev, linalg.norm(stabilizer_lift(chev, x0)
                               - np.array([[1.0, 0.0], [1.0, -1.0]])))
    zp = embed(chev, golden)
    dev = max(dev, scalar_aligned_distance(zp.g, FLIP2))
    dev = max(dev, linalg.norm(zp.x - FLIP2))
    for t in (0.25, 1.0, 2.0):
        pt = toda_flow(chev, 1, t, golden)
        dev = max(dev, abs(pt.diag[0] - np.tanh(t)),
                  abs(pt.diag[1] + np.tanh(t)),
                  abs(pt.root_coords[0] - np.cosh(t) ** -2))

    elapsed = time.perf_counter() - start
    passed = dev <= 1e-10 and elapsed < 1.0
    _report("criterion 1 (sl2 golden table)", passed,
            f"max_dev={dev:.3e} tol=1e-10, elapsed={elapsed:.2f}s < 1s")
    assert passed


def test_criterion_2_conservation():
    start = time.perf_counter()
    worst = 0.0
    blowups = 0
    total = 0
    for n in RANKS:
        chev = build_chevalley(n)
        for p in _domain_samples(n, 100):
            x0 = toda_matrix(chev, p)
            base = invariant_vector(chev, x0)
            eig0 = np.sort_complex(linalg.eig(x0)[0])
            for i in range(1, chev.r + 1):
                for t in (0.1, 0.7):
                    total += 1
                    try:
                        xt = toda_matrix(chev, toda_flow(chev, i, t, p))
                    except NotInGStar:
                        blowups += 1  # logged; real-time completeness not asserted
                        continue
                    dev_f = np.linalg.norm(invariant_vector(chev, xt) - base)
                    worst = max(worst, dev_f / (1.0 + np.linalg.norm(base)))
                    eig_t = np.sort_complex(linalg.eig(xt)[0])
                    worst = max(worst, float(np.max(np.abs(eig_t - eig0))))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and elapsed < 20.0 and blowups <= 0.05 * total
    _report("criterion 2 (conservation, n=2..4)", passed,
            f"max_dev={worst:.3e} tol=1e-8, blowups={blowups}/{total}, "
            f"elapsed={elapsed:.1f}s < 20s")
    assert passed


def test_criterion_3_embedding_commutes_with_invariants():
    worst = 0.0
    for n in RANKS:
        chev = build_chevalley(n)
        for p in _domain_samples(n, 100):
            base = invariant_vector(chev, toda_matrix(chev, p))
            dev = np.linalg.norm(z_invariants(chev, embed(chev, p)) - base)
            worst = max(worst, float(dev))
    passed = worst <= 1e-9
    _report("criterion 3 (triangle: invariants through the embedding)", passed,
            f"max_dev={worst:.3e} tol=1e-9 on 300 samples")
    assert passed


def test_criterion_4_intertwining():
    worst_flow = 0.0
    worst_inf = 0.0
    skipped = 0
    times = [0.9, -0.6, 0.25, 0.3 + 0.2j]
    for n in RANKS:
        chev = build_chevalley(n)
        rng = stream(42, f"acceptance-intertwine-{n}")
        for k in range(100):
            p = sample_flow_domain(chev, rng)
            i = 1 + (k % chev.r)
            t = times[k % len(times)]
            try:
                worst_flow = max(worst_flow, intertwine_check(chev, i, t, p))
            except NotInGStar:
                skipped += 1  # complex-time blow-up: both sides undefined
            if k % 5 == 0:
                worst_inf = max(worst_inf, intertwine_infinitesimal(chev, i, p))
    passed = worst_flow <= 1e-7 and worst_inf <= 1e-5 and skipped <= 15
    _report("criterion 4 (Hamiltonian intertwining)", passed,
            f"flow max_dev={worst_flow:.3e} tol=1e-7, "
            f"infinitesimal max_dev={worst_inf:.3e} tol=1e-5, skipped={skipped}")
    assert passed


def test_criterion_5_moment_preimage():
    all_pass = True
    details = []
    for n in RANKS:
        chev = build_chevalley(n)
        rng = stream(42, f"acceptance-preimage-{n}")
        points = []
        for _ in range(100):
            s = random_section_point(chev, rng)
            points.append((random_stabilizer_element(chev, rng, s), s))
            points.append((random_group_element(chev, rng), s))
        report = moment_preimage_report(chev, *map(np.array, zip(*points)))
        ok = (report.mismatches == 0 and report.total == 200
              and report.max_member_residual <= 1e-9)
        all_pass = all_pass and ok
        details.append(f"n={n}: {report.centralizer_members}/200 members, "
                       f"residual={report.max_member_residual:.2e}")
    _report("criterion 5 (centralizer = moment preimage)", all_pass,
            "; ".join(details) + ", tol=1e-9")
    assert all_pass


def test_criterion_6_cjl_pullback():
    all_pass = True
    details = []
    for n in RANKS:
        chev = build_chevalley(n)
        rng = stream(42, f"acceptance-cjl-{n}")
        tol = 1e-5 if n <= 3 else 1e-4
        blocks = [0.0, 0.0, 0.0]
        for _ in range(20):
            s = random_section_point(chev, rng, scale=0.8)
            lam = np.array([complex_uniform(rng, ()) * (0.4 / max(1.0, linalg.norm(g)))
                            for g in invariant_gradients(chev, s)])
            res = cjl_pullback_deviation(chev, CJLPoint(lam=lam, s=s))
            blocks[0] = max(blocks[0], res.flow_flow)
            blocks[1] = max(blocks[1], res.flow_section)
            blocks[2] = max(blocks[2], res.section_section)
        ok = max(blocks) <= tol
        all_pass = all_pass and ok
        details.append(f"n={n}: blocks=({blocks[0]:.2e}, {blocks[1]:.2e}, "
                       f"{blocks[2]:.2e}) tol={tol:.0e}")
    _report("criterion 6 (chart pullback of the symplectic form)", all_pass,
            "; ".join(details))
    assert all_pass


def test_criterion_7_level_sets():
    chev = build_chevalley(3)
    rng = stream(42, "acceptance-levels")
    exact_agree = True
    min_separation = np.inf
    for _ in range(50):
        s = random_section_point(chev, rng)
        p1 = ZPoint(g=random_stabilizer_element(chev, rng, s), x=s)
        p2 = ZPoint(g=random_stabilizer_element(chev, rng, s), x=s)
        if not np.array_equal(z_invariants(chev, p1), z_invariants(chev, p2)):
            exact_agree = False
    for _ in range(50):
        z1 = complex_uniform(rng, (chev.r,))
        z2 = complex_uniform(rng, (chev.r,))
        if np.linalg.norm(z1 - z2) <= 1e-6:
            continue
        x1 = section_from_invariants(chev, z1)
        x2 = section_from_invariants(chev, z2)
        gap = np.linalg.norm(z_invariants(chev, ZPoint(g=np.eye(3), x=x1))
                             - z_invariants(chev, ZPoint(g=np.eye(3), x=x2)))
        min_separation = min(min_separation, float(gap))
    passed = exact_agree and min_separation > 1e-6
    _report("criterion 7 (level sets are the fibers over x)", passed,
            f"equal-x pairs agree exactly: {exact_agree}; "
            f"distinct-x min separation={min_separation:.3e} > 1e-6")
    assert passed


def test_criterion_8_roundtrips():
    worst = 0.0
    for n in RANKS:
        chev = build_chevalley(n)
        rng = stream(42, f"acceptance-roundtrip-{n}")
        done = 0
        while done < 100:
            p = sample_flow_domain(chev, rng)
            x = toda_matrix(chev, p)
            # section decomposition, both orders
            dec = decompose_to_section(chev, x)
            worst = max(worst, linalg.norm(adjoint(dec.u, dec.s) - x)
                        / (1 + linalg.norm(x)))
            redec = decompose_to_section(chev, conjugate_section(chev, dec.u, dec.s))
            worst = max(worst, linalg.norm(redec.u - dec.u) / (1 + linalg.norm(dec.u)))
            # stabilizer lift against dressing, both directions
            theta_x = chamber_form(chev, x)
            lift = stabilizer_lift(chev, x)
            worst = max(worst, linalg.norm(dress(chev, theta_x, lift) - x)
                        / (1 + linalg.norm(x)))
            g = random_stabilizer_element(chev, rng, theta_x)
            try:
                y = dress(chev, theta_x, g)
                if np.min(np.abs(np.diagonal(y, 1))) >= 1e-6:
                    worst = max(worst, scalar_aligned_distance(
                        stabilizer_lift(chev, y), g))
            except NotInGStar:
                pass
            # embedding, both orders
            zp = embed(chev, p)
            back = embed_inverse(chev, zp)
            worst = max(worst, linalg.norm(toda_matrix(chev, back) - x)
                        / (1 + linalg.norm(x)))
            again = embed(chev, back)
            worst = max(worst, scalar_aligned_distance(again.g, zp.g))
            done += 1
    passed = worst <= 1e-8
    _report("criterion 8 (decomposition / dressing / embedding roundtrips)",
            passed, f"max_dev={worst:.3e} tol=1e-8 on 100 samples per n")
    assert passed


def test_criterion_9_rk4_cross_check():
    chev = _warmup()
    golden = make_toda_point([0.0, 0.0], [1.0])
    direct = toda_matrix(chev, toda_flow(chev, 1, 1.0, golden))
    integrated = toda_matrix(chev, rk4_toda(chev, golden, 1.0, step=1e-3))
    dev = linalg.norm(integrated - direct)
    passed = dev <= 1e-5
    _report("criterion 9 (RK4 vs factorization)", passed,
            f"max_dev={dev:.3e} tol=1e-5 (step 1e-3 to t=1)")
    assert passed


def test_criterion_10_check_command_budget_and_determinism(tmp_path):
    def strip_seconds(path):
        data = json.loads(path.read_text())
        for entry in data["checks"]:
            entry.pop("seconds", None)
        return json.dumps(data, indent=2)

    start = time.perf_counter()
    for n in RANKS:
        out = tmp_path / f"first-{n}.json"
        assert main(["check", "--n", str(n), "--seed", "42", "--samples", "50",
                     "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start

    deterministic = True
    for n in RANKS:
        out2 = tmp_path / f"second-{n}.json"
        assert main(["check", "--n", str(n), "--seed", "42", "--samples", "50",
                     "--out", str(out2)]) == 0
        if strip_seconds(tmp_path / f"first-{n}.json") != strip_seconds(out2):
            deterministic = False

    passed = elapsed < 60.0 and deterministic
    _report("criterion 10 (check command: runtime and determinism)", passed,
            f"n=2,3,4 suites in {elapsed:.1f}s < 60s; "
            f"reports identical modulo wall time: {deterministic}")
    assert passed
