"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete.  Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np

from bilipfactor.cli import main as cli_main
from bilipfactor.corona import (
    build_coronization,
    carleson_constant,
    check_coronization,
    multilevel_decomposition,
)
from bilipfactor.degree import DegreeError, degree_winding_2d
from bilipfactor.factorization import (
    factor_diagonal,
    factor_rotation,
    glue_identity_outside,
)
from bilipfactor.geometry_core import (
    AffineMapData,
    Cube,
    bilip_constant,
    rotation_2d,
    rotation_3d,
)
from bilipfactor.map_engine import Affine, Blend, Identity, LogSpiral, sup_distance
from bilipfactor.pl_approx import complexity_count, degree_pl, freudenthal, pl_interpolate, verify_pl
from bilipfactor.shuffle import check_shuffle, execute_shuffle, plan_shuffle
from bilipfactor.sphere import factor_scaling_sphere, factor_translation_sphere
from bilipfactor.map_engine import Scaling

from conftest import owner, q_cubes, r_cubes, random_orientation_preserving, region_index, smooth_test_maps
from test_corona import brute_force_carleson
from test_degree import ComplexPower, _Tabulated, square_ring
from test_factorization import oracle_diagonal_steps, oracle_rotation_steps
from test_sphere import oracle_scaling_step


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_linear_factoring(tmp_path):
    t0 = time.monotonic()
    gen = np.random.default_rng(101)
    q = Cube((0.0, 0.0), 2.0)
    worst_sup = 0.0
    worst_cert = 0.0
    for i in range(25):
        mat = random_orientation_preserving(gen, 2, 4.0)
        l_bound = bilip_constant(mat)
        payload = {
            "map": {"type": "affine", "matrix": mat.tolist(), "b": [0.0, 0.0]},
            "cube": {"center": [0.0, 0.0], "side": 2.0},
            "C": 2.0,
        }
        inp = tmp_path / f"lin_{i}.json"
        inp.write_text(json.dumps(payload))
        out = tmp_path / f"run_{i}"
        code = cli_main(
            ["factor-linear", "--input", str(inp), "--out", str(out), "--epsilon", "0.25"]
        )
        assert code == 0, f"map {i}: factor-linear exited {code}"
        rep = json.loads((out / "report.json").read_text())
        check = rep["result"]["check"]
        assert check["agreement_sup"] <= 1e-9 * q.diam
        assert check["support_ok"]
        worst_sup = max(worst_sup, check["agreement_sup"])
        worst_cert = max(worst_cert, rep["result"]["max_certified"])
        assert rep["result"]["max_certified"] <= 1.25 + 1e-12
        # Diagonal partial products (same internal alpha as the run).
        alpha = rep["result"]["internal_alpha"]
        sigma = np.linalg.svd(mat, compute_uv=False)
        partial = np.eye(2)
        for m in factor_diagonal(sigma, alpha, l_bound):
            partial = m @ partial
            assert np.all(np.diag(partial) <= l_bound + 1e-12)
            assert np.all(np.diag(partial) >= 1.0 / l_bound - 1e-12)
    elapsed = time.monotonic() - t0
    report(
        1,
        elapsed <= 60.0,
        f"25 maps factored; worst sup {worst_sup:.2e}, worst cert {worst_cert:.4f}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_02_counts_match_oracles():
    t_diag = len(factor_diagonal([2.0, 0.5], 0.1, 2.0))
    n_diag = oracle_diagonal_steps(2.0, 0.1)
    ok1 = t_diag == 2 * n_diag == 16

    t_rot2 = len(factor_rotation(rotation_2d(math.pi / 2), 0.1))
    n_rot2 = oracle_rotation_steps(math.pi / 2, 0.1)
    ok2 = t_rot2 == n_rot2 == 16

    t_rot3 = len(factor_rotation(rotation_3d([0.0, 0.0, 1.0], math.pi), 0.5))
    n_rot3 = oracle_rotation_steps(math.pi, 0.5)
    ok3 = t_rot3 == n_rot3 == 7

    report(
        2,
        ok1 and ok2 and ok3,
        f"diag(2,1/2)@0.1 -> {t_diag} (oracle {2 * n_diag}); "
        f"R(pi/2)@0.1 -> {t_rot2} (oracle {n_rot2}); "
        f"R(pi,z)@0.5 -> {t_rot3} (oracle {n_rot3})",
    )


def test_criterion_03_degree_engine():
    gen = np.random.default_rng(33)
    tri = freudenthal(0.25, Cube((0.5, 0.5), 1.0))
    base = pl_interpolate(Identity(), tri)
    agree = 0
    total = 0
    attempts = 0
    while total < 200 and attempts < 400:
        attempts += 1
        images = base.vertex_images + gen.uniform(-0.08, 0.08, size=base.vertex_images.shape)
        pl = pl_interpolate(_Tabulated(images, tri), tri)
        target = pl(np.array([0.5, 0.5])) + gen.uniform(-0.01, 0.01, size=2)
        ring = square_ring(Cube((0.5, 0.5), 1.0))
        try:
            w = degree_winding_2d(pl, target, ring)
            s = degree_pl(pl, target)
        except DegreeError:
            continue
        total += 1
        agree += int(w == s)
    ok_agree = total == 200 and agree == 200

    cases = 0
    additive_ok = True
    while cases < 50:
        theta = gen.uniform(-0.5, 0.5)
        shift = gen.uniform(-0.05, 0.05, size=2)
        m = Blend(Affine(AffineMapData(rotation_2d(theta), shift)), Cube((0.5, 0.5), 0.6), 2.0)
        y = m(np.array([gen.uniform(0.3, 0.7), gen.uniform(0.3, 0.7)]))
        try:
            whole = degree_winding_2d(m, y, square_ring(Cube((0.5, 0.5), 1.0)))
            parts = sum(
                degree_winding_2d(m, y, square_ring(Cube((cx, cy), 0.5)))
                for cx in (0.25, 0.75)
                for cy in (0.25, 0.75)
            )
        except DegreeError:
            continue
        additive_ok = additive_ok and (whole == parts)
        cases += 1

    pl_sq = pl_interpolate(ComplexPower(2), freudenthal(0.05, Cube((0.0, 0.0), 2.0)))
    deg2 = degree_pl(pl_sq, np.array([0.0131, 0.0071]))
    th = np.linspace(0.0, 2.0 * math.pi, 257)
    circle = np.stack([np.cos(th), np.sin(th)], axis=-1)
    deg3 = degree_winding_2d(ComplexPower(3), np.zeros(2), circle)

    report(
        3,
        ok_agree and additive_ok and deg2 == 2 and deg3 == 3,
        f"oracle agreement {agree}/{total}; additivity 50/50 "
        f"{'ok' if additive_ok else 'BROKEN'}; z^2 -> {deg2}, z^3 -> {deg3}",
    )


def test_criterion_04_pl_approximation():
    t0 = time.monotonic()
    eps = 0.05
    eta = 0.1
    shear_s = 1.02 - 1.0 / 1.02  # shear with bi-Lipschitz constant 1.02
    maps = {
        "rotation": Affine(AffineMapData(rotation_2d(0.3), np.zeros(2))),
        "shear": Affine(AffineMapData(np.array([[1.0, shear_s], [0.0, 1.0]]), np.zeros(2))),
        "logspiral": LogSpiral(0.05),
    }
    box = Cube((1.0, 1.0), 1.0)  # away from the spiral's fixed point
    details = []
    all_ok = True
    for name, m in maps.items():
        pitch = eta / (4.0 * math.sqrt(2))
        tri = freudenthal(pitch, box.dilate(1.0 + 8.0 * pitch))
        pl = pl_interpolate(m, tri)
        sup = sup_distance(pl, m, box, pitch / 2.0)
        v = verify_pl(pl, eps)
        ok = (
            sup <= eta
            and v.lipschitz_ok
            and v.injective_ok
            and np.all(pl.constants <= 1 + 2 * eps + 1e-9)
            and pl.orientations.min() == 1
        )
        all_ok = all_ok and ok
        details.append(f"{name}: sup {sup:.3f}, cmax {pl.constants.max():.4f}")
    # Complexity scaling under eta -> eta/2 on the unit box.
    counts = []
    for e in (eta, eta / 2.0):
        tri = freudenthal(e / (4.0 * math.sqrt(2)), Cube((0.5, 0.5), 1.0))
        counts.append(complexity_count(tri, Cube((0.5, 0.5), 1.0)))
    ratio = counts[1] / counts[0]
    scaling_ok = 0.8 * 4 <= ratio <= 1.25 * 4
    elapsed = time.monotonic() - t0
    report(
        4,
        all_ok and scaling_ok and elapsed <= 120.0,
        "; ".join(details) + f"; N ratio {ratio:.2f} in [3.2, 5]; {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_05_corona():
    affine = Affine(AffineMapData(np.array([[1.2, 0.1], [0.0, 0.9]]), np.array([0.1, 0.2])))
    c_aff = build_coronization(affine, 2, 4, theta=0.05, h=1 / 64)
    cb_aff, ct_aff = carleson_constant(c_aff)
    ok_affine = len(c_aff.bad) == 0 and cb_aff == 0 and ct_aff == 1

    c_log = build_coronization(LogSpiral(0.2), 2, 6, theta=0.05, h=1 / 128)
    issues = check_coronization(c_log)
    cb_log, ct_log = carleson_constant(c_log)
    ok_log = issues == [] and isinstance(cb_log, Fraction) and isinstance(ct_log, Fraction)

    ok_brute = True
    for depth in (3, 4, 5):
        c = build_coronization(LogSpiral(0.35), 2, depth, theta=0.04, h=1 / 64)
        ok_brute = ok_brute and (carleson_constant(c) == brute_force_carleson(c))

    report(
        5,
        ok_affine and ok_log and ok_brute,
        f"affine: bad=0, c_tops={ct_aff}; logspiral depth 6: invariants clean, "
        f"c_bad={float(cb_log):.3f}, c_tops={float(ct_log):.3f}; "
        f"subtree sums == brute force (depths 3-5)",
    )


def test_criterion_06_multilevel():
    t0 = time.monotonic()
    failures = []
    for idx, m in enumerate(smooth_test_maps()):
        c = build_coronization(m, 2, 5, theta=0.05, h=1 / 64, force_top_bad=True)
        region_of = region_index(c)
        for alpha in (0.5, 0.25):
            ml = multilevel_decomposition(c, alpha)
            if not ml.good_measure >= 1 - Fraction(alpha).limit_denominator(100):
                failures.append((idx, alpha, "measure"))
            for level in ml.levels:
                r_list, owner_of = r_cubes(level), owner(level)
                for r in r_list:
                    qp = owner_of[r]
                    if not (qp.contains_dyadic(r) and r != qp):
                        failures.append((idx, alpha, "item-ii"))
                    if not (qp.level + ml.k_param <= r.level <= qp.level + ml.zeta_log2):
                        failures.append((idx, alpha, "item-iii"))
                for qc in q_cubes(level):
                    owners = [r for r in r_list if r.contains_dyadic(qc)]
                    if len(owners) != 1 or region_of[owners[0]] != region_of[qc]:
                        failures.append((idx, alpha, "item-i"))
    elapsed = time.monotonic() - t0
    report(
        6,
        not failures and elapsed <= 180.0,
        f"20 smooth maps x alpha in (0.5, 0.25): good measure and items (i)-(iii) exact; "
        f"failures {failures[:3]}; {elapsed:.1f}s (budget 180s)",
    )


def test_criterion_07_shuffling():
    instances = [
        # The scaled-chart two-cube swap.
        ((Scaling(4.0), 1.0), [
            (Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
            (Cube((3.0, 3.0), 0.5), Cube((1.0, 3.0), 0.5)),
        ], 1.5, 8.0),
        # Identity-chart swap.
        ((Identity(), 4.0), [
            (Cube((1.0, 1.0), 0.5), Cube((3.0, 1.0), 0.5)),
            (Cube((3.0, 3.0), 0.5), Cube((1.0, 3.0), 0.5)),
        ], 1.5, 8.0),
        # Crossing swap: one target center sits inside the other source cube.
        ((Identity(), 4.0), [
            (Cube((1.0, 1.0), 0.6), Cube((2.6, 2.6), 0.6)),
            (Cube((2.6, 2.6), 0.6), Cube((1.0, 1.0), 0.6)),
        ], 1.4, 8.0),
        # Single-cube translation.
        ((Identity(), 4.0), [(Cube((1.0, 1.0), 0.5), Cube((2.5, 1.5), 0.5))], 1.5, 8.0),
        # Diagonal three-cube rotation.
        ((Identity(), 4.0), [
            (Cube((0.8, 0.8), 0.5), Cube((2.0, 2.0), 0.5)),
            (Cube((2.0, 2.0), 0.5), Cube((3.2, 3.2), 0.5)),
            (Cube((3.2, 3.2), 0.5), Cube((0.8, 0.8), 0.5)),
        ], 1.5, 8.0),
    ]
    details = []
    all_ok = True
    for i, (omega, pairs, mu, c1b) in enumerate(instances):
        plan = plan_shuffle(omega, pairs, mu=mu, c1_bound=c1b)
        res = execute_shuffle(plan, 0.25)
        rep = check_shuffle(res)
        ok = (
            rep["similarity_residual"] <= 1e-9
            and rep["outside_identity_dev"] <= 1e-12
            and rep["disjoint_ok"]
            and res.max_certified() <= 1.25 + 1e-12
        )
        all_ok = all_ok and ok
        details.append(f"#{i}: T={res.T}, res={rep['similarity_residual']:.1e}")
    report(7, all_ok, "; ".join(details))


def test_criterion_08_gluing():
    def rotation_blend(center, theta):
        c = np.asarray(center)
        rot = rotation_2d(theta)
        return Blend(Affine(AffineMapData(rot, c - rot @ c)), Cube(tuple(c), 0.35), 2.0)

    pieces = [
        (Cube((0.0, 0.0), 1.0), rotation_blend((0.0, 0.0), 0.3)),
        (Cube((2.0, 0.0), 1.0), rotation_blend((2.0, 0.0), -0.25)),
    ]
    glued, rep = glue_identity_outside(pieces, 0.05)
    bound = max(rep.piece_bounds) ** 2
    ok = rep.glued.L_lo <= bound + 1e-6
    report(
        8,
        ok,
        f"two rotation blends: piece bounds {tuple(round(b, 4) for b in rep.piece_bounds)}, "
        f"glued {rep.glued.L_lo:.4f} <= {bound:.4f} + 1e-6",
    )


def test_criterion_09_sphere():
    gen = np.random.default_rng(55)
    finite = gen.normal(scale=4.0, size=(2000, 2))
    w = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", finite, finite))

    def chi_rows(i_idx, j_idx):
        d = np.linalg.norm(finite[i_idx] - finite[j_idx], axis=1)
        return d * w[i_idx] * w[j_idx]

    triples = gen.integers(0, 2000, size=(95000, 3))
    slack = (
        chi_rows(triples[:, 0], triples[:, 1])
        + chi_rows(triples[:, 1], triples[:, 2])
        - chi_rows(triples[:, 0], triples[:, 2])
    )
    worst = float(slack.min())
    # Mixed triples through the point at infinity: chi(x, inf) = w(x).
    pairs = gen.integers(0, 2000, size=(5000, 2))
    mixed = np.minimum(
        w[pairs[:, 0]] + chi_rows(pairs[:, 0], pairs[:, 1]) - w[pairs[:, 1]],
        w[pairs[:, 1]] + chi_rows(pairs[:, 0], pairs[:, 1]) - w[pairs[:, 0]],
    )
    worst = min(worst, float(mixed.min()))
    metric_ok = worst >= -1e-12

    trans = factor_translation_sphere(np.array([10.0, 0.0]), 0.1)
    trans_ok = trans.count == 110 and all(s.sampled <= 1.1 + 1e-6 for s in trans.steps)

    a0 = oracle_scaling_step(0.3)
    want_n = math.ceil(math.log(16.0) / math.log(a0) - 1e-9)
    scal = factor_scaling_sphere(16.0, 0.3)
    scal_ok = (
        scal.count == want_n
        and all(s.analytic_bound <= 1.3 + 1e-9 for s in scal.steps)
        and all(s.sampled <= 1.3 + 1e-6 for s in scal.steps)
    )
    report(
        9,
        metric_ok and trans_ok and scal_ok,
        f"metric slack {worst:.1e} over 1e5 triples; translation 110 steps; "
        f"scaling N={scal.count} (oracle {want_n})",
    )


def test_criterion_10_determinism(tmp_path):
    payload = {
        "map": {"type": "affine", "matrix": [[2.0, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]},
        "cube": {"center": [0.0, 0.0], "side": 2.0},
        "C": 2.0,
    }
    inp = tmp_path / "d.json"
    inp.write_text(json.dumps(payload))
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cli_main(["factor-linear", "--input", str(inp), "--out", str(out), "--epsilon", "0.25"])
        blobs.append((out / "report.json").read_bytes())
    sphere_in = tmp_path / "s.json"
    sphere_in.write_text(json.dumps({"kind": "scaling", "a": 16.0}))
    for name in ("s1", "s2"):
        out = tmp_path / name
        cli_main(["sphere-factor", "--input", str(sphere_in), "--out", str(out), "--epsilon", "0.3"])
        blobs.append((out / "report.json").read_bytes())
    ok = blobs[0] == blobs[1] and blobs[2] == blobs[3]
    report(10, ok, "repeated factor-linear and sphere-factor reports byte-identical")
