"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Monte Carlo criteria use 10^4 samples and 3-sigma bands
(plus a 1e-12 absolute cushion for estimators whose sample distribution is
degenerate, where the band collapses to float roundoff).
"""

import math

import numpy as np

from gptpurity import boxworld as bw
from gptpurity import checks
from gptpurity import composite as cm
from gptpurity import faces, grouprep, randomize as rnd, statespace as ss
from gptpurity import purity as pur
from gptpurity.statespace import random_mixtures

SAMPLES = 10_000
EPS = 1e-12


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def _pair(builder, na, nb):
    return cm.compose(builder(na), builder(nb))


def test_criterion_01_quantum_2x2_random_pure():
    rep = rnd.estimate_expected_local_purity("quantum", 2, 2, 1.0, SAMPLES, 1001)
    tr_mean = pur.tr2_from_purity(2, rep.mean)
    dev = abs(rep.mean - 3 / 5)
    ok = dev <= 3 * rep.stderr + EPS
    _report(1, ok, f"quantum 2x2 pure: E P = {rep.mean:.4f} (target 0.6, "
                   f"E Tr = {tr_mean:.4f} vs 0.8), 3 sigma = {3 * rep.stderr:.4f}")


def test_criterion_02_quantum_2x8_and_markov():
    rep = rnd.estimate_expected_local_purity("quantum", 2, 8, 1.0, SAMPLES, 1002)
    dev = abs(rep.mean - 3 / 17)
    ok = dev <= 3 * rep.stderr + EPS
    tails = [checks.markov_tail(rep, x) for x in (2.0, 5.0, 10.0)]
    ok = ok and all(t.passed for t in tails)
    _report(2, ok, f"quantum 2x8 pure: E P = {rep.mean:.4f} (target {3 / 17:.4f}); "
                   f"markov empirical/bound: "
                   + ", ".join(f"{t.name}: {t.value:.3f}<={t.bound:.3f}" for t in tails))


def test_criterion_03_classical_pure_marginals_exact():
    comp = _pair(ss.build_classical, 2, 8)
    gram_a = grouprep.analytic_gram(comp.part_a)
    worst = 0.0
    for i in range(SAMPLES):
        rng = rnd.sample_rng(1003, i)
        omega = pur.fixed_purity_state(comp.joint, 1.0, rng)
        sampled = omega[rng.permutation(comp.joint.K)]
        marg = cm.marginal_a(comp, sampled)
        worst = max(worst, abs(pur.purity(comp.part_a, gram_a, marg) - 1.0))
    ok = worst <= 1e-12
    _report(3, ok, f"classical 2x8 pure: max |P(marginal) - 1| = {worst:.2e} over {SAMPLES} samples")


def test_criterion_04_classical_coin_toss_mixed_levels():
    details = []
    ok = True
    for p0, seed in ((0.3, 1004), (0.7, 1005)):
        rep = rnd.estimate_expected_local_purity("classical", 2, 8, p0, SAMPLES, seed)
        good = abs(rep.mean - p0) <= 3 * rep.stderr + EPS
        ok = ok and good
        details.append(f"P0={p0}: mean={rep.mean:.6f}")
    _report(4, ok, "classical 2x8 coin toss: " + ", ".join(details))


def test_criterion_05_symmetric_antisymmetric_faces():
    ok = True
    details = []
    seed = 1050
    for n in (2, 3, 4):
        for sign, face in ((1, faces.sym_face(n)), (-1, faces.antisym_face(n))):
            targets = [1.0]
            if face.n_sub > 1:
                targets.append(0.6)
            for trp in targets:
                seed += 1
                rep = faces.estimate_face_local_purity(face, trp, SAMPLES, seed)
                expected = faces.predict_symm(n, sign, trp).value
                good = abs(rep.mean - expected) <= 3 * rep.stderr + EPS
                ok = ok and good
                details.append(f"n={n},{'+' if sign > 0 else '-'},trp={trp:g}:"
                               f"{rep.mean:.4f}/{expected:.4f}")
    anti2 = faces.estimate_face_local_purity(faces.antisym_face(2), 1.0, 200, 7)
    ok = ok and abs(anti2.mean - 0.5) <= 1e-12
    for n in (2, 3, 4):
        pred = faces.predict_qface(faces.sym_face(n), faces.default_probe(n), 1.0)
        ok = ok and abs(pred.inputs["probe_trace_sq"] - (n / 4 + 0.5)) <= 1e-10
    _report(5, ok, "faces MC/prediction: " + "; ".join(details) + "; antisym n=2 exact 0.5; "
                   "sym probe ingredient n/4 + 1/2 to 1e-10")


def test_criterion_06_purity_pure_times_maxmixed():
    ok = True
    details = []
    for builder, na, nb in ((ss.build_quantum, 2, 2), (ss.build_quantum, 2, 4),
                            (ss.build_classical, 2, 2), (ss.build_classical, 3, 4)):
        comp = cm.compose(builder(na), builder(nb))
        gram = grouprep.analytic_gram(comp.joint)
        res = cm.purity_pure_times_maxmixed(comp, gram, tol=1e-12)
        good = abs(res.numeric - res.closed_form) <= 1e-12
        ok = ok and good
        details.append(f"{comp.kind} {na}x{nb}: {res.numeric:.6f}")
    comp = _pair(ss.build_quantum, 2, 2)
    sampler = grouprep.sampler_for(comp.joint)
    mc_gram = grouprep.invariant_gram(comp.joint, sampler, n_avg=20_000,
                                      rng=np.random.default_rng(1006))
    res = cm.purity_pure_times_maxmixed(comp, mc_gram, tol=1e-6)
    ok = ok and abs(res.numeric - res.closed_form) <= 1e-6
    _report(6, ok, "P(phi x mu) analytic to 1e-12: " + ", ".join(details)
                   + f"; MC-gram route: {res.numeric:.8f} to 1e-6")


def test_criterion_07_pauli_identities():
    rng = np.random.default_rng(1007)
    ok = True
    details = []
    spaces = [ss.build_quantum(2), ss.build_quantum(4), ss.build_quantum(8),
              ss.build_classical(16), ss.build_polygon(4), ss.build_polygon(5)]
    for space in spaces:
        dev, cdev = checks.pauli_identity_deviations(space, random_mixtures(space, 1000, rng))
        ok = ok and dev <= 1e-10 and cdev <= 1e-10
        details.append(f"{space.kind}-{space.level}: set {dev:.1e}, coll {cdev:.1e}")
    qubit = ss.build_quantum(2)
    gram = grouprep.analytic_gram(qubit)
    sampler = grouprep.sampler_for(qubit)
    x = pur.complete_pauli_set(qubit, gram)[0]
    omega = qubit.sample_pure(rng)
    avg = pur.pauli_haar_average(qubit, sampler, x, omega, n_samples=SAMPLES, rng=rng)
    expected = pur.purity(qubit, gram, omega) / (qubit.K - 1)
    ok = ok and abs(avg.mean - expected) <= 3 * avg.stderr + EPS
    cls = ss.build_classical(4)
    cgram = grouprep.analytic_gram(cls)
    cavg = pur.pauli_haar_average(cls, grouprep.sampler_for(cls),
                                  pur.complete_pauli_set(cls, cgram)[0],
                                  np.array([1.0, 0, 0, 0]))
    ok = ok and cavg.exact and abs(cavg.mean - 1 / 3) <= 1e-12
    _report(7, ok, "; ".join(details) + f"; haar avg qubit {avg.mean:.4f}/{expected:.4f}, "
                   f"classical-4 exact {cavg.mean:.6f}")


def test_criterion_08_clifford_two_design():
    dev = abs(grouprep.frame_potential(grouprep.clifford_unitaries(1)) - 2.0)
    ok = dev <= 1e-12
    _report(8, ok, f"k=1 second-moment identity over the full matrix basis: max dev {dev:.2e}")


def _suite_detail(suite: list) -> str:
    return "; ".join(f"{c.name} {c.value:.1e}/{c.bound:.0e}" for c in suite)


def test_criterion_09_boxworld():
    pr = bw.boxworld_purity(ss.boxworld_pr_state())
    suite = checks.run_suite("boxworld", 0, SAMPLES)
    ok = pr == 1 / 3 and all(c.passed for c in suite)
    _report(9, ok, f"P(PR) = {pr} (exactly 1/3: {pr == 1 / 3}); " + _suite_detail(suite))


def test_criterion_10_centered_classical_subsystems():
    suite = checks.run_suite("classical-subsystem", 0, SAMPLES)
    ok = all(c.passed for c in suite)
    _report(10, ok, _suite_detail(suite))


def test_criterion_11_coin_with_record():
    ok = True
    details = []
    for s0, seed in ((1, 1011), (4, 1012), (8, 1013)):
        res = faces.coin_with_record(s0, SAMPLES, seed)
        good = abs(res.report.mean - res.prediction.value) <= 3 * res.report.stderr + EPS
        ok = ok and good
        details.append(f"s0={s0}: {res.report.mean:.4f}/{res.prediction.value:.4f}")
    _report(11, ok, "coin with record: " + ", ".join(details))


def test_criterion_12_real_quantum_nonlocal_tomography():
    pred = rnd.predict_real_quantum(2, 2, 1.0)
    rep = rnd.estimate_real_quantum_local_purity(2, 2, 1.0, SAMPLES, 1014)
    tr_mean = pur.tr2_from_purity(2, rep.mean)
    tr_sigma = rep.stderr / 2
    # Independent sphere-moment oracle: E Tr rho_A^2 = 5/6 for a uniform unit
    # vector in R^4 reshaped to a 2x2 matrix (isotropic fourth moments).
    d = 4
    oracle = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    a, b, c, e = (2 * i + j, 2 * k + j, 2 * k + l, 2 * i + l)
                    oracle += (
                        (a == b) * (c == e) + (a == c) * (b == e) + (a == e) * (b == c)
                    ) / (d * (d + 2))
    ok = (abs(oracle - 5 / 6) <= 1e-12
          and abs(pur.tr2_from_purity(2, pred.value) - oracle) <= 1e-12
          and abs(tr_mean - 5 / 6) <= 3 * tr_sigma + EPS)
    _report(12, ok, f"real quantum 2x2: E Tr = {tr_mean:.4f} vs oracle {oracle:.4f} "
                    f"(prediction E P = {pred.value:.4f})")


def test_criterion_13_qubit_pauli_coefficient_oracle():
    ok = True
    details = []
    seed = 1015
    # (E Tr rho_A^2 - 2^-n_A) / (Tr phi^2 - 2^-n) = 2^n_B (K_A - 1)/(K_AB - 1)
    # with K_A = 4^n_A and K_AB = 4^n, the left side from the general estimator
    # at p0 = (Tr phi^2 - 2^-n)/(1 - 2^-n): E Tr rho_A^2 - 2^-n_A = (1 - 2^-n_A) E P_A.
    for n_a, n_b in ((1, 1), (1, 2)):
        for tr2 in (1.0, 0.5):
            seed += 1
            n = n_a + n_b
            min_tr = 1.0 / 2**n
            rep = rnd.estimate_expected_local_purity(
                "quantum", 2**n_a, 2**n_b, (tr2 - min_tr) / (1.0 - min_tr), SAMPLES, seed,
                histogram_bins=None)
            per_purity = (1.0 - 1.0 / 2**n_a) / (tr2 - min_tr)
            lhs, lhs_stderr = rep.mean * per_purity, rep.stderr * per_purity
            rhs = 2.0**n_b * (4.0**n_a - 1.0) / (4.0**n - 1.0)
            good = abs(lhs - rhs) <= 3 * lhs_stderr + EPS
            ok = ok and good
            details.append(f"({n_a},{n_b})@{tr2:g}: {lhs:.4f}/{rhs:.4f}")
    _report(13, ok, "qubit coefficient ratio lhs/rhs: " + ", ".join(details))


def test_criterion_14_property_suite():
    rng = np.random.default_rng(1016)
    ok = True
    notes = []

    # purity bounds, invariance, sqrt-convexity across kinds
    for space in (ss.build_quantum(2), ss.build_classical(4), ss.build_polygon(5)):
        gram = grouprep.analytic_gram(space)
        sampler = grouprep.sampler_for(space)
        states = random_mixtures(space, 300, rng)
        for omega in states:
            p = pur.purity(space, gram, omega)
            ok = ok and -1e-12 <= p <= 1 + 1e-12
            t = sampler.draw(rng)
            ok = ok and abs(pur.purity(space, gram, t @ omega) - p) <= 1e-9
        for _ in range(100):
            trio = random_mixtures(space, 3, rng)
            lam = rng.dirichlet(np.ones(3))
            lhs = math.sqrt(pur.purity(space, gram, lam @ trio))
            rhs = sum(l * math.sqrt(pur.purity(space, gram, s)) for l, s in zip(lam, trio))
            ok = ok and lhs <= rhs + EPS
    notes.append("bounds/invariance/sqrt-convexity")

    # estimator seed determinism
    comp = _pair(ss.build_quantum, 2, 2)
    r1 = rnd.estimate_expected_local_purity("quantum", 2, 2, 1.0, 1000, 99)
    r2 = rnd.estimate_expected_local_purity("quantum", 2, 2, 1.0, 1000, 99)
    ok = ok and r1.mean == r2.mean and r1.stderr == r2.stderr
    notes.append(f"seed determinism (mean {r1.mean:.6f})")

    # initial-state independence of the mean at fixed purity
    p0 = 0.5
    init1 = pur.fixed_purity_state(comp.joint, p0, rng)
    init2 = pur.fixed_purity_state(comp.joint, p0, rng)
    ra = rnd.estimate_expected_local_purity("quantum", 2, 2, p0, SAMPLES, 301,
                                            initial=init1)
    rb = rnd.estimate_expected_local_purity("quantum", 2, 2, p0, SAMPLES, 302,
                                            initial=init2)
    sigma = math.hypot(ra.stderr, rb.stderr)
    ok = ok and abs(ra.mean - rb.mean) <= 3 * sigma + EPS
    notes.append(f"initial-state independence ({ra.mean:.4f} vs {rb.mean:.4f})")

    _report(14, ok, "; ".join(notes))
