"""End-to-end acceptance gate.

Each test drives one shipped guarantee at its stated tolerance and time
budget and prints a single ACCEPTANCE line on success (visible under -rA
or -s); a failed guarantee shows up as the test's own failure line.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from hornlab import (
    HornTriple,
    RATIONAL,
    WbarWeighting,
    compose_weightings,
    concatenate,
    correspondence_matrix,
    exceptional_mass_estimate,
    find_delta0_chamber,
    gz_check,
    gz_H,
    horn_forward_test,
    ks_distance,
    kt_member,
    limit_sweep,
    lt_inverse,
    mat_mul,
    projection_set,
    random_interior_pattern,
    reconstruct_H,
    sample_B_r,
    sample_hermitian_sum,
    sample_multiplicative,
    sample_tropical_kappa,
    singular_l,
    tropical_gz,
    tropical_singular_values,
)
from hornlab.chamber import gamma0_cached
from oracles import PolytopeSampler, complex_det, minor_enum

F = Fraction
EPS8 = F(1, 10 ** 8)
FLOOR = 1e-13


def _stamp(t0, name, budget=None):
    elapsed = time.time() - t0
    if budget is not None:
        assert elapsed < budget, "%s took %.1fs, budget %ds" % (name, elapsed, budget)
    line = "ACCEPTANCE %s PASS %.1fs" % (name, elapsed)
    if budget is not None:
        line += " (budget %ds)" % budget
    print(line)


def _random_weighting(n, rng, denom=1 << 10):
    nd = n * (n - 1) // 2
    vals = rng.integers(0, denom, size=nd + n)
    return WbarWeighting(n,
                         tuple(F(int(v), denom) for v in vals[:nd]),
                         tuple(F(int(v), denom) for v in vals[nd:]))


def test_01_exact_minors_and_concatenation():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for n in (2, 3, 4):
        g = gamma0_cached(n)
        gc = concatenate(g, g)
        labels = range(1, n + 1)
        for _ in range(200):
            w = _random_weighting(n, rng).embed(g)
            m = correspondence_matrix(g, w, RATIONAL)
            for k in range(1, n + 1):
                for rows in itertools.combinations(labels, k):
                    for cols in itertools.combinations(labels, k):
                        enum = minor_enum(g, w, rows, cols, RATIONAL)
                        det = complex_det([[m[i - 1][j - 1] for j in cols]
                                           for i in rows])
                        assert enum == det
            w2 = _random_weighting(n, rng).embed(g)
            m2 = correspondence_matrix(g, w2, RATIONAL)
            wc = compose_weightings(gc, w, w2)
            assert correspondence_matrix(gc, wc, RATIONAL) == mat_mul(RATIONAL, m, m2)
    _stamp(t0, "exact-minors-and-concatenation", 30)


def test_02_tropical_interlacing():
    t0 = time.time()
    rng = np.random.default_rng(102)
    for n in (2, 3, 4):
        g = gamma0_cached(n)
        for _ in range(1000):
            w = _random_weighting(n, rng).embed(g)
            assert gz_check(tropical_gz(g, w), 0)
            sv = tropical_singular_values(g, w)
            assert all(a >= b for a, b in zip(sv, sv[1:]))
    _stamp(t0, "tropical-interlacing", 30)


def test_03_chamber_inversion():
    t0 = time.time()
    rng = np.random.default_rng(103)
    for n in (1, 2, 3, 4, 5):
        ch = find_delta0_chamber(n)
        assert len(ch.slots) == n * (n + 1) // 2
        g = gamma0_cached(n)
        for _ in range(1000):
            t = random_interior_pattern(n, rng)
            w = lt_inverse(t)
            assert tropical_gz(g, w.embed(g)) == t
    _stamp(t0, "chamber-inversion", 60)


def test_04_forward_cone_inclusion():
    t0 = time.time()
    rng = np.random.default_rng(104)
    for n, count in ((2, 334), (3, 333), (4, 333)):
        rep = horn_forward_test("tropical", n, count, 0, rng)
        assert rep.pass_rate == 1.0, rep
    for mode in ("hermitian", "multiplicative"):
        for n, count in ((2, 167), (3, 167), (4, 166)):
            rep = horn_forward_test(mode, n, count, EPS8, rng)
            assert rep.pass_rate == 1.0, rep
    _stamp(t0, "forward-cone-inclusion", 180)


# generic instances on a coarse lattice so the margin delta is a clean
# dyadic; each decays to the arithmetic floor before tau reaches the cap
SWEEPS = (
    (WbarWeighting(2, (F(19, 10),), (F(-1, 5), F(3, 10))), 0.5),
    (WbarWeighting(3, (F(3, 2), F(3, 2), F(2)), (F(3, 4), F(1, 4), F(3, 4))), 0.5),
    (WbarWeighting(3, (F(1), F(3, 2), F(7, 4)), (F(1), F(3, 4), F(1, 2))), 0.25),
    (WbarWeighting(3, (F(1), F(3, 2), F(2)), (F(-1, 4), F(-3, 4), F(0))), 0.25),
    (WbarWeighting(3, (F(3, 2), F(1), F(3, 2)), (F(1, 2), F(-1, 4), F(3, 4))), 0.25),
    (WbarWeighting(3, (F(1), F(3, 4), F(3, 2)), (F(-1, 4), F(-1), F(-1, 2))), 0.25),
)


def _walk_to_floor(w):
    # extend the grid until the error hits the floor (or a cap that stays
    # clear of double-precision exhaustion in the spectral factorization)
    taus = []
    tau = 5.0
    while tau <= 35.0:
        taus.append(tau)
        if limit_sweep(w, [tau]).errors[0] < FLOOR:
            break
        tau += 3.0
    return limit_sweep(w, taus)


def test_05_scaling_limit_rate():
    t0 = time.time()
    for w, delta in SWEEPS:
        res = _walk_to_floor(w)
        assert res.delta == delta
        above = [e for e in res.errors if e > FLOOR]
        assert len(above) >= 2
        for e1, e2 in zip(res.errors, res.errors[1:]):
            if e1 > FLOOR:
                assert e2 <= e1
        assert res.slope is not None
        assert res.slope <= -0.75 * delta, (res.slope, delta)
    _stamp(t0, "scaling-limit-rate", 10)


GENERATORS = (sample_hermitian_sum, sample_multiplicative, sample_tropical_kappa)


def test_06_reference_density():
    t0 = time.time()

    def cdf(t):
        return np.clip((np.asarray(t, dtype=float) ** 2 - 1.0) / 8.0, 0.0, 1.0)

    for j, gen in enumerate(GENERATORS):
        s = gen((2.0, 0.0), (1.0, 0.0), 50_000, np.random.default_rng([106, j]))
        d = ks_distance(s, cdf, projection=0)
        assert d.statistic < 0.01, (gen.__name__, d.statistic)
    _stamp(t0, "reference-density", 30)


def test_07_three_model_agreement():
    t0 = time.time()
    r, s = (3.0, 4.0, 3.0), (2.0, 2.5, 1.5)
    samples = [gen(r, s, 50_000, np.random.default_rng([107, j]))
               for j, gen in enumerate(GENERATORS)]
    # the last slot is the same affine invariant of (r, s) in all three
    # models, so its law is an atom; comparing float jitter by KS is
    # meaningless and the identity itself is the stronger check
    for smp in samples:
        for v in smp.vectors:
            assert abs(v[-1] - (r[-1] + s[-1])) <= 1e-9
    projections = [0, 1] + projection_set(3, seed=107)[3:]
    for x, y in itertools.combinations(samples, 2):
        for proj in projections:
            d = ks_distance(x, y, projection=proj)
            assert d.statistic < 0.02, (x.generator, y.generator, proj, d)
    _stamp(t0, "three-model-agreement", 180)


def test_08_exceptional_mass():
    t0 = time.time()
    cases = (((2.0, 0.0), (1.0, 0.0)), ((3.0, 4.0, 3.0), (2.0, 2.5, 1.5)))
    for j, (r, s) in enumerate(cases):
        mass = exceptional_mass_estimate(r, s, 10_000, EPS8,
                                         np.random.default_rng([108, j]))
        assert mass == 0.0
    _stamp(t0, "exceptional-mass", 120)


def test_09_matrix_reconstruction():
    t0 = time.time()
    tops = {2: (2.0, 0.0), 3: (2.0, 1.0, -1.0), 4: (3.0, 4.0, 3.0, 0.0)}
    rng = np.random.default_rng(109)
    for n, count in ((2, 334), (3, 333), (4, 333)):
        r = tops[n]
        chain_h = PolytopeSampler(r, rng)
        for _ in range(count):
            xi = chain_h.draw()
            angles = [list(rng.uniform(0, 2 * math.pi, m)) for m in range(1, n)]
            xi2 = gz_H(reconstruct_H(xi, angles))
            worst = max(abs(a - b) for ra, rb in zip(xi.rows, xi2.rows)
                        for a, b in zip(ra, rb))
            assert worst <= 1e-9, worst
            b = sample_B_r(r, rng)
            assert max(abs(x - y) for x, y in zip(singular_l(b), r)) <= 1e-8
    _stamp(t0, "matrix-reconstruction", 60)


def test_10_cli_determinism(tmp_path):
    t0 = time.time()
    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps({"n": 2, "diagonals": ["2"],
                              "sink_horizontals": ["1", "1"]}))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"n": 2, "diagonals": ["19/10"],
                                 "sink_horizontals": ["-1/5", "3/10"]}))
    patt = tmp_path / "p.json"
    patt.write_text(json.dumps({"n": 2, "role": "tropical-gz",
                                "rows": [["0"], ["0", "1"], ["0", "3", "2"]]}))
    hive = tmp_path / "h.json"
    hive.write_text(json.dumps({"n": 2, "role": "hive",
                                "rows": [["0"], ["1", "1"], ["0", "2", "2"]]}))
    commands = [
        ["gamma0", "--n", "3"],
        ["trop-gz", "--weights", str(w2)],
        ["lt-inverse", "--pattern", str(patt)],
        ["gz-check", "--pattern", str(patt)],
        ["hive-check", "--tableau", str(hive)],
        ["kt-member", "--triple", "1,0,1,0,2,0", "--slack", "1/100"],
        ["kappa-sample", "--r", "2,0", "--s", "1,0", "--count", "5", "--seed", "3"],
        ["sample", "--generator", "multiplicative", "--r", "2,0", "--s", "1,0",
         "--count", "10", "--seed", "2"],
        ["measure-compare", "--r", "2,0", "--s", "1,0", "--count", "200",
         "--seed", "5", "--threshold", "0.9"],
        ["limit-sweep", "--weights", str(sweep), "--taus", "5,8",
         "--phase-seed", "3"],
        ["horn-forward", "--mode", "tropical", "--n", "2", "--count", "5",
         "--seed", "2"],
        ["exceptional-mass", "--r", "2,0", "--s", "1,0", "--count", "40",
         "--seed", "1"],
    ]
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "hornlab"] + argv,
                               capture_output=True) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0, argv
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stderr == runs[1].stderr == b"", argv
    _stamp(t0, "cli-determinism")
