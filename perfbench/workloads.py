"""The hornlab workloads: inputs made from a seed, a closed loop of calls
into hornlab's public API, and a check of every output.

Each loop is single-process and single-threaded: a call starts when the
previous one has returned.  Only program calls are timed; input generation
and output checks run between them, untimed.  Inputs depend on the seed
alone, so every measuring process of a run times the same units in the same
order; a loop records each unit's kind, item count and program time, raw
and scaled to the host's speed.

On a shared host, other tenants change this process's speed by 10-30% for
seconds to minutes at a time.  A fixed loop of stdlib Fraction arithmetic
(`reference`) is timed between every two program calls and every TICK_S
seconds during one (Clock), and each call's time is scaled by REF_S over
the mean of the reference times around and within it: the call's time on a
host where the reference takes REF_S.  hornlab's LP and samplers are
interpreted Python like the reference, so the two slow down together and
the ratio stays put.

mc-agree-n3
    One round draws COUNT (1600) samples from each of the three generators at
    r=(3,4,3), s=(2,2.5,1.5) (a fresh child rng per call), then runs the
    pairwise two-sample ks_distance over t1, t2 and the three
    projection_set(3, seed) directions, as `measure-compare` does.  An item
    is one sample.  A unit is one generator call plus a third of its round's
    ks_distance time, so a sample's latency is its call's program time per
    sample: the quantiles are taken over the samples of all three
    generators (with equal counts, p50 falls on the middle generator and
    p90 on the slowest).
cone-n4
    kt_member on n=4 triples whose verdicts are known, three kinds in
    rotation:
    - float-derived members at slack 1/10^8, built here with numpy: Haar Q
      from a phase-fixed complex Ginibre QR, then eigvalsh(D_a + Q D_b Q*);
      the float spectra become exact dyadic rationals with large
      denominators;
    - exact small-denominator members at slack 0: rational convex
      combinations of sort(lambda_a + pi lambda_b) over permutations pi,
      which lie in the convex Horn polytope of (a, b);
    - exact non-members at slack 0: such a member with c_1 pushed past
      a_1 + b_1 by a seeded margin, taken back from c_n so the total is
      kept, which breaks Weyl's inequality.
"""

from __future__ import annotations

import itertools
import math
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

R = (3.0, 4.0, 3.0)
S = (2.0, 2.5, 1.5)
GENERATORS = ("sample_hermitian_sum", "sample_multiplicative",
              "sample_tropical_kappa")
# Samples per generator call.  measure-compare defaults to 10000 and test 07
# uses 50000, in chunks of 8192, each paying two 1000-step PolytopeSampler
# burn-ins (about 15 ms per call for sample_multiplicative and
# sample_tropical_kappa, on a 2-core x86 host).  1600 is one round of
# 5-8 s there, one per measuring process of a run split seven ways, which
# keeps a run near a minute; the burn-ins are then about 0.5% of a round,
# against about 0.2% at 10000.
COUNT = 1600
POOL_CAP = 16 * COUNT  # pooled samples kept per generator for the final KS
KS_ALPHA = 1e-6        # family-wise level, Bonferroni-split within a process
LAST_SLOT_TOL = 1e-9
# The reference loop's time that scaled times are expressed at; about its
# typical time on a shared 2-core x86 host, so scaled and raw times agree
# there on average.
REF_S = 3e-3
TICK_S = 0.1  # period of the reference samples taken during a call
MEMBER_SLACK = Fraction(1, 10 ** 8)
N_CONE = 4


@dataclass
class Record:
    """What one loop did: items, failures, program time and timed units."""

    attempted: int = 0
    failed: int = 0
    loops: int = 0     # loop iterations: rounds or items
    busy_s: float = 0.0
    wall_s: float = 0.0
    scaled_s: float = 0.0
    units: list = field(default_factory=list)  # [kind, items, seconds, scaled seconds]
    errors: list = field(default_factory=list)
    per_generator: dict = field(default_factory=dict)

    def note(self, message):
        if len(self.errors) < 5:
            self.errors.append(message)


def _stop(units, start, seconds, max_units):
    """Stop after max_units, or before a unit that would likely end past the
    deadline (the mean unit so far is the estimate), so that a run of long
    units does not overrun it by more than its first unit."""
    if max_units is not None:
        return units >= max_units
    elapsed = time.perf_counter() - start
    return units > 0 and elapsed * (units + 1) / units > seconds


def reference():
    """Seconds taken by a fixed loop of stdlib Fraction arithmetic."""
    t0 = time.perf_counter()
    third, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 400):
        total += third * Fraction(i, i + 7)
    return time.perf_counter() - t0


class Clock:
    """Times program calls, raw and scaled to the reference's speed.

    The reference is timed once before the first call and after each call,
    and, with tick_s > 0, also every tick_s seconds during a call, from a
    timer signal whose handler's time is taken out of the call's.  A call's
    scaled time uses the mean of the reference times before, during and
    after it, so a call of several seconds is scaled by the host's speed
    over its whole length, not only at its ends.
    """

    def __init__(self, rec, tick_s=TICK_S):
        self.rec = rec
        self.tick_s = tick_s
        self.ref_s = reference()

    def __call__(self, call, *args, **kwargs):
        refs = [self.ref_s]
        paused = 0.0

        def tick(signum, frame):
            nonlocal paused
            t0 = time.perf_counter()
            refs.append(reference())
            paused += time.perf_counter() - t0

        if self.tick_s:
            old = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        t0 = time.perf_counter()
        try:
            out = call(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0 - paused
            if self.tick_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        self.ref_s = reference()
        refs.append(self.ref_s)
        scaled = dt * REF_S * len(refs) / sum(refs)
        self.rec.busy_s += dt
        self.rec.scaled_s += scaled
        return out, dt, scaled


# -- statistics shared by the checks ----------------------------------------


def ess(x):
    """Effective sample size of a chain by Geyer's initial positive sequence."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    x = x - x.mean()
    var = float(x @ x) / n
    if n < 4 or var == 0.0:
        return float(n)
    acf = np.correlate(x, x, mode="full")[n - 1:] / (var * n)
    tau = 1.0
    for k in range(1, n - 1, 2):
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return min(float(n), n / tau)


def ks_two_sample(x, y):
    """Reference two-sample KS statistic, independent of hornlab's."""
    x = np.sort(x)
    y = np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def ks_critical(alpha, n_x, n_y):
    """Asymptotic two-sample KS critical value at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(1.0 / n_x + 1.0 / n_y)


# -- mc-agree-n3 -------------------------------------------------------------


def _project(arr, proj):
    if isinstance(proj, int):
        return arr[:, proj]
    return arr @ np.asarray(proj, dtype=float)


class McAgree:
    name = "mc-agree-n3"
    trace_units = 1

    def lazy_builds(self, hb):
        """The chamber, and one kappa, which builds the concatenated network."""
        hb.find_delta0_chamber(3)
        rng = np.random.default_rng(0)
        hb.kappa(hb.random_interior_pattern(3, rng),
                 hb.random_interior_pattern(3, rng))

    def run(self, hb, seed, seconds=None, max_units=None, tick_s=TICK_S):
        rec = Record()
        per_round = len(GENERATORS) * COUNT
        projections = [0, 1] + list(hb.projection_set(3, seed)[3:])
        pairs = list(itertools.combinations(range(len(GENERATORS)), 2))
        pooled = {g: [] for g in GENERATORS}
        ess_sum = {g: 0.0 for g in GENERATORS}
        gen_s = {g: 0.0 for g in GENERATORS}
        comparisons = []  # (round, statistic, ess_x, ess_y)
        bad = set()       # rounds with a failed check
        rounds = 0
        timed = Clock(rec, tick_s)
        start = time.perf_counter()
        while not _stop(rounds, start, seconds, max_units):
            rnd = rounds
            rounds += 1
            rec.loops = rounds
            rec.attempted += per_round
            samples, stats, call_s = [], [], []
            ks_s = ks_scaled = 0.0
            try:
                for j, name in enumerate(GENERATORS):
                    rng = np.random.default_rng([seed, rnd, j])
                    smp, dt, scaled = timed(getattr(hb, name), R, S, COUNT, rng)
                    gen_s[name] += dt
                    call_s.append((dt, scaled))
                    samples.append(smp)
                for x, y in pairs:
                    for proj in projections:
                        res, dt, scaled = timed(hb.ks_distance, samples[x], samples[y],
                                                projection=proj)
                        ks_s += dt
                        ks_scaled += scaled
                        stats.append((x, y, proj, res.statistic))
                share = len(GENERATORS)
                rec.units.extend([name, COUNT, dt + ks_s / share, scaled + ks_scaled / share]
                                 for name, (dt, scaled) in zip(GENERATORS, call_s))
            except Exception as exc:  # a raised call fails the whole round
                bad.add(rnd)
                rec.note("round %d: %r" % (rnd, exc))
                continue
            arrays, ess_of = [], []
            for name, smp in zip(GENERATORS, samples):
                arr = np.asarray(smp.vectors, dtype=float)
                if arr.shape != (COUNT, 3) or not np.all(np.isfinite(arr)):
                    bad.add(rnd)
                    rec.note("round %d: %s gave shape %s or non-finite values"
                             % (rnd, name, arr.shape))
                    arr = np.zeros((COUNT, 3))
                elif np.max(np.abs(arr[:, -1] - (R[-1] + S[-1]))) > LAST_SLOT_TOL:
                    bad.add(rnd)
                    rec.note("round %d: %s last slot is not r3+s3" % (rnd, name))
                e = min(ess(arr[:, 0]), ess(arr[:, 1]))
                arrays.append(arr)
                ess_of.append(e)
                ess_sum[name] += e
                if len(pooled[name]) * COUNT < POOL_CAP:
                    pooled[name].append(arr)
            for x, y, proj, stat in stats:
                ref = ks_two_sample(_project(arrays[x], proj), _project(arrays[y], proj))
                if abs(ref - stat) > 1e-12:
                    bad.add(rnd)
                    rec.note("round %d: ks_distance %r, reference %r" % (rnd, stat, ref))
                comparisons.append((rnd, stat, ess_of[x], ess_of[y]))
        rec.wall_s = time.perf_counter() - start

        # the pooled samples of each generator are compared once more; the
        # family-wise level is split over every comparison of the run
        pooled_stats = []
        if rounds and all(pooled[g] for g in GENERATORS):
            arrs = [np.concatenate(pooled[g]) for g in GENERATORS]
            effs = [len(a) * ess_sum[g] / (rounds * COUNT)
                    for g, a in zip(GENERATORS, arrs)]
            for x, y in pairs:
                for proj in projections:
                    stat = ks_two_sample(_project(arrs[x], proj), _project(arrs[y], proj))
                    pooled_stats.append((stat, effs[x], effs[y]))
        alpha = KS_ALPHA / max(1, len(comparisons) + len(pooled_stats))
        for rnd, stat, ex, ey in comparisons:
            if stat >= ks_critical(alpha, ex, ey):
                bad.add(rnd)
                rec.note("round %d: KS %.4f over its critical value" % (rnd, stat))
        rec.failed = per_round * len(bad)
        for stat, ex, ey in pooled_stats:
            if stat >= ks_critical(alpha, ex, ey):
                rec.failed = rec.attempted
                rec.note("pooled KS %.4f over its critical value" % stat)

        done = rounds * COUNT
        for name in GENERATORS:
            rec.per_generator[name] = {
                "samples_per_s": done / gen_s[name] if gen_s[name] else 0.0,
                "ess_frac": ess_sum[name] / done if done else 0.0,
            }
        return rec


# -- cone workloads -----------------------------------------------------------


def _cumulative(values):
    out = []
    acc = 0
    for v in values:
        acc += v
        out.append(acc)
    return tuple(out)


def _haar(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def member_triple(hb, key, index):
    """A Hermitian-sum triple from floats: (a, b, c) cumulative, a member."""
    rng = np.random.default_rng([*key, index])
    la = np.sort(rng.standard_normal(N_CONE))[::-1]
    lb = np.sort(rng.standard_normal(N_CONE))[::-1]
    q = _haar(rng, N_CONE)
    lc = np.linalg.eigvalsh(np.diag(la) + q @ np.diag(lb) @ q.conj().T)[::-1]
    return hb.HornTriple(*(_cumulative(float(v) for v in lam) for lam in (la, lb, lc)))


def mixed_pair(hb, key, index):
    """An exact member triple and a non-member derived from it."""
    rng = np.random.default_rng([*key, index])
    la = sorted((Fraction(int(v)) for v in rng.integers(-9, 10, N_CONE)), reverse=True)
    lb = sorted((Fraction(int(v)) for v in rng.integers(-9, 10, N_CONE)), reverse=True)
    perms = list(itertools.permutations(range(N_CONE)))
    picks = rng.choice(len(perms), 3, replace=False)
    weights = [int(v) for v in rng.integers(1, 5, 3)]
    total = sum(weights)
    lc = [Fraction(0)] * N_CONE
    for p, w in zip(picks, weights):
        corner = sorted((la[i] + lb[perms[p][i]] for i in range(N_CONE)), reverse=True)
        lc = [c + Fraction(w, total) * v for c, v in zip(lc, corner)]
    member = hb.HornTriple(_cumulative(la), _cumulative(lb), _cumulative(lc))
    pushed = la[0] + lb[0] + Fraction(int(rng.integers(1, 5)), 2)
    ln = list(lc)
    ln[-1] -= pushed - ln[0]
    ln[0] = pushed
    non_member = hb.HornTriple(_cumulative(la), _cumulative(lb), _cumulative(ln))
    return member, non_member


class Cone:
    """kt_member over a stream of (triple, slack, verdict) items."""

    name = "cone-n4"
    trace_units = 81

    def lazy_builds(self, hb):
        """kt_member builds nothing lazily; set-up is the import alone."""

    def run(self, hb, seed, seconds=None, max_units=None, tick_s=TICK_S):
        rec = Record()
        items = _cone_stream(hb, seed)

        def verdict(triple, slack):
            try:
                return hb.kt_member(triple, slack)
            except Exception as exc:
                return exc

        timed = Clock(rec, tick_s)
        start = time.perf_counter()
        while not _stop(rec.attempted, start, seconds, max_units):
            kind, triple, slack, want = next(items)
            rec.attempted += 1
            rec.loops = rec.attempted
            got, dt, scaled = timed(verdict, triple, slack)
            rec.units.append([kind, 1, dt, scaled])
            if isinstance(got, Exception):
                rec.failed += 1
                rec.note("item %d: %r" % (rec.attempted - 1, got))
            elif got != want:
                rec.failed += 1
                rec.note("item %d: kt_member gave %r, expected %r"
                         % (rec.attempted - 1, got, want))
        rec.wall_s = time.perf_counter() - start
        return rec


def _cone_stream(hb, seed):
    for i in itertools.count():
        yield "float-member", member_triple(hb, [seed, 0], i), MEMBER_SLACK, True
        member, non_member = mixed_pair(hb, [seed, 1], i)
        yield "exact-member", member, Fraction(0), True
        yield "exact-non-member", non_member, Fraction(0), False


WORKLOADS = {wl.name: wl for wl in (McAgree(), Cone())}
