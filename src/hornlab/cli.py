"""Command line interface.

One executable, one subcommand per task.  All randomized commands take an
explicit --seed (falling back to the HORNLAB_SEED environment variable,
then to 0) and their outputs are byte-deterministic functions of their
arguments: floats are printed with repr round-trip formatting, JSON key
order is fixed, and there are no timestamps.

Exit codes: 0 success / check passed, 1 check failed, 2 usage error,
3 precondition violated (degenerate spectrum, non-generic weighting,
pattern outside the cone).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .chamber import gamma0_cached, lt_inverse, wbar_from_json, wbar_to_json
from .hive import (GZ, HIVE, Tableau, format_number, gz_check, hive_check,
                   kt_member, parse_number, tableau_from_json,
                   tableau_to_json, triple_csv_header, triple_from_csv,
                   triple_to_csv, HornTriple)
from .measure import (CHUNK, GENERATORS, exceptional_mass_estimate,
                      horn_forward_test, ks_distance, limit_sweep,
                      projection_set, sample_tropical_kappa)
from .network import build_gamma0, network_to_dot, network_to_json
from .paths import tropical_gz

PASS = 0
FAIL = 1
USAGE = 2
PRECONDITION = 3


@dataclass
class ExperimentConfig:
    """Defaults for the randomized commands, loadable from JSON.

    Command line flags win over config values, which win over built-in
    defaults.  Round-trips losslessly through its JSON form.
    """

    seed: object = None
    count: object = None
    r: object = None
    s: object = None
    slack: object = None
    threshold: object = None
    taus: object = None
    generator: object = None
    mode: object = None
    n: object = None

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    @classmethod
    def from_json(cls, d):
        known = {f.name for f in fields(cls)}
        bad = set(d) - known
        if bad:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(bad)))
        return cls(**d)


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_json(json.load(fh))


def _setting(args, cfg, name, default=None):
    v = getattr(args, name, None)
    if v is not None:
        return v
    if cfg is not None:
        v = getattr(cfg, name, None)
        if v is not None:
            return v
    return default


class _MissingSetting(Exception):
    pass


def _required(args, cfg, name):
    v = _setting(args, cfg, name)
    if v is None:
        raise _MissingSetting("--%s is required (as a flag or in the config)" % name)
    return v


def _resolve_seed(args, cfg):
    v = _setting(args, cfg, "seed")
    if v is None:
        v = os.environ.get("HORNLAB_SEED")
    return 0 if v is None else int(v)


def _parse_vector(text):
    return tuple(parse_number(p) for p in str(text).split(","))


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


# -- structural commands -----------------------------------------------------


def cmd_gamma0(args):
    g = build_gamma0(args.n)
    if args.format == "dot":
        _emit(network_to_dot(g), args.out)
    else:
        _emit(_json_text(network_to_json(g)), args.out)
    return PASS


def cmd_trop_gz(args):
    w = wbar_from_json(_read_json(args.weights))
    g = gamma0_cached(w.n)
    t = tropical_gz(g, w.embed(g))
    _emit(_json_text(tableau_to_json(t)), args.out)
    return PASS


def cmd_lt_inverse(args):
    t = tableau_from_json(_read_json(args.pattern))
    w = lt_inverse(t)
    _emit(_json_text(wbar_to_json(w)), args.out)
    return PASS


def cmd_gz_check(args):
    t = tableau_from_json(_read_json(args.pattern))
    ok = gz_check(t, parse_number(args.delta))
    print("pass" if ok else "fail")
    return PASS if ok else FAIL


def cmd_hive_check(args):
    t = tableau_from_json(_read_json(args.tableau))
    ok = hive_check(t)
    print("pass" if ok else "fail")
    return PASS if ok else FAIL


def cmd_kt_member(args):
    slack = parse_number(args.slack)
    if (args.csv is None) == (args.triple is None):
        raise ValueError("give exactly one of --csv or --triple")
    triples = []
    if args.triple is not None:
        vals = _parse_vector(args.triple)
        if len(vals) % 3 != 0:
            raise ValueError("triple needs 3n values")
        n = len(vals) // 3
        triples.append(HornTriple(vals[:n], vals[n:2 * n], vals[2 * n:]))
    else:
        with open(args.csv, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh
                     if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise ValueError("no rows in %s" % args.csv)
        header = lines[0].split(",")
        if len(header) % 3 != 0:
            raise ValueError("header must have 3n columns")
        n = len(header) // 3
        for ln in lines[1:]:
            triples.append(triple_from_csv(ln, n))
    lines = ["# slack=%s" % format_number(slack), "index,member"]
    all_ok = True
    for i, tr in enumerate(triples):
        ok = kt_member(tr, slack)
        all_ok = all_ok and ok
        lines.append("%d,%s" % (i, "true" if ok else "false"))
    _emit("\n".join(lines) + "\n", args.out)
    return PASS if all_ok else FAIL


# -- randomized commands -------------------------------------------------------


def _csv_metadata(pairs):
    return ["# %s=%s" % (k, v) for k, v in pairs]


def cmd_kappa_sample(args):
    cfg = _load_config(args.config) if args.config else None
    r = _parse_vector(_required(args, cfg, "r"))
    s = _parse_vector(_required(args, cfg, "s"))
    count = int(_setting(args, cfg, "count", 100))
    seed = _resolve_seed(args, cfg)
    sample = sample_tropical_kappa(r, s, count, np.random.default_rng(seed))
    n = sample.n
    rstr = ",".join(format_number(x) for x in r)
    sstr = ",".join(format_number(x) for x in s)
    lines = _csv_metadata([("generator", "tropical-kappa"), ("n", n),
                           ("r", rstr), ("s", sstr),
                           ("count", count), ("seed", seed)])
    lines.append(triple_csv_header(n))
    # every pattern's top row is r (resp. s), so a row is the triple itself
    prefix = ",".join(format_number(x) for x in sample.r + sample.s)
    for vec in sample.vectors:
        lines.append(",".join([prefix] + [format_number(x) for x in vec]))
    _emit("\n".join(lines) + "\n", args.out)
    return PASS


def cmd_sample(args):
    cfg = _load_config(args.config) if args.config else None
    gen = _required(args, cfg, "generator")
    if gen not in GENERATORS:
        raise ValueError("unknown generator %r" % (gen,))
    r = _parse_vector(_required(args, cfg, "r"))
    s = _parse_vector(_required(args, cfg, "s"))
    count = int(_setting(args, cfg, "count", 1000))
    seed = _resolve_seed(args, cfg)
    rng = np.random.default_rng(seed)
    sample = GENERATORS[gen](r, s, count, rng, seed=seed)
    n = sample.n
    lines = _csv_metadata([("generator", gen), ("n", n),
                           ("r", ",".join(format_number(x) for x in r)),
                           ("s", ",".join(format_number(x) for x in s)),
                           ("count", count), ("seed", seed),
                           ("chunk", CHUNK)])
    lines.append(",".join("t%d" % i for i in range(1, n + 1)))
    for vec in sample.vectors:
        lines.append(",".join(repr(float(x)) for x in vec))
    _emit("\n".join(lines) + "\n", args.out)
    return PASS


def cmd_measure_compare(args):
    cfg = _load_config(args.config) if args.config else None
    r = _parse_vector(_required(args, cfg, "r"))
    s = _parse_vector(_required(args, cfg, "s"))
    count = int(_setting(args, cfg, "count", 10000))
    seed = _resolve_seed(args, cfg)
    threshold = float(_setting(args, cfg, "threshold", 0.02))
    n = len(r)
    samples = {}
    for j, name in enumerate(sorted(GENERATORS)):
        rng = np.random.default_rng([seed, j])
        samples[name] = GENERATORS[name](r, s, count, rng, seed=seed)
    names = sorted(GENERATORS)
    # the final slot is the same affine invariant of (r, s) in every model,
    # so its law is an atom: a KS statistic between float-jitter atoms only
    # measures jitter. It is scored by its worst residual instead.
    projections = [p for p in projection_set(n, seed)
                   if not (isinstance(p, int) and p == n - 1)]
    total = float(r[-1]) + float(s[-1])
    pairs = []
    worst = 0.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            for p, proj in enumerate(projections):
                label = ("t%d" % (proj + 1)) if isinstance(proj, int) \
                    else ("p%d" % (p - n + 2))
                stat = ks_distance(samples[names[i]], samples[names[j]],
                                   proj).statistic
                worst = max(worst, stat)
                pairs.append({"x": names[i], "y": names[j],
                              "projection": label, "statistic": stat})
    identity = []
    for name in names:
        resid = max(abs(v[-1] - total) for v in samples[name].vectors)
        worst = max(worst, resid)
        identity.append({"generator": name, "projection": "t%d" % n,
                         "residual": resid})
    report = {
        "n": n,
        "r": [float(x) for x in r],
        "s": [float(x) for x in s],
        "count": count,
        "seed": seed,
        "threshold": threshold,
        "pairs": pairs,
        "total_identity": identity,
        "max_statistic": worst,
        "pass": worst < threshold,
    }
    _emit(_json_text(report), args.out)
    return PASS if worst < threshold else FAIL


def cmd_limit_sweep(args):
    cfg = _load_config(args.config) if args.config else None
    w = wbar_from_json(_read_json(args.weights))
    given = _setting(args, cfg, "taus")
    if given is None:
        raise ValueError("no scales given; pass --taus or set taus in the config")
    taus = [float(parse_number(p)) for p in str(given).split(",")]
    phases = None
    if args.phase_seed is not None:
        rng = np.random.default_rng(int(args.phase_seed))
        g = gamma0_cached(w.n)
        angles = rng.uniform(0.0, 2 * np.pi, size=len(g.edges))
        phases = {e: complex(np.cos(a), np.sin(a))
                  for e, a in zip(g.edges, angles)}
    res = limit_sweep(w, taus, phases)
    lines = _csv_metadata([("n", w.n),
                           ("delta", repr(res.delta)),
                           ("slope", "none" if res.slope is None
                            else repr(res.slope))])
    lines.append("tau,error")
    for t, e in zip(res.taus, res.errors):
        lines.append("%s,%s" % (repr(t), repr(e)))
    _emit("\n".join(lines) + "\n", args.out)
    return PASS


def cmd_horn_forward(args):
    cfg = _load_config(args.config) if args.config else None
    mode = _required(args, cfg, "mode")
    n = int(_required(args, cfg, "n"))
    count = int(_setting(args, cfg, "count", 100))
    slack = parse_number(str(_setting(args, cfg, "slack", "0")))
    seed = _resolve_seed(args, cfg)
    rng = np.random.default_rng(seed)
    rep = horn_forward_test(mode, n, count, slack, rng)
    print("mode=%s n=%d count=%d failures=%d pass_rate=%s"
          % (rep.mode, rep.n, rep.count, len(rep.failures),
             repr(rep.pass_rate)))
    return PASS if rep.pass_rate == 1.0 else FAIL


def cmd_exceptional_mass(args):
    cfg = _load_config(args.config) if args.config else None
    r = _parse_vector(_required(args, cfg, "r"))
    s = _parse_vector(_required(args, cfg, "s"))
    count = int(_setting(args, cfg, "count", 1000))
    slack = parse_number(str(_setting(args, cfg, "slack", "1/100000000")))
    seed = _resolve_seed(args, cfg)
    rng = np.random.default_rng(seed)
    mass = exceptional_mass_estimate(r, s, count, slack, rng)
    print("mass=%s count=%d slack=%s" % (repr(mass), count, format_number(slack)))
    return PASS if mass == 0.0 else FAIL


def build_parser():
    top = argparse.ArgumentParser(
        prog="hornlab",
        description="Tropical, Hermitian and multiplicative Horn problems "
                    "at desk scale.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        return p

    p = add("gamma0", cmd_gamma0, "emit the reference network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")

    p = add("trop-gz", cmd_trop_gz, "pattern triangle of a reduced weighting")
    p.add_argument("--weights", required=True, help="reduced weighting JSON ('-' for stdin)")
    p.add_argument("--out")

    p = add("lt-inverse", cmd_lt_inverse, "invert a pattern to a reduced weighting")
    p.add_argument("--pattern", required=True, help="tableau JSON ('-' for stdin)")
    p.add_argument("--out")

    p = add("gz-check", cmd_gz_check, "interlacing test for a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--delta", default="0")

    p = add("hive-check", cmd_hive_check, "all three hive families")
    p.add_argument("--tableau", required=True)

    p = add("kt-member", cmd_kt_member, "cone membership of boundary triples")
    p.add_argument("--csv", help="CSV of triples (a1..an,b1..bn,c1..cn)")
    p.add_argument("--triple", help="inline comma list of 3n values")
    p.add_argument("--slack", default="0")
    p.add_argument("--out")

    p = add("kappa-sample", cmd_kappa_sample, "sample tropical product spectra")
    p.add_argument("--r")
    p.add_argument("--s")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out")

    p = add("sample", cmd_sample, "draw from one of the three generators")
    p.add_argument("--generator", choices=tuple(sorted(GENERATORS)))
    p.add_argument("--r")
    p.add_argument("--s")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out")

    p = add("measure-compare", cmd_measure_compare,
            "pairwise KS distances between the three generators")
    p.add_argument("--r")
    p.add_argument("--s")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--config")
    p.add_argument("--out")

    p = add("limit-sweep", cmd_limit_sweep, "scaling-limit error curve")
    p.add_argument("--weights", required=True)
    p.add_argument("--taus", help="comma list of scales")
    p.add_argument("--phase-seed", type=int, dest="phase_seed")
    p.add_argument("--config")
    p.add_argument("--out")

    p = add("horn-forward", cmd_horn_forward,
            "random instances must land in the cone")
    p.add_argument("--mode", choices=("tropical", "hermitian", "multiplicative"))
    p.add_argument("--n", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--slack")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")

    p = add("exceptional-mass", cmd_exceptional_mass,
            "fraction of hermitian-sum spectra outside the cone")
    p.add_argument("--r")
    p.add_argument("--s")
    p.add_argument("--count", type=int)
    p.add_argument("--slack")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return PRECONDITION
    except (FileNotFoundError, _MissingSetting) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
