"""Command line interface.

One executable, one subcommand per task.  All randomized commands take an
explicit --seed and their outputs are byte-deterministic functions of their
arguments: floats are printed with repr round-trip formatting, JSON key
order is fixed, and there are no timestamps.

A randomized command's settings are resolved once, before it runs: the
flag wins, then the --config file, then (for the seed only) the
HORNLAB_SEED environment variable, then the built-in default.  A value
reads the same from each source: as text, by its setting's one reader, in
the number grammar of hive.parse_number ('p/q', integer or decimal
literals).  n, count and seed, like gamma0's --n and limit-sweep's
--phase-seed, take whole numbers ('3', '3.0', '6/2') and refuse any other
value with exit 3.  A count must be at least 1.

Exit codes: 0 success / check passed, 1 check failed, 2 usage error
(unknown flag, missing required setting, a path that cannot be opened),
3 precondition violated (malformed input file or number, count below 1,
a threshold or scale that is not positive and finite, repeated scales,
degenerate spectrum, non-generic weighting, pattern outside the cone),
4 internal error (a bug; never reported as a failed check).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .chamber import gamma0_cached, lt_inverse, wbar_from_json, wbar_to_json
from .hive import (format_number, gz_check, hive_check, kt_member,
                   parse_number, tableau_from_json, tableau_to_json,
                   triple_csv_header, triple_from_csv, HornTriple)
from .measure import (GENERATORS, exceptional_mass_estimate,
                      horn_forward_test, ks_distance, limit_sweep,
                      projection_set)
from .network import build_gamma0, network_to_dot, network_to_json
from .paths import tropical_gz

PASS = 0
FAIL = 1
USAGE = 2
PRECONDITION = 3
INTERNAL = 4


class _MissingSetting(Exception):
    pass


def _parse_vector(text):
    return tuple(parse_number(p) for p in text.split(","))


def _integer(name):
    """The reader of an integer setting: a number whose value is whole."""
    def read(text):
        try:
            x = parse_number(text)
            if x.denominator == 1:
                return int(x)
        except ValueError:
            pass
        raise ValueError("%s must be an integer, got %r" % (name, text))
    return read


# The shared flags of the randomized commands, each declared once: its
# argparse keywords, and for a setting, the one reader of its value as
# text, whether it comes from a flag, the config, HORNLAB_SEED or the
# built-in default.  A config value is held to the flag's choices too.
_FLAGS = {
    "generator": ({"choices": tuple(sorted(GENERATORS))}, str),
    "mode": ({"choices": ("tropical", "hermitian", "multiplicative")}, str),
    "n": ({}, _integer("n")),
    "r": ({}, _parse_vector),
    "s": ({}, _parse_vector),
    "count": ({}, _integer("count")),
    "slack": ({}, parse_number),
    "seed": ({}, _integer("seed")),
    "threshold": ({}, lambda v: float(parse_number(v))),
    "taus": ({"help": "comma list of scales"},
             lambda v: [float(x) for x in _parse_vector(v)]),
    "config": ({}, None),
    "out": ({}, None),
}

_REQUIRED = object()

# Each randomized command's settings, in the order they are resolved and
# their flags listed, with the built-in defaults; a _REQUIRED setting that
# is still unset is a usage error.
_SETTINGS = {
    "kappa-sample": {"r": _REQUIRED, "s": _REQUIRED, "count": 100,
                     "seed": 0},
    "sample": {"generator": _REQUIRED, "r": _REQUIRED, "s": _REQUIRED,
               "count": 1000, "seed": 0},
    "measure-compare": {"r": _REQUIRED, "s": _REQUIRED, "count": 10000,
                        "seed": 0, "threshold": 0.02},
    "limit-sweep": {"taus": None},
    "horn-forward": {"mode": _REQUIRED, "n": _REQUIRED, "count": 100,
                     "slack": "1/100000000", "seed": 0},
    "exceptional-mass": {"r": _REQUIRED, "s": _REQUIRED, "count": 1000,
                         "slack": "1/100000000", "seed": 0},
}


def _read_config(path):
    """The --config file: a JSON object over the settings' names whose
    values are text or numbers; a null value leaves its setting unset."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    bad = set(cfg).difference(*_SETTINGS.values())
    if bad:
        raise ValueError("unknown config keys: %s" % ", ".join(sorted(bad)))
    for k, v in cfg.items():
        if isinstance(v, (bool, list, dict)):
            raise ValueError("config key %r must be text or a number" % k)
    return cfg


def _resolve_settings(args):
    """Set args.<name> for every setting of the command: the flag, then the
    config, then HORNLAB_SEED (seed only), then the built-in default."""
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    for name, default in _SETTINGS.get(args.command, {}).items():
        v = getattr(args, name)
        if v is None:
            v = cfg.get(name)
        if v is None and name == "seed":
            v = os.environ.get("HORNLAB_SEED")
        if v is None:
            v = default
        if v is _REQUIRED:
            raise _MissingSetting("--%s is required (as a flag or in the config)"
                                  % name)
        kwargs, read = _FLAGS[name]
        if v not in kwargs.get("choices", (v,)):
            raise ValueError("unknown %s %r" % (name, v))
        setattr(args, name, None if v is None else read(str(v)))


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
    g = build_gamma0(_integer("n")(args.n))
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
        if len(lines) < 2:  # nothing, or a header alone
            raise ValueError("no rows in %s" % args.csv)
        header = lines[0].split(",")
        if len(header) % 3 != 0:
            raise ValueError("header must have 3n columns")
        n = len(header) // 3
        for ln in lines[1:]:
            triples.append(triple_from_csv(ln, n))
    verdicts = [kt_member(tr, slack) for tr in triples]
    lines = ["# slack=%s" % format_number(slack), "index,member"]
    lines += ["%d,%s" % (i, "true" if ok else "false")
              for i, ok in enumerate(verdicts)]
    _emit("\n".join(lines) + "\n", args.out)
    return PASS if all(verdicts) else FAIL


# -- randomized commands -------------------------------------------------------


def _csv_metadata(pairs):
    return ["# %s=%s" % (k, v) for k, v in pairs]


def cmd_sample(args):
    """sample and kappa-sample: the settings block, a header and one row
    per draw; every pattern's top row is r (resp. s), so a kappa-sample
    row is the triple itself, r and s before the draw."""
    triple = args.command == "kappa-sample"
    gen = "tropical-kappa" if triple else args.generator
    sample = GENERATORS[gen](args.r, args.s, args.count,
                             np.random.default_rng(args.seed))
    n = sample.n
    lines = _csv_metadata([("generator", gen), ("n", n),
                           ("r", ",".join(format_number(x) for x in args.r)),
                           ("s", ",".join(format_number(x) for x in args.s)),
                           ("count", args.count), ("seed", args.seed)])
    lines.append(triple_csv_header(n) if triple
                 else ",".join("t%d" % i for i in range(1, n + 1)))
    prefix = [repr(x) for x in sample.r + sample.s] if triple else []
    for vec in sample.array.tolist():
        lines.append(",".join(prefix + [repr(x) for x in vec]))
    _emit("\n".join(lines) + "\n", args.out)
    return PASS


def cmd_measure_compare(args):
    r, s, count, seed = args.r, args.s, args.count, args.seed
    if not 0 < args.threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    n = len(r)
    samples = {}
    for j, name in enumerate(sorted(GENERATORS)):
        rng = np.random.default_rng([seed, j])
        samples[name] = GENERATORS[name](r, s, count, rng)
    names = sorted(GENERATORS)
    # the final slot is the same affine invariant of (r, s) in every model,
    # so its law is an atom: a KS statistic between float-jitter atoms only
    # measures jitter. It is scored by its worst residual instead. At n = 1
    # every direction is +-t1, that atom, so nothing is KS-scored.
    projections = [p for p in projection_set(n, seed)
                   if not (isinstance(p, int) and p == n - 1)] if n > 1 else []
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
        resid = float(np.max(np.abs(samples[name].array[:, -1] - total)))
        worst = max(worst, resid)
        identity.append({"generator": name, "projection": "t%d" % n,
                         "residual": resid})
    report = {
        "n": n,
        "r": [float(x) for x in r],
        "s": [float(x) for x in s],
        "count": count,
        "seed": seed,
        "threshold": args.threshold,
        "pairs": pairs,
        "total_identity": identity,
        "max_statistic": worst,
        "pass": worst < args.threshold,
    }
    _emit(_json_text(report), args.out)
    return PASS if worst < args.threshold else FAIL


def cmd_limit_sweep(args):
    w = wbar_from_json(_read_json(args.weights))
    if args.taus is None:
        raise ValueError("no scales given; pass --taus or set taus in the config")
    phases = None
    if args.phase_seed is not None:
        rng = np.random.default_rng(_integer("phase-seed")(args.phase_seed))
        g = gamma0_cached(w.n)
        angles = rng.uniform(0.0, 2 * np.pi, size=len(g.edges))
        phases = {e: complex(np.cos(a), np.sin(a))
                  for e, a in zip(g.edges, angles)}
    res = limit_sweep(w, args.taus, phases)
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
    rep = horn_forward_test(args.mode, args.n, args.count, args.slack,
                            np.random.default_rng(args.seed))
    print("mode=%s n=%d count=%d failures=%d pass_rate=%s"
          % (rep.mode, rep.n, rep.count, len(rep.failures),
             repr(rep.pass_rate)))
    return PASS if rep.pass_rate == 1.0 else FAIL


def cmd_exceptional_mass(args):
    mass = exceptional_mass_estimate(args.r, args.s, args.count, args.slack,
                                     np.random.default_rng(args.seed))
    print("mass=%s count=%d slack=%s"
          % (repr(mass), args.count, format_number(args.slack)))
    return PASS if mass == 0.0 else FAIL


def build_parser():
    top = argparse.ArgumentParser(
        prog="hornlab",
        description="Tropical, Hermitian and multiplicative Horn problems "
                    "at desk scale.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *flags):
        p = sub.add_parser(name, help=help_)
        for f in tuple(_SETTINGS.get(name, ())) + flags:
            p.add_argument("--" + f, **_FLAGS[f][0])
        p.set_defaults(func=fn)
        return p

    p = add("gamma0", cmd_gamma0, "emit the reference network")
    p.add_argument("--n", required=True)
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

    add("kappa-sample", cmd_sample, "sample tropical product spectra",
        "config", "out")
    add("sample", cmd_sample, "draw from one of the three generators",
        "config", "out")
    add("measure-compare", cmd_measure_compare,
        "pairwise KS distances between the three generators", "config", "out")
    p = add("limit-sweep", cmd_limit_sweep, "scaling-limit error curve",
            "config", "out")
    p.add_argument("--weights", required=True)
    p.add_argument("--phase-seed", dest="phase_seed")
    add("horn-forward", cmd_horn_forward,
        "random instances must land in the cone", "config")
    add("exceptional-mass", cmd_exceptional_mass,
        "fraction of hermitian-sum spectra outside the cone", "config")
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse reads '--flag=--' as []
        parser.error("an option is missing its value")
    try:
        _resolve_settings(args)
        return args.func(args)
    except (ValueError, RuntimeError, OSError, _MissingSetting) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE if isinstance(exc, (OSError, _MissingSetting)) \
            else PRECONDITION
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
