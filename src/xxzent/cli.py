"""Command-line interface.

Subcommands: moments, concurrence, sweep, limit-temp, limit-field, figure,
compare. Energies are in units of v unless --v is given (k = 1 throughout).

Exit codes: 0 ok, 2 invalid arguments, 3 numerical failure
(breakdown/quadrature or another package error), 4 tier not applicable at
every point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (BreakdownError, DomainError, QuadratureError,
                     XxzentError)
from .model import ModelParams
from .sweep import (CSV_COLUMNS, GridAxis, SweepSpec, check_tier,
                    evaluate_point, limit_field, limit_temperature,
                    points_to_csv, points_to_json, run_sweep, TIERS)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_NOT_APPLICABLE = 4


def _read_config(path):
    """key=value lines; '#' comments; keys match the long CLI flags."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {raw.rstrip()}")
            k, v = (s.strip() for s in line.split("=", 1))
            out[k.replace("-", "_")] = v
    return out


def _parse_grid(text) -> GridAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError(
            "grid must be axis:min:max:count[:log], e.g. b:0:1.1:50")
    name, lo, hi, count, *scale = parts
    try:     # a DomainError is a ValueError
        return GridAxis(name, float(lo), float(hi), int(count), *scale)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_model_args(p, with_t=True, with_b=True):
    p.add_argument("--n", type=int, required=True, help="number of spins")
    p.add_argument("--v", type=float, default=1.0,
                   help="coupling strength (energy unit; default 1)")
    p.add_argument("--gamma", type=float, default=1.0, help="anisotropy <= 1")
    if with_b:
        p.add_argument("--b", type=float, default=0.0, help="transverse field")
    if with_t:
        p.add_argument("--T", type=float, default=0.0,
                       help="temperature (0 selects the ground state)")


def _add_common(p):
    p.add_argument("--tier", choices=TIERS, default="exact")
    p.add_argument("--config", help="key=value file with default options")
    p.add_argument("--out-format", choices=["csv", "json"], default="csv")
    p.add_argument("--out-dir", help="write output files here instead of stdout")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="xxzent",
        description="Thermal pairwise entanglement in the fully connected "
                    "XXZ model (exact / CSPA / CMFA tiers and their degraded "
                    "SPA / MFA modes).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="collective moments at one point")
    _add_model_args(p)
    _add_common(p)

    p = sub.add_parser("concurrence", help="concurrence at one point")
    _add_model_args(p)
    _add_common(p)

    p = sub.add_parser("sweep", help="evaluate a tier over a (b, T) grid")
    _add_model_args(p)
    _add_common(p)
    p.add_argument("--grid", action="append", type=_parse_grid, required=True,
                   metavar="AXIS:MIN:MAX:COUNT[:log]",
                   help="sweep axis; repeat for a 2D grid")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("limit-temp", help="largest T with C > 0 at fixed b")
    _add_model_args(p, with_t=False)
    _add_common(p)
    p.add_argument("--t-min", type=float)
    p.add_argument("--t-max", type=float)
    p.add_argument("--probes", type=int, default=60)

    p = sub.add_parser("limit-field", help="largest b with C > 0 at fixed T")
    _add_model_args(p, with_b=False)
    _add_common(p)
    p.add_argument("--b-min", type=float, default=0.0)
    p.add_argument("--b-max", type=float)
    p.add_argument("--probes", type=int, default=60)

    p = sub.add_parser("figure", help="emit CSV + gnuplot data for figure 1-5")
    p.add_argument("--id", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help=argparse.SUPPRESS)

    p = sub.add_parser("compare",
                       help="run two tiers on one grid, report C differences")
    _add_model_args(p)
    _add_common(p)
    p.add_argument("--tier-b", choices=TIERS, required=True,
                   help="second tier (first one comes from --tier)")
    p.add_argument("--grid", action="append", type=_parse_grid, required=True)
    p.add_argument("--workers", type=int, default=1)
    return ap


def _read_config_options(parser, argv):
    """The options that the --config file of ``argv`` sets, read before the
    command line is parsed: {dest: value}, each value parsed by the
    subcommand's own action for that option. Each such option loses its
    default and its required mark, so that the file can supply it; the
    caller fills in the ones that no flag gave (explicit flags win)."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(argv[0]) if argv else None
    if sub is None:
        return {}
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if not path:
        return {}
    try:
        cfg = _read_config(path)
    except OSError as err:
        raise DomainError(f"cannot read config file: {err}") from None
    actions = {a.dest: a for a in sub._actions
               if a.default is not argparse.SUPPRESS}
    values = {}
    for key, raw in cfg.items():
        if key not in actions:
            raise DomainError(f"unknown config key {key!r}")
        action = actions[key]
        parse = action.type or str
        try:
            value = ([parse(g) for g in raw.split()] if key == "grid"
                     else parse(raw))
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"not one of {list(action.choices)}")
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise DomainError(f"config key {key!r}: {err}") from None
        values[key] = value
        action.default, action.required = None, False
    return values


def _params_from(args, t_default=0.0):
    return ModelParams(n=args.n, v=args.v, gamma=args.gamma,
                       b=getattr(args, "b", 0.0),
                       T=getattr(args, "T", t_default))


def _emit(args, text, name):
    if getattr(args, "out_dir", None):
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _points_out(args, points, spec=None, name="points"):
    if args.out_format == "json":
        _emit(args, points_to_json(points, spec), f"{name}.json")
    else:
        _emit(args, points_to_csv(points), f"{name}.csv")


def _status_exit(statuses):
    """The exit code of a command whose points or probes had ``statuses``."""
    statuses = set(statuses)
    if statuses and statuses <= {"not-applicable"}:
        return EXIT_NOT_APPLICABLE
    if statuses and statuses <= {"breakdown", "error", "not-applicable"}:
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_point(args, with_c):
    check_tier(args.tier, args.n)
    pt = evaluate_point(args.tier, _params_from(args))
    if pt.status != "ok":
        print(f"status: {pt.status} ({pt.message})", file=sys.stderr)
        return _status_exit([pt.status])
    cols = CSV_COLUMNS if with_c else tuple(
        c for c in CSV_COLUMNS if c not in ("C", "nC", "EoF"))
    if args.out_format == "json":
        _points_out(args, [pt], name="point")
    else:
        _emit(args, points_to_csv([pt], columns=cols), "point.csv")
    return EXIT_OK


def _cmd_sweep(args):
    spec = SweepSpec(tier=args.tier, fixed=_params_from(args),
                     axes=tuple(args.grid))
    points = run_sweep(spec, workers=args.workers)
    _points_out(args, points, spec, name="sweep")
    return _status_exit(pt.status for pt in points)


def _limit_text(res, axis):
    lines = []
    if "ok" not in res.statuses:
        lines.append(f"no {axis} probe was defined (every probe's status "
                     "was breakdown, not-applicable or error)")
    elif res.limit is None and not res.intervals:
        lines.append(f"no entanglement found on the {axis} probe grid "
                     "(zero-entanglement marker)")
    for lo, hi in res.intervals:
        hi_s = "open" if hi is None else f"{hi:.8g}"
        lines.append(f"band: {lo:.8g} .. {hi_s}")
    if res.limit is not None:
        lines.append(f"limit: {res.limit:.8g}")
    elif res.intervals:
        lines.append(f"limit: none (the last band is still open at the top "
                     f"of the {axis} probe grid)")
    return "\n".join(lines) + "\n"


def _cmd_limit(args, which):
    tier = args.tier
    if which == "T":
        params = _params_from(args, t_default=1.0)
        res = limit_temperature(tier, params, t_min=args.t_min,
                                t_max=args.t_max, probes=args.probes)
    else:
        params = _params_from(args)
        res = limit_field(tier, params, b_min=args.b_min, b_max=args.b_max,
                          probes=args.probes)
    if args.out_format == "json":
        doc = {"tier": tier, "axis": which,
               "intervals": [[lo, hi] for lo, hi in res.intervals],
               "limit": res.limit}
        _emit(args, json.dumps(doc, indent=1) + "\n", "limit.json")
    else:
        _emit(args, _limit_text(res, which), "limit.txt")
    return _status_exit(res.statuses)


def _cmd_figure(args):
    from .figures import reproduce_figure
    files = reproduce_figure(args.id, args.out_dir)
    for f in files:
        print(f)
    return EXIT_OK


def _cmd_compare(args):
    spec_a = SweepSpec(tier=args.tier, fixed=_params_from(args),
                       axes=tuple(args.grid))
    spec_b = SweepSpec(tier=args.tier_b, fixed=_params_from(args),
                       axes=tuple(args.grid))
    pa = run_sweep(spec_a, workers=args.workers)
    pb = run_sweep(spec_b, workers=args.workers)
    diffs = []
    for a, b in zip(pa, pb):
        if a.status == "ok" and b.status == "ok":
            diffs.append(abs(a.result.concurrence - b.result.concurrence))
    if not diffs:
        print("no grid point where both tiers are ok", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    print(f"points compared: {len(diffs)} / {len(pa)}")
    print(f"max |dC|:  {max(diffs):.6e}")
    print(f"mean |dC|: {sum(diffs) / len(diffs):.6e}")
    return EXIT_OK


_COMMANDS = {
    "moments": lambda args: _cmd_point(args, with_c=False),
    "concurrence": lambda args: _cmd_point(args, with_c=True),
    "sweep": _cmd_sweep,
    "limit-temp": lambda args: _cmd_limit(args, "T"),
    "limit-field": lambda args: _cmd_limit(args, "b"),
    "figure": _cmd_figure,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        config = _read_config_options(parser, argv)
        args = parser.parse_args(argv)
        for key, value in config.items():
            if getattr(args, key) is None:      # no flag gave it
                setattr(args, key, value)
        return _COMMANDS[args.command](args)
    except (BreakdownError, QuadratureError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_USAGE
    except XxzentError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
