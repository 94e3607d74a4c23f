"""Command line front end.

One subcommand per operation: table exports (dist, cumulants, expand,
couple, check-assumptions), the whole-range scans (scan-be,
scan-edgeworth, scan-transport, scan-moments, scan-stationary), and
`run`, which executes a scenario file or named preset and writes the
full report bundle.

Exit codes: 0 success, 1 a scan verdict failed (unflagged), 2 usage or
configuration error.
"""

import argparse
import sys

from .. import __version__
from ..edgeworth import check_corrections, check_order
from ..transport import _order, gaussian_coupling
from .scans import (
    _check_ps,
    _x_grid,
    scan_assumptions,
    scan_coupling,
    scan_moments,
    scan_nonuniform,
    scan_stationarity,
    scan_transport,
)
from .scenario import (
    ScenarioError,
    _json_cell,
    _parse_list,
    format_table,
    load_scenario,
    resolve_model,
    run_scenario,
    scenario_presets,
    write_table,
)

__all__ = ["main", "build_parser"]


def _list_arg(parse, what):
    """argparse type around a scenario list parser; empty lists are refused."""

    def convert(raw):
        try:
            vals = parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("expected comma separated %s, got %r: %s" % (what, raw, exc))
        if not vals:
            raise argparse.ArgumentTypeError("empty list")
        return vals

    return convert


_int_list = _list_arg(lambda raw: _parse_list(int, raw), "integers")
_p_list = _list_arg(lambda raw: _check_ps(_parse_list(float, raw)), "orders")  # refused before any law


def _add_model(sp):
    sp.add_argument(
        "--model",
        required=True,
        help="builtin:<name> or path to a chain description file",
    )


def _add_common(sp, ns_default="8,16,32,64,128,256"):
    sp.add_argument("--n", type=_int_list, default=ns_default, metavar="N1,N2,..")
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgekit",
        description="corrected normal approximations and transport scans for dependent sums",
    )
    parser.add_argument("--version", action="version", version="edgekit %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dist", help="export the exact law of S_n")
    _add_model(sp)
    _add_common(sp, ns_default="64")
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("cumulants", help="cumulants of S_n up to a given order")
    _add_model(sp)
    _add_common(sp, ns_default="64")
    sp.add_argument("--m", type=int, default=4, help="highest cumulant order")
    sp.set_defaults(func=cmd_cumulants)

    sp = sub.add_parser("expand", help="tabulate the corrected approximation")
    _add_model(sp)
    _add_common(sp, ns_default="64")
    sp.add_argument("--m", type=int, default=4, help="build order of the approximation")
    sp.add_argument("--r", type=int, default=None, help="corrections kept (default m-2)")
    sp.add_argument("--grid-max", type=float, default=8.0)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("scan-be", help="weighted normal-approximation error across n")
    _add_model(sp)
    _add_common(sp)
    sp.add_argument("--m", type=int, default=3, help="weight power (1+|x|)^m")
    sp.add_argument("--grid-max", type=float, default=8.0)
    sp.set_defaults(func=cmd_scan_be)

    sp = sub.add_parser("scan-edgeworth", help="weighted corrected-approximation error across n")
    _add_model(sp)
    _add_common(sp)
    sp.add_argument("--m", type=int, default=4, help="build order of the approximation")
    sp.add_argument("--r", type=int, default=1, help="corrections kept")
    sp.add_argument("--grid-max", type=float, default=8.0)
    sp.set_defaults(func=cmd_scan_edgeworth)

    sp = sub.add_parser("scan-transport", help="transport distances to the normal across n")
    _add_model(sp)
    _add_common(sp)
    sp.add_argument("--m", type=int, default=None, help="build order (default from r)")
    sp.add_argument("--r", type=int, default=0, help="corrections in the comparison law")
    sp.add_argument("--p", type=_p_list, default=(1, 2), metavar="P1,P2,..")
    sp.set_defaults(func=cmd_scan_transport)

    sp = sub.add_parser("scan-moments", help="moments of W against the corrected law across n")
    _add_model(sp)
    _add_common(sp)
    sp.add_argument("--r", type=int, default=0, help="corrections in the comparison law")
    sp.add_argument("--q", type=_int_list, default=(2, 3, 4), metavar="Q1,Q2,..")
    sp.set_defaults(func=cmd_scan_moments)

    sp = sub.add_parser("scan-stationary", help="correction shape against its large-n limit")
    _add_model(sp)
    _add_common(sp)
    sp.add_argument("--m", type=int, default=4, help="build order of the approximation")
    sp.set_defaults(func=cmd_scan_stationary)

    sp = sub.add_parser("couple", help="same-probability-space normal coupling")
    _add_model(sp)
    _add_common(sp, ns_default="64")
    sp.add_argument("--p", type=float, default=2, help="transport order of the distance")
    sp.add_argument("--target", type=float, default=None, help="block variance target")
    sp.set_defaults(func=cmd_couple)

    sp = sub.add_parser("check-assumptions", help="derivative and tail diagnostics across n")
    _add_model(sp)
    _add_common(sp)
    sp.add_argument("--m", type=int, default=4, help="derivative order probed")
    sp.add_argument("--eps", type=float, default=None, help="frequency window half width")
    sp.set_defaults(func=cmd_check_assumptions)

    sp = sub.add_parser("run", help="run a scenario file or preset")
    sp.add_argument("scenario", help="path to a scenario file, or one of: %s" % ", ".join(scenario_presets()))
    sp.add_argument("--out", default=None, help="report directory (overrides the file)")
    sp.set_defaults(func=cmd_run)

    return parser


# -- output -------------------------------------------------------------------


def _emit(args, header, rows, meta=None):
    if args.out:
        write_table(args.out, header, rows, meta=meta, fmt=args.fmt)
    else:
        sys.stdout.write(format_table(header, rows, meta=meta, fmt=args.fmt))


def _report(args, rep):
    """Emit a scan report with its summary; exit 1 when it failed."""
    header, rows = rep.rows()
    _emit(args, header, rows, meta={"summary": rep.summary()})
    return 1 if rep.failed() else 0


def _single_n(args):
    if len(args.n) != 1:
        raise ScenarioError("this command needs exactly one --n value, got %r" % (args.n,))
    return args.n[0]


# -- subcommands --------------------------------------------------------------


def cmd_dist(args):
    model = resolve_model(args.model)
    n = _single_n(args)
    dist = model.distribution(n)
    if hasattr(dist, "csv_rows"):
        header = ("value", "mass")
        rows = dist.csv_rows()
    else:
        width = max(c.size for c in dist.coeffs)
        header = ("cell_lo", "cell_hi") + tuple("c%d" % k for k in range(width))
        rows = []
        for i, c in enumerate(dist.coeffs):
            pad = tuple(float(v) for v in c) + (0.0,) * (width - c.size)
            rows.append((float(dist.breaks[i]), float(dist.breaks[i + 1])) + pad)
    _emit(args, header, rows, meta={"model": model.name, "n": n, "sigma": float(model.sigma(n))})
    return 0


def cmd_cumulants(args):
    model = resolve_model(args.model)
    n = _single_n(args)
    if not 1 <= args.m <= 16:
        raise ScenarioError("--m must be in [1, 16]")
    kappas = model.cumulants(n, args.m)
    sigma = model.sigma(n)
    rows = [(q, kq, kq / sigma**q) for q, kq in enumerate(kappas, start=1)]
    _emit(args, ("order", "raw", "normalized"), rows,
          meta={"model": model.name, "n": n, "sigma": float(sigma)})
    return 0


def cmd_expand(args):
    model = resolve_model(args.model)
    n = _single_n(args)
    m = check_order(args.m)
    r = check_corrections(m - 2 if args.r is None else args.r, m)
    x = _x_grid(args.grid_max)
    exp = model.expansion(n, r)
    cdf, pdf = exp.cdf(x), exp.pdf(x)
    rows = [(float(xi), float(ci), float(pi)) for xi, ci, pi in zip(x, cdf, pdf)]
    _emit(args, ("x", "cdf", "pdf"), rows,
          meta={"model": model.name, "n": n, "m": m, "r": r,
                "sigma": float(model.sigma(n))})
    return 0


def cmd_scan_be(args):
    model = resolve_model(args.model)
    return _report(args, scan_nonuniform(model, args.m, 0, args.n, grid_max=args.grid_max))


def cmd_scan_edgeworth(args):
    model = resolve_model(args.model)
    return _report(args, scan_nonuniform(model, args.m, args.r, args.n, grid_max=args.grid_max))


def cmd_scan_transport(args):
    model = resolve_model(args.model)
    return _report(args, scan_transport(model, args.p, args.n, r=args.r, m=args.m))


def cmd_scan_moments(args):
    model = resolve_model(args.model)
    return _report(args, scan_moments(model, args.q, args.r, args.n))


def cmd_scan_stationary(args):
    model = resolve_model(args.model)
    return _report(args, scan_stationarity(model, args.m, args.n))


def cmd_couple(args):
    model = resolve_model(args.model)
    if model.kind != "chain":
        raise ScenarioError("coupling needs a chain model, got %r" % model.kind)
    p = _order(args.p)
    if len(args.n) > 1:
        return _report(args, scan_coupling(model, args.n, p=p, target=args.target))
    n = args.n[0]
    distance = gaussian_coupling(model, n, p=p, target=args.target)
    prof = model.blocking(n, target=args.target)
    rows = [
        (k, float(s2), float(a), float(b))
        for k, (s2, a, b) in enumerate(zip(prof.sigma2, prof.a, prof.b))
    ]
    _emit(args, ("k", "var_s_k", "block_var", "remainder"), rows,
          meta={"model": model.name, "n": n, "p": _json_cell(p),
                "target": float(prof.target), "blocks": len(prof.blocks),
                "distance": distance, "relative": distance / model.sigma(n)})
    return 0


def cmd_check_assumptions(args):
    model = resolve_model(args.model)
    return _report(args, scan_assumptions(model, args.n, m=args.m, eps=args.eps))


def cmd_run(args):
    config = load_scenario(args.scenario)
    run = run_scenario(config, out=args.out)
    for name, rep in run.reports.items():
        sys.stdout.write("%s: %s\n" % (name, rep.summary()))
    for path in run.files:
        sys.stdout.write("wrote %s\n" % path)
    sys.stdout.write("exit %d\n" % run.exit_code)
    return run.exit_code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a ScenarioError too: every refusal is a usage error
        sys.stderr.write("edgekit: %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
