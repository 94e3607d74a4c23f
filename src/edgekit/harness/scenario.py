"""Scenario configuration, the run driver, and on-disk report bundles.

A scenario names a model, the orders (m, r), sample sizes, and transport
and moment orders; running it produces a manifest plus one table per
scan in the output directory. Output bytes are deterministic for a
fixed configuration and environment: all reals are serialized with 17
significant digits, '.' decimals and '\\n' line endings. The command
line front end prints and writes its tables through the same
serializer and parses its list options with the same parsers.
"""

import functools
import itertools
import json
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .. import __version__
from ..edgeworth import check_corrections, check_order
from ..models import ChainModel, builtin_model, builtin_model_names, load_chain_spec
from ..models.markov import _check_target
from .scans import (
    _check_ns,
    _check_ps,
    _check_qs,
    _x_grid,
    scan_assumptions,
    scan_coupling,
    scan_moments,
    scan_nonuniform,
    scan_stationarity,
    scan_transport,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "ScenarioRun",
    "parse_scenario_text",
    "parse_scenario_file",
    "load_scenario",
    "resolve_model",
    "run_scenario",
    "scenario_presets",
    "format_real",
    "format_table",
    "write_table",
]

_DYADIC = (8, 16, 32, 64, 128, 256, 512)


class ScenarioError(ValueError):
    """Configuration or model-capability problem, phrased for the user."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of one scenario run.

    `model` is either "builtin:<name>" or a path to a chain description
    file. `target` is the blocking target variance for the coupling scan
    (None picks the engine default). `out` may stay None when the caller
    supplies a directory at run time.
    """

    model: str
    m: int = 4
    r: int = 0
    ns: tuple = _DYADIC
    ps: tuple = (1, 2)
    qs: tuple = (2, 3, 4)
    target: float = None
    out: str = None
    grid_max: float = 8.0
    fmt: str = "csv"

    def validate(self):
        """This config, each value read by its engine's rule (whole floats as ints); refusals name the field."""
        if not self.model:
            raise ScenarioError("field 'model': empty")
        if not 3 <= self.m <= 8:
            raise ScenarioError("field 'm': must be between 3 and 8, got %r" % (self.m,))
        if self.fmt not in ("csv", "json"):
            raise ScenarioError("field 'format': must be csv or json, got %r" % (self.fmt,))
        read = {}
        for field, name, rule in (
            ("m", "m", check_order), ("r", "r", lambda r: check_corrections(r, read["m"])),
            ("n", "ns", _check_ns), ("p", "ps", _check_ps), ("q", "qs", _check_qs),
            ("target", "target", _check_target), ("grid_max", "grid_max", _x_grid),
        ):
            try:
                read[name] = rule(getattr(self, name))
            except ValueError as exc:
                raise ScenarioError("field %r: %s" % (field, exc)) from None
        del read["grid_max"]  # the grid itself; the field stays as given
        return replace(self, **read)


def _parse_list(conv, raw):
    """Comma separated `conv` values; `ScenarioConfig.validate` applies their rules."""
    return tuple(conv(part) for part in raw.split(",") if part.strip())


_FIELD_PARSERS = {
    "model": ("model", str),
    "m": ("m", int),
    "r": ("r", int),
    "n": ("ns", functools.partial(_parse_list, int)),
    "p": ("ps", functools.partial(_parse_list, float)),
    "q": ("qs", functools.partial(_parse_list, int)),
    "target": ("target", float),
    "out": ("out", str),
    "grid_max": ("grid_max", float),
    "format": ("fmt", str),
}


def parse_scenario_text(text, source="<config>"):
    """Parse 'key = value' scenario text, reporting line and field."""
    values = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError("%s:%d: expected 'key = value', got %r" % (source, lineno, rawline))
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_PARSERS:
            known = ", ".join(sorted(_FIELD_PARSERS))
            raise ScenarioError("%s:%d: unknown field %r (known: %s)" % (source, lineno, key, known))
        field, conv = _FIELD_PARSERS[key]
        try:
            values[field] = conv(raw)
        except ValueError:
            raise ScenarioError("%s:%d: field %r: cannot parse %r" % (source, lineno, key, raw)) from None
    if "model" not in values:
        raise ScenarioError("%s: missing required field 'model'" % source)
    try:
        return ScenarioConfig(**values).validate()
    except ScenarioError as exc:
        raise ScenarioError("%s: %s" % (source, exc)) from None


def parse_scenario_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), source=str(path))


def scenario_presets():
    """Built-in scenario names usable in place of a config file."""
    return tuple(sorted(_PRESETS))


_PRESETS = {
    "rademacher-be": (
        "model = builtin:rademacher\n"
        "m = 3\n"
        "r = 0\n"
        "n = 16,32,64,128,256\n"
        "p = 1,2\n"
        "q = 2,3,4\n"
    ),
    "uniform-edgeworth": (
        "model = builtin:uniform\n"
        "m = 4\n"
        "r = 1\n"
        "n = 4,8,16,32\n"
        "p = 1,2\n"
        "q = 2,3,4\n"
    ),
    "elliptic2-stationary": (
        "model = builtin:elliptic2\n"
        "m = 4\n"
        "r = 1\n"
        "n = 32,64,128,256,512\n"
        "p = 1,2\n"
        "q = 2,3,4\n"
    ),
}


def resolve_model(token):
    """Model from a "builtin:<name>" token or a chain description file."""
    if token.startswith("builtin:"):
        name = token[len("builtin:"):]
        try:
            return builtin_model(name)
        except (KeyError, ValueError) as exc:
            # the lookup error already names the builtins where that helps
            raise ScenarioError(str(exc)) from None
    if not os.path.exists(token):
        raise ScenarioError(
            "model %r is neither builtin:<name> nor a readable file; "
            "builtins: %s" % (token, ", ".join(builtin_model_names()))
        )
    spec = load_chain_spec(token)
    name = spec.name or os.path.splitext(os.path.basename(token))[0]
    return ChainModel(name, spec.prefix, max_steps=spec.n_steps)


# -- serialization ------------------------------------------------------------


def format_real(v):
    """17-significant-digit decimal form, stable across runs."""
    return "%.17g" % float(v)


def _fmt_cell(kind):
    """%-conversion of a table cell of type `kind`; a bool cell is passed as yes or no."""
    if issubclass(kind, (bool, np.bool_)):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, str):
        return "%s"
    return "%.17g"  # format_real's form; %-formatting takes float(v) itself


@functools.lru_cache(maxsize=None)
def _row_template(kinds):
    """One %-template for a CSV row of cells of these types, and the positions of its bools."""
    flags = tuple(i for i, kind in enumerate(kinds) if issubclass(kind, (bool, np.bool_)))
    return ",".join(map(_fmt_cell, kinds)), flags


def format_table(header, rows, meta=None, fmt="csv"):
    """Text of one report table; CSV by default, JSON (with meta) on request."""
    if fmt == "csv":
        return ",".join(str(h) for h in header) + "\n" + "".join(_csv_lines(rows))
    doc = {
        "header": list(header),
        "rows": [[_json_cell(v) for v in row] for row in rows],
    }
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_lines(rows):
    """Newline-ended CSV text of `rows`: each run of rows sharing one row template in one %-pass.

    Cell types are read a column at a time, so no row is looked up alone.
    """
    out = []
    for size, same in itertools.groupby(map(tuple, rows), len):
        same = list(same)
        kinds = (zip(*map(functools.partial(map, type), zip(*same))) if size
                 else itertools.repeat((), len(same)))
        start = 0
        for key, run in itertools.groupby(kinds):
            count = sum(1 for _ in run)
            template, flags = _row_template(key)
            cells = same[start : start + count]
            start += count
            if flags:
                columns = list(zip(*cells))
                for i in flags:
                    columns[i] = ["yes" if v else "no" for v in columns[i]]
                cells = zip(*columns)
            out.append((template + "\n") * count % tuple(itertools.chain.from_iterable(cells)))
    return out


def write_table(path, header, rows, meta=None, fmt="csv"):
    """Write one report table as `format_table` renders it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_table(header, rows, meta=meta, fmt=fmt))


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


# -- the run driver -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioRun:
    reports: dict
    files: tuple
    failures: int
    exit_code: int


def run_scenario(config, out=None):
    """Run the scan battery for one configuration, writing the bundle.

    Each scan builds the exact laws it needs on first use through the
    model's cache, so every law is built once. Each n's cumulants and
    expansion are built once too, before the scans, with the most any
    scan reads (`_top_orders`); the scans read truncations of them.
    The exit code is 0 exactly when no report failed (flagged verdicts
    do not fail).
    """
    config = config.validate()
    outdir = out if out is not None else config.out
    if not outdir:
        raise ScenarioError("no output directory: set 'out = <dir>' or pass one explicitly")
    model = resolve_model(config.model)
    if model.max_steps is not None and config.ns[-1] > model.max_steps:
        raise ScenarioError(
            "model %r supports n up to %d but the scan asks for n=%d; trim 'n'"
            % (config.model, model.max_steps, config.ns[-1])
        )

    kmax, r_top = _top_orders(config)
    for n in config.ns:
        model.cumulants(n, kmax)
        model.expansion(n, r_top)

    reports = {}
    nonuniform_name = "scan_be" if config.r == 0 else "scan_edgeworth"
    reports[nonuniform_name] = scan_nonuniform(
        model, config.m, config.r, config.ns, grid_max=config.grid_max
    )
    reports["scan_transport"] = scan_transport(
        model, config.ps, config.ns, r=config.r, m=config.m
    )
    reports["scan_moments"] = scan_moments(model, config.qs, config.r, config.ns)
    if len(config.ns) >= 4:
        reports["scan_stationary"] = scan_stationarity(model, config.m, config.ns)
    if model.kind == "chain":
        reports["couple"] = scan_coupling(model, config.ns, p=2, target=config.target)
    reports["assumptions"] = scan_assumptions(model, config.ns, m=config.m)

    os.makedirs(outdir, exist_ok=True)
    ext = "json" if config.fmt == "json" else "csv"
    files = []
    for name, rep in reports.items():
        header, rows = rep.rows()
        path = os.path.join(outdir, "%s.%s" % (name, ext))
        write_table(path, header, rows, meta={"summary": rep.summary()}, fmt=config.fmt)
        files.append(path)
    failures = sum(1 for rep in reports.values() if rep.failed())
    exit_code = 0 if failures == 0 else 1

    manifest = os.path.join(outdir, "manifest.txt")
    lines = [
        "# scenario manifest",
        "package = edgekit %s" % __version__,
        "numpy = %s" % np.__version__,
        "scipy = %s" % scipy.__version__,
        "model = %s" % config.model,
        "model_name = %s" % model.name,
        "m = %d" % config.m,
        "r = %d" % config.r,
        "n = %s" % ",".join(str(n) for n in config.ns),
        "p = %s" % ",".join(str(p) for p in config.ps),
        "q = %s" % ",".join(str(q) for q in config.qs),
        "target = %s" % ("auto" if config.target is None else format_real(config.target)),
        "grid_max = %s" % format_real(config.grid_max),
        "format = %s" % config.fmt,
    ]
    for name, rep in reports.items():
        lines.append("%s = %s" % (name, rep.summary()))
    lines.append("failures = %d" % failures)
    lines.append("exit = %d" % exit_code)
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    files.insert(0, manifest)

    return ScenarioRun(
        reports=reports,
        files=tuple(files),
        failures=failures,
        exit_code=exit_code,
    )


def _top_orders(config):
    """(cumulant order, corrections) of the most any scan of `run_scenario` reads at each n.

    Corrections: r, and m - 2 for the stationarity scan. Cumulants: two more, or up to max q.
    """
    r_top = max(config.r, config.m - 2 if len(config.ns) >= 4 else 0)
    return max(r_top + 2, max(config.qs)), r_top


def load_scenario(source):
    """Config from a preset name or a file path."""
    if source in _PRESETS:
        return parse_scenario_text(_PRESETS[source], source="preset:%s" % source)
    if os.path.exists(source):
        return parse_scenario_file(source)
    raise ScenarioError(
        "scenario %r is neither a file nor a preset; presets: %s"
        % (source, ", ".join(scenario_presets()))
    )
