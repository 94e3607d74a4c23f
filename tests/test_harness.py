"""Scan verdicts, scenario driver, and the command line front end."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from edgekit.cumulants import fit_stationary
from edgekit.harness import (
    ScenarioError,
    load_scenario,
    parse_scenario_text,
    resolve_model,
    run_scenario,
    scan_assumptions,
    scan_coupling,
    scan_moments,
    scan_nonuniform,
    scan_stationarity,
    scan_transport,
    scans,
    scenario_presets,
)
from edgekit.harness.cli import main
from edgekit.harness.scenario import ScenarioConfig, format_table
from edgekit.models import ChainModel, builtin_model, save_chain_spec
from edgekit.models.markov import MarkovChainSpec
from edgekit.transport import GaussianLaw, gaussian_coupling, wasserstein_distance

from path_enumeration import step_means


# -- nonuniform error scans ---------------------------------------------------


def test_scan_be_rademacher_bounded():
    rep = scan_nonuniform(builtin_model("rademacher"), 3, 0, (16, 32, 64, 128, 256))
    assert rep.verdict == "bounded"
    assert rep.passed and not rep.flagged
    # sigma * sup (1+|x|)^3 |F - Phi| settles near the lattice constant
    assert rep.scaled[0] == pytest.approx(2.3905975891534017, rel=1e-10)
    assert all(b < a for a, b in zip(rep.scaled, rep.scaled[1:]))
    header, data = rep.rows()
    assert header == ("n", "sigma", "weighted_sup", "scaled")
    assert len(data) == 5 and data[0][0] == 16


def test_scan_edgeworth_lattice_flagged():
    rep = scan_nonuniform(builtin_model("rademacher"), 4, 1, (16, 32, 64, 128))
    assert rep.verdict == "not-vanishing"
    assert rep.flagged and not rep.passed
    assert "lattice" in rep.flag_reason


def test_scan_edgeworth_uniform_vanishes():
    rep = scan_nonuniform(builtin_model("uniform"), 4, 1, (4, 8, 16, 32))
    assert rep.verdict == "vanishing"
    assert rep.passed and not rep.flagged
    assert rep.scaled[-1] < 0.5 * rep.scaled[0]


def test_scan_nonuniform_validates_inputs():
    m = builtin_model("rademacher")
    with pytest.raises(ValueError):
        scan_nonuniform(m, 3, 2, (8, 16))
    with pytest.raises(ValueError):
        scan_nonuniform(m, 3, 0, (16, 8))
    # a grid that is empty, reversed or a single point judges no jump
    for grid_max in (-3.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="grid_max must be finite and positive"):
            scan_nonuniform(m, 3, 0, (8, 16), grid_max=grid_max)


def test_scans_refuse_sizes_and_orders_that_are_not_whole():
    m = builtin_model("rademacher")
    ns = (16.7, 32.2)
    for scan in (lambda: scan_nonuniform(m, 3, 0, ns), lambda: scan_transport(m, (1,), ns),
                 lambda: scan_moments(m, (2,), 0, ns), lambda: scan_coupling(m, ns),
                 lambda: scan_stationarity(m, 3, ns + (64, 128)), lambda: scan_assumptions(m, ns)):
        with pytest.raises(ValueError, match="sample size n must be a whole number, got 16.7"):
            scan()
    for qs in ((2.5,), (2, math.nan)):
        with pytest.raises(ValueError, match="moment order q must be a whole number"):
            scan_moments(m, qs, 0, (16, 32))
    # whole floats are read as the integers they are
    rep = scan_moments(m, (2.0, 3.0), 0, (16.0, 32.0))
    assert rep.qs == (2, 3) and rep.ns == (16, 32)
    assert all(type(v) is int for v in rep.qs + rep.ns)


# -- transport scans ----------------------------------------------------------


def test_scan_transport_rademacher_columns():
    rep = scan_transport(builtin_model("rademacher"), (1, 2), (16, 32, 64), r=0, m=3)
    assert rep.p_flags == (False, True)
    assert rep.verdicts == ("bounded", "bounded")
    assert rep.corrected_verdicts is None
    assert rep.bound_ok and rep.passed
    # sigma * W_1 for the +-1 walk approaches 1/2
    assert rep.gaussian_scaled[0, 0] == pytest.approx(0.50240011404323592, rel=1e-9)
    header, data = rep.rows()
    assert header == ("n", "sigma", "p", "w_gaussian", "w_gaussian_scaled", "cdf_gap_bound")
    assert len(data) == 6


def test_scan_transport_corrected_vanishes_for_uniform():
    rep = scan_transport(builtin_model("uniform"), (1, 2), (4, 8, 16, 32), r=1, m=4)
    assert rep.corrected_verdicts == ("vanishing", "vanishing")
    assert rep.passed and not rep.flagged
    for j in range(2):
        col = rep.corrected_scaled[:, j]
        assert col[-1] < 0.8 * col[0]
    header, _ = rep.rows()
    assert header[-2:] == ("corrected_gap", "corrected_gap_scaled")


def test_scan_transport_lattice_corrected_flagged():
    rep = scan_transport(builtin_model("elliptic2"), (1,), (16, 32, 64), r=1, m=4)
    assert rep.flagged
    assert "lattice" in rep.flag_reason
    # flagged corrected columns do not fail the scan
    assert rep.passed


# -- moment scans -------------------------------------------------------------


def test_scan_moments_rademacher_exact_columns():
    rep = scan_moments(builtin_model("rademacher"), (2, 3, 4), 0, (16, 32, 64, 128))
    assert rep.signed_verdicts == ("matched", "matched", "bounded")
    assert rep.abs_verdicts[0] == "matched"
    assert rep.passed
    # kappa4(S_n) = -2n makes the q=4 gap exactly 2/n, scaled to 2/sqrt(n)
    assert rep.scaled_gap[0, 2] == pytest.approx(0.5, rel=1e-9)
    assert rep.scaled_gap[1, 2] == pytest.approx(2.0 / np.sqrt(32.0), rel=1e-9)


def test_scan_moments_matched_when_order_covered():
    # q <= r + 2 is matched exactly even with nonzero skew
    rep = scan_moments(builtin_model("elliptic2"), (2, 3), 1, (16, 32, 64, 128))
    assert rep.signed_verdicts == ("matched", "matched")
    assert float(np.max(rep.scaled_gap[:, 1])) < 1e-6


def test_scan_moments_chain_signed_columns_match_at_scale():
    # signed moments of a chain come from the series cumulants, as the
    # expansion's do, so at sigma^3 ~ 4.5e5 the matched gaps stay rounding
    ns = (512, 1024, 2048, 4096, 8192)
    rep = scan_moments(builtin_model("elliptic2"), (2, 3, 4, 5), 3, ns)
    assert rep.signed_verdicts == ("matched",) * 4
    assert rep.passed
    assert float(np.max(rep.scaled_gap)) < 1e-9


def test_scan_moments_even_absolute_columns_are_the_signed_ones():
    # |W|^q = W^q for even q, so both columns read the model's cumulants
    for name, r in (("rademacher", 0), ("elliptic2", 1), ("uniform", 1)):
        rep = scan_moments(builtin_model(name), (2, 3, 4), r, (8, 16, 32))
        for j in (0, 2):
            assert np.array_equal(rep.exact_abs[:, j], rep.exact[:, j])


def test_scan_moments_even_orders_need_no_law():
    # steps worth 1 and 1.000001 share a lattice of step 1e-6, whose DP
    # table the cell budget refuses; even moments come from the series
    kernel = np.full((2, 2), 0.5)
    ones = np.array([[0.0, 1.0], [0.0, 1.0]])
    spec = MarkovChainSpec([0.5, 0.5], (kernel,) * 512, (ones, ones * 1.000001) * 256)
    model = ChainModel("fine", spec.prefix, max_steps=512)
    with pytest.raises(ValueError, match="budget"):
        model.distribution(512)
    rep = scan_moments(model, (2, 4), 0, (256, 512))
    assert np.array_equal(rep.exact_abs, rep.exact)
    assert rep.abs_verdicts[0] == "matched"


def test_scan_moments_runs_no_quadrature(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("scan_moments ran scipy.integrate.quad")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for name, r in (("rademacher", 0), ("elliptic2", 1), ("uniform", 1)):
        rep = scan_moments(builtin_model(name), (1, 2, 3, 4), r, (8, 16))
        assert np.all(np.isfinite(rep.expansion)) and np.all(np.isfinite(rep.expansion_abs))


def test_scan_moments_takes_moment_orders_past_the_largest_build_at_every_r():
    # the correction's moments are closed forms at any q, and the exact
    # ones come from the cumulants to q, so no build order caps q
    for r in (0, 1):
        rep = scan_moments(builtin_model("elliptic2"), (2, 16), r, (16, 32))
        assert rep.signed_verdicts[0] == "matched"
        assert np.all(np.isfinite(rep.exact)) and np.all(np.isfinite(rep.expansion))
    with pytest.raises(ValueError, match=r"corrections r must be in \[0, m - 2 = 14\], got -1"):
        scan_moments(builtin_model("elliptic2"), (2,), -1, (16, 32))


def test_a_standalone_scan_reads_one_series_per_n(monkeypatch):
    # each scan reads its build before sigma, so sigma is a prefix of it;
    # the moment scan reads its cumulants to max q or r + 2, whichever is larger
    from edgekit.models import families

    series = []
    cumulant_series = families._cumulant_series
    monkeypatch.setattr(families, "_cumulant_series",
                        lambda spec, kmax, store: series.append((spec.n_steps, kmax))
                        or cumulant_series(spec, kmax, store))
    ns = (16, 32, 64, 128)
    for scan, kmax in (
        (lambda m: scan_moments(m, (2, 3, 4, 5, 6), 1, ns), 6),
        (lambda m: scan_moments(m, (1,), 0, ns), 2),
        (lambda m: scan_moments(m, (2, 3), 3, ns), 5),
        (lambda m: scan_nonuniform(m, 5, 2, ns), 4),
        (lambda m: scan_transport(m, (1,), ns, r=1, m=4), 3),
        (lambda m: scan_stationarity(m, 5, ns), 5),
    ):
        series.clear()
        scan(builtin_model("elliptic2"))
        assert series == [(n, kmax) for n in ns]


def test_scans_judge_rates_with_their_bounded_rule(monkeypatch):
    # strict (max) where a flat family is claimed, lenient (last) where a
    # family may beat its rate and decay outright
    calls = []

    def spy(name, rule):
        def judged(values):
            calls.append(name)
            return rule(values)
        return judged

    for name in ("bounded_max", "bounded_last"):
        monkeypatch.setattr(scans, name, spy(name, getattr(scans, name)))
    m = builtin_model("rademacher")
    for scan, rule in (
        (lambda: scan_nonuniform(m, 3, 0, (16, 32)), "bounded_max"),
        (lambda: scan_stationarity(m, 4, (8, 16, 24, 32)), "bounded_max"),
        (lambda: scan_coupling(m, (16, 32)), "bounded_max"),
        (lambda: scan_transport(m, (1,), (16, 32)), "bounded_last"),
        (lambda: scan_moments(m, (4,), 0, (16, 32)), "bounded_last"),
    ):
        calls.clear()
        scan()
        assert calls and set(calls) == {rule}


# -- stationary-shape and coupling scans --------------------------------------


def test_scan_stationarity_elliptic2_bounded():
    rep = scan_stationarity(builtin_model("elliptic2"), 4, (32, 64, 128, 256))
    assert rep.applicable and rep.passed and not rep.flagged
    assert rep.verdict == "bounded"
    assert rep.order_verdicts == ("bounded", "bounded")
    # sigma^2-scaled gap to the limiting shape settles to a constant
    assert rep.scaled[0, 0] == pytest.approx(0.059575380035635901, rel=1e-6)
    col = rep.scaled[:, 0]
    assert float(np.max(col) / np.min(col)) < 1.01


def test_scan_stationarity_rejected_fit_is_flagged_not_failed():
    rep = scan_stationarity(builtin_model("flip2"), 4, tuple(range(16, 24)))
    assert not rep.applicable
    assert rep.verdict == "not-applicable"
    assert rep.flagged and rep.passed
    assert "2" in rep.flag_reason
    header, data = rep.rows()
    assert len(data) == 8 and np.isnan(data[0][2])


def test_scan_coupling_elliptic2():
    rep = scan_coupling(builtin_model("elliptic2"), (16, 32, 64, 128), p=2)
    assert rep.verdict == "bounded"
    assert rep.a_monotone and rep.b_bounded and rep.passed
    assert rep.distances[0] == pytest.approx(0.4294033600357553, rel=1e-9)
    header, data = rep.rows()
    assert header == ("n", "sigma", "p", "a", "b", "distance", "relative")
    assert len(data) == 4


def test_scan_coupling_needs_multiple_ns():
    with pytest.raises(ValueError):
        scan_coupling(builtin_model("elliptic2"), (16,), p=2)


def test_scan_assumptions_shapes_and_verdicts():
    rep = scan_assumptions(builtin_model("rademacher"), (16, 32, 64, 128), m=3)
    assert rep.derivative.bounded
    assert not rep.tail.vanishing
    assert not rep.corrections_supported
    header, data = rep.rows()
    assert header[:2] == ("n", "eps_effective")
    assert header[-1] == "tail_integral"
    assert len(data) == 4


# -- scenario parsing ---------------------------------------------------------


def test_parse_scenario_text_full():
    cfg = parse_scenario_text(
        "# comment\n"
        "model = builtin:rademacher\n"
        "m = 3\n"
        "r = 0\n"
        "n = 16,32,64\n"
        "p = 1,2.5\n"
        "q = 2,4\n"
        "grid_max = 6.5\n"
        "format = json\n"
    )
    assert cfg.model == "builtin:rademacher"
    assert cfg.ns == (16, 32, 64)
    assert cfg.ps == (1, 2.5)
    assert cfg.qs == (2, 4)
    assert cfg.grid_max == 6.5
    assert cfg.fmt == "json"


@pytest.mark.parametrize(
    "text,needle",
    [
        ("model = builtin:rademacher\nm = 2\n", "'m'"),
        ("model = builtin:rademacher\nr = 9\n", "'r'"),
        ("model = builtin:rademacher\nn = 32,16\n", "'n'"),
        ("model = builtin:rademacher\nwhat = 3\n", "what"),
        ("m = 3\n", "model"),
        ("model = builtin:rademacher\nm three\n", "key = value"),
        ("model = builtin:rademacher\nm = three\n", "cannot parse"),
        ("model = builtin:rademacher\nseed = 0\n", "seed"),
        ("model = builtin:rademacher\np = 1,inf\n", "'p'"),
        ("model = builtin:rademacher\np = nan\n", "'p'"),
        ("model = builtin:rademacher\ngrid_max = inf\n", "'grid_max'"),
        ("model = builtin:rademacher\ntarget = inf\n", "'target'"),
    ],
)
def test_parse_scenario_text_errors(text, needle):
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, source="case.cfg")
    assert needle in str(err.value)
    assert "case.cfg" in str(err.value)


@pytest.mark.parametrize("field, changes", [
    ("'n'", dict(ns=(16.5, 32, 64))),
    ("'n'", dict(ns=(16, math.inf))),
    ("'q'", dict(qs=(2.5, 3))),
    ("'q'", dict(qs=(2, math.nan))),
])
def test_config_refuses_sizes_and_orders_that_are_not_whole(tmp_path, field, changes):
    config = ScenarioConfig(model="builtin:rademacher", m=3, **changes)
    with pytest.raises(ScenarioError, match="field %s: " % field):
        config.validate()
    with pytest.raises(ScenarioError, match="field %s: " % field):
        run_scenario(config, out=str(tmp_path / "bundle"))
    assert not (tmp_path / "bundle").exists()


def test_config_reads_whole_floats_as_integers(tmp_path):
    config = ScenarioConfig(model="builtin:rademacher", m=3, ns=(16.0, 32.0), qs=(2.0, 3))
    checked = config.validate()
    assert checked.ns == (16, 32) and checked.qs == (2, 3)
    assert all(type(v) is int for v in checked.ns + checked.qs)
    run_scenario(config, out=str(tmp_path / "f"))
    run_scenario(replace(config, ns=(16, 32), qs=(2, 3)), out=str(tmp_path / "i"))
    for path in sorted((tmp_path / "i").iterdir()):
        assert (tmp_path / "f" / path.name).read_bytes() == path.read_bytes(), path.name


# -- one rule per input -------------------------------------------------------


def _rademacher():
    return builtin_model("rademacher")


@pytest.mark.parametrize("call, error, needle", [
    (lambda out: run_scenario(ScenarioConfig(model="builtin:rademacher", m=3.5), out=out),
     ScenarioError, "field 'm': expansion order m must be a whole number, got 3.5"),
    (lambda out: run_scenario(ScenarioConfig(model="builtin:rademacher", m=4, r=1.5), out=out),
     ScenarioError, "field 'r': corrections r must be a whole number, got 1.5"),
    (lambda out: scan_nonuniform(_rademacher(), 4, 1.5, (16, 32)),
     ValueError, "corrections r must be a whole number, got 1.5"),
    (lambda out: scan_moments(_rademacher(), (2,), 0.5, (16, 32)),
     ValueError, "corrections r must be a whole number, got 0.5"),
    (lambda out: scan_stationarity(_rademacher(), 4.5, (8, 16, 32, 64)),
     ValueError, "expansion order m must be a whole number, got 4.5"),
    (lambda out: scan_assumptions(_rademacher(), (16, 32), m=4.5),
     ValueError, "derivative order jmax must be a whole number, got 4.5"),
    (lambda out: _rademacher().expansion(16, 1.5),
     ValueError, "corrections r must be a whole number, got 1.5"),
    (lambda out: _rademacher().cumulants(16, 2.5),
     ValueError, "cumulant order kmax must be a whole number, got 2.5"),
    (lambda out: builtin_model("uniform").charfn_deriv(4, 0.3, 1.5),
     ValueError, "derivative order k must be a whole number, got 1.5"),
    (lambda out: _rademacher().distribution(8).charfn_deriv(0.3, 1.5),
     ValueError, "derivative order k must be a whole number, got 1.5"),
    (lambda out: builtin_model("uniform").cumulants(16, 0),
     ValueError, "cumulant order kmax must be >= 1, got 0"),
    (lambda out: fit_stationary(_rademacher(), (8, 16, 32, 64), kmax=3.5),
     ValueError, "cumulant order kmax must be a whole number, got 3.5"),
], ids=["config-m", "config-r", "scan_nonuniform-r", "scan_moments-r", "scan_stationarity-m",
        "scan_assumptions-m", "expansion-r", "cumulants-kmax", "iid-charfn-k", "lattice-charfn-k",
        "iid-cumulants-kmax", "fit_stationary-kmax"])
def test_each_input_rule_refuses_by_name(tmp_path, call, error, needle):
    # a ValueError that names the quantity, never a TypeError, and no bundle
    out = str(tmp_path / "out")
    with pytest.raises(error) as err:
        call(out)
    assert needle in str(err.value)
    assert not os.path.exists(out)


def test_expansion_refuses_negative_corrections_whatever_was_built():
    for built in ((), (1,), (1, 3)):
        model = builtin_model("elliptic2")
        for r in built:
            model.expansion(16, r)
        with pytest.raises(ValueError) as err:
            model.expansion(16, -1)
        assert str(err.value) == "corrections r must be in [0, m - 2 = 14], got -1"


def test_cli_scan_stationary_refuses_an_expansion_order_before_any_fit(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(scans, "fit_stationary", refuse)
    out = tmp_path / "ss.csv"
    code = main(["scan-stationary", "--model", "builtin:rademacher", "--n", "8,16,32,64", "--m", "40",
                 "--out", str(out)])
    assert code == 2
    assert "expansion order must be in [3, 16], got 40" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, scan", [
    ("n", (16, 16), lambda model, v: scan_moments(model, (2,), 0, v)),
    ("n", (0, 16), lambda model, v: scan_moments(model, (2,), 0, v)),
    ("n", (16,), lambda model, v: scan_moments(model, (2,), 0, v)),
    ("n", (16.5, 32), lambda model, v: scan_moments(model, (2,), 0, v)),
    ("p", (0.5,), lambda model, v: scan_transport(model, v, (16, 32))),
    ("p", (1, math.inf), lambda model, v: scan_transport(model, v, (16, 32))),
    ("p", (), lambda model, v: scan_transport(model, v, (16, 32))),
    ("q", (0, 2), lambda model, v: scan_moments(model, v, 0, (16, 32))),
    ("q", (2.5,), lambda model, v: scan_moments(model, v, 0, (16, 32))),
    ("q", (), lambda model, v: scan_moments(model, v, 0, (16, 32))),
    ("r", -1, lambda model, v: scan_nonuniform(model, 4, v, (16, 32))),
    ("r", 3, lambda model, v: scan_nonuniform(model, 4, v, (16, 32))),
    ("r", 1.5, lambda model, v: scan_nonuniform(model, 4, v, (16, 32))),
    ("target", 0.0, lambda model, v: scan_coupling(model, (16, 32), target=v)),
    ("target", math.inf, lambda model, v: scan_coupling(model, (16, 32), target=v)),
    ("target", math.nan, lambda model, v: scan_coupling(model, (16, 32), target=v)),
    ("grid_max", -3.0, lambda model, v: scan_nonuniform(model, 4, 0, (16, 32), grid_max=v)),
    ("grid_max", math.inf, lambda model, v: scan_nonuniform(model, 4, 0, (16, 32), grid_max=v)),
], ids=["n-repeated", "n-zero", "n-one-size", "n-not-whole", "p-below-1", "p-inf", "p-none",
        "q-zero", "q-not-whole", "q-none", "r-negative", "r-above-m-2", "r-not-whole",
        "target-zero", "target-inf", "target-nan", "grid_max-negative", "grid_max-inf"])
def test_config_and_scans_refuse_the_same_values(field, value, scan):
    # the config (m = 4) reads each value by the rule its scan reads, and names the field
    with pytest.raises(ValueError) as by_scan:
        scan(_rademacher(), value)
    name = {"n": "ns", "p": "ps", "q": "qs"}.get(field, field)
    with pytest.raises(ScenarioError) as by_config:
        ScenarioConfig(model="builtin:rademacher", **{name: value}).validate()
    assert str(by_config.value) == "field %r: %s" % (field, by_scan.value)


def test_whole_float_transport_orders_give_the_rows_and_summary_of_ints():
    model = builtin_model("elliptic2")
    ns = (64, 128)
    for as_float, as_int in ((scan_transport(model, (2.0,), ns), scan_transport(model, (2,), ns)),
                             (scan_coupling(model, ns, p=2.0), scan_coupling(model, ns, p=2))):
        assert format_table(*as_float.rows()) == format_table(*as_int.rows())
        assert as_float.summary() == as_int.summary()
    exact = scan_nonuniform(model, 4, 1, ns)
    assert format_table(*scan_nonuniform(model, 4.0, 1.0, ns).rows()) == format_table(*exact.rows())


def test_config_reads_whole_float_orders_as_integers(tmp_path):
    config = ScenarioConfig(model="builtin:uniform", m=4.0, r=1.0, ns=(4, 8, 16, 32), ps=(1.0, 2.0))
    checked = config.validate()
    assert (checked.m, checked.r, checked.ps) == (4, 1, (1, 2))
    assert all(type(v) is int for v in (checked.m, checked.r) + checked.ps)
    run_scenario(config, out=str(tmp_path / "f"))
    run_scenario(load_scenario("uniform-edgeworth"), out=str(tmp_path / "i"))
    for path in sorted((tmp_path / "i").iterdir()):
        assert (tmp_path / "f" / path.name).read_bytes() == path.read_bytes(), path.name

def test_resolve_model_reports_builtins():
    with pytest.raises(ScenarioError) as err:
        resolve_model("builtin:nosuch")
    assert "rademacher" in str(err.value)
    with pytest.raises(ScenarioError):
        resolve_model("/nonexistent/chain/file")


def test_resolve_model_from_chain_file(tmp_path):
    spec = builtin_model("elliptic2").spec(6)
    path = tmp_path / "little.chain"
    save_chain_spec(spec, path)
    model = resolve_model(str(path))
    assert model.kind == "chain"
    assert model.max_steps == 6
    d1 = model.distribution(6)
    d2 = builtin_model("elliptic2").distribution(6)
    assert d1.masses == pytest.approx(d2.masses, abs=1e-14)


def test_chain_file_keeps_one_observable_array(tmp_path):
    # observables are used as given: a homogeneous file chain whose step
    # means drift toward the stationary value still shares one array
    rng = np.random.Generator(np.random.PCG64([1, 64]))
    kernel = rng.dirichlet(np.ones(64), size=64)
    obs = rng.integers(-2, 3, size=(64, 64)).astype(float)
    path = tmp_path / "chain64.txt"
    save_chain_spec(MarkovChainSpec.homogeneous(rng.dirichlet(np.ones(64)), kernel, obs, 256), path)
    spec = resolve_model(str(path)).spec(256)
    assert len(set(step_means(spec).tolist())) > 1
    assert len({id(f) for f in spec.observables}) == 1
    assert np.array_equal(spec.observables[0], obs)


def test_presets_parse_and_validate():
    names = scenario_presets()
    assert "rademacher-be" in names
    for name in names:
        cfg = load_scenario(name)
        cfg.validate()


# -- scenario runs ------------------------------------------------------------


def test_run_scenario_bundle_and_determinism(tmp_path):
    cfg = load_scenario("rademacher-be")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run1 = run_scenario(cfg, out=str(out1))
    run2 = run_scenario(cfg, out=str(out2))
    assert run1.exit_code == 0 and run1.failures == 0
    names = sorted(os.path.basename(f) for f in run1.files)
    assert "manifest.txt" in names and "scan_be.csv" in names
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
    manifest = (out1 / "manifest.txt").read_text()
    assert "exit = 0" in manifest
    assert "model = builtin:rademacher" in manifest


_RADEMACHER_BE_MANIFEST = """\
# scenario manifest
model = builtin:rademacher
model_name = rademacher
m = 3
r = 0
n = 16,32,64,128,256
p = 1,2
q = 2,3,4
target = auto
grid_max = 8
format = csv
scan_be = bounded flagged=no passed=yes
scan_transport = p=1:bounded p=2:bounded(outside-guarantee) bound_ok=yes passed=yes
scan_moments = q=2:matched/matched q=3:matched/bounded q=4:bounded/bounded passed=yes
scan_stationary = bounded passed=yes
couple = bounded a_monotone=yes b_bounded=yes passed=yes
assumptions = derivative=bounded tail=plateau corrections_supported=no
failures = 0
exit = 0
"""


# the summary lines of the other presets' manifests
_PRESET_SUMMARIES = {
    "elliptic2-stationary": """\
scan_edgeworth = not-vanishing flagged=yes passed=no
scan_transport = p=1:bounded p=2:bounded corrected: p=1:not-vanishing p=2:not-vanishing \
bound_ok=yes flagged=yes passed=yes
scan_moments = q=2:matched/matched q=3:matched/vanishing q=4:vanishing/vanishing passed=yes
scan_stationary = bounded passed=yes
couple = bounded a_monotone=yes b_bounded=yes passed=yes
assumptions = derivative=bounded tail=plateau corrections_supported=no
failures = 0
exit = 0
""",
    "uniform-edgeworth": """\
scan_edgeworth = vanishing flagged=no passed=yes
scan_transport = p=1:bounded p=2:bounded corrected: p=1:vanishing p=2:vanishing \
bound_ok=yes passed=yes
scan_moments = q=2:matched/matched q=3:matched/vanishing q=4:vanishing/vanishing passed=yes
scan_stationary = bounded passed=yes
assumptions = derivative=bounded tail=plateau corrections_supported=no
failures = 0
exit = 0
""",
}


def test_run_scenario_manifest_text_pinned(tmp_path):
    for preset, summaries in _PRESET_SUMMARIES.items():
        run = run_scenario(load_scenario(preset), out=str(tmp_path / preset))
        assert (tmp_path / preset / "manifest.txt").read_text().endswith("\n" + summaries)
        lines = dict(line.split(" = ", 1) for line in summaries.splitlines())
        for name, rep in run.reports.items():
            assert rep.summary() == lines[name]
    run = run_scenario(load_scenario("rademacher-be"), out=str(tmp_path))
    text = (tmp_path / "manifest.txt").read_text()
    # version lines depend on the environment, everything else is pinned
    kept = [
        line for line in text.splitlines(keepends=True)
        if not line.startswith(("package = ", "numpy = ", "scipy = "))
    ]
    assert "".join(kept) == _RADEMACHER_BE_MANIFEST
    assert run.failures == 0
    lines = dict(line.split(" = ", 1) for line in _RADEMACHER_BE_MANIFEST.splitlines()[1:])
    for name, rep in run.reports.items():
        assert rep.summary() == lines[name]
        assert rep.failed() is False


def test_report_failed_rules():
    m = builtin_model("rademacher")
    flagged = scan_nonuniform(m, 4, 1, (16, 32, 64, 128))
    assert not flagged.passed and not flagged.failed()
    assert replace(flagged, flagged=False).failed()
    moments = scan_moments(m, (2,), 0, (16, 32))
    assert not moments.failed() and replace(moments, passed=False).failed()
    # assumption verdicts describe the model and never fail a run
    assumptions = scan_assumptions(m, (16, 32), m=3)
    assert not assumptions.corrections_supported and not assumptions.failed()


def _csv_row_by_row(header, rows):
    """The CSV text of a table formatted one row at a time: each cell by the %-conversion of its type."""
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                cells.append("yes" if v else "no")
            elif isinstance(v, (int, np.integer)):
                cells.append("%d" % v)
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append("%.17g" % float(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_csv_runs_of_one_template_match_row_by_row_formatting():
    # runs of rows sharing one template are formatted in one pass; cells of
    # mixed types in a column, bool and numpy cells, strings holding "%",
    # rows of other lengths and empty rows each break a run where they must
    rng = np.random.Generator(np.random.PCG64(4))
    law = [(float(v), float(m)) for v, m in zip(rng.normal(size=300), rng.random(300))]
    tables = [
        law,
        [],
        [(1, 2.5), (True, np.float64(0.1)), (np.bool_(False), "x%d"), (np.int64(3), 1e-300), (2, 2.0), (3, 3.0)],
        [(1.0, True, "s"), (2.0, False, "t"), (3, np.True_, "u"), (4, np.False_, "v")],
        [(), (), (1,), [1, 2.0, 3], (4, 5.5), (6, 7.5), ()],
        [(float("nan"),), (float("inf"),), (-0.0,), (5e-324,)],
        law[:5] + [(1, 2)] + law[5:9] + [("a", 0.5)] + law[9:],
    ]
    for rows in tables:
        want = _csv_row_by_row(("a", "b"), rows)
        assert format_table(("a", "b"), rows) == want
        assert format_table(("a", "b"), iter(rows)) == want


def test_bundle_tables_share_one_sigma(tmp_path):
    # every table of a bundle reports sigma_n = model.sigma(n), to the last bit
    run_scenario(load_scenario("elliptic2-stationary"), out=str(tmp_path))
    seen = {}
    for path in sorted(tmp_path.glob("*.csv")):
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        if "sigma" not in header:
            continue
        col = header.index("sigma")
        for row in rows:
            seen.setdefault(row[0], set()).add(row[col])
    assert seen and all(len(values) == 1 for values in seen.values()), seen


def test_run_scenario_json_format(tmp_path):
    cfg = parse_scenario_text(
        "model = builtin:rademacher\nm = 3\nr = 0\nn = 16,32,64,128\nformat = json\n"
    )
    run = run_scenario(cfg, out=str(tmp_path))
    assert run.exit_code == 0
    doc = json.loads((tmp_path / "scan_be.json").read_text())
    assert set(doc) == {"header", "rows", "meta"}
    assert doc["header"][0] == "n"
    assert len(doc["rows"]) == 4
    # manifest stays plain text in json mode
    assert (tmp_path / "manifest.txt").exists()


def test_run_scenario_needs_outdir():
    cfg = parse_scenario_text("model = builtin:rademacher\nm = 3\nn = 16,32\n")
    with pytest.raises(ScenarioError):
        run_scenario(cfg)


def test_run_scenario_respects_model_cap(tmp_path):
    cfg = parse_scenario_text("model = builtin:uniform\nn = 32,128\n")
    with pytest.raises(ScenarioError) as err:
        run_scenario(cfg, out=str(tmp_path))
    assert "n=128" in str(err.value)


# -- command line -------------------------------------------------------------


def test_cli_dist_stdout(capsys):
    code = main(["dist", "--model", "builtin:rademacher", "--n", "4"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "value,mass"
    assert out[1].startswith("-4,")
    assert len(out) == 6


def test_cli_scan_be_exit_codes(capsys):
    code = main(["scan-be", "--model", "builtin:rademacher", "--m", "3", "--n", "16,32,64"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,sigma,weighted_sup,scaled"
    assert len(out) == 4


def test_cli_expand_default_order(capsys):
    code = main(["expand", "--model", "builtin:uniform", "--n", "8", "--m", "4"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x,cdf,pdf"
    assert len(out) == 402


def test_cli_expand_without_corrections_is_the_normal(capsys):
    from edgekit.special import normal_cdf, normal_pdf

    code = main(["expand", "--model", "builtin:rademacher", "--n", "64", "--m", "4", "--r", "0",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["r"] == 0
    x, cdf, pdf = np.array(doc["rows"]).T
    assert np.array_equal(cdf, normal_cdf(x)) and np.array_equal(pdf, normal_pdf(x))


def _bernoulli(k):
    """B_k (B_1 = +1/2) as a Fraction, by the Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (k + 1)
    for m in range(k + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


@pytest.mark.parametrize("model, n, kappa, rel", [
    # kappa_k(X): Rademacher 2^k (2^k - 1) B_k / k, Uniform(-1, 1) 2^k B_k / k
    ("rademacher", 4096, lambda k: Fraction(2**k * (2**k - 1)) * _bernoulli(k) / k, 0.0),
    ("uniform", 64, lambda k: Fraction(2**k) * _bernoulli(k) / k, 1e-14),
])
def test_cli_cumulants_to_order_16_match_closed_forms(capsys, model, n, kappa, rel):
    code = main(["cumulants", "--model", "builtin:" + model, "--n", str(n), "--m", "16",
                 "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r[0] for r in rows] == list(range(1, 17))
    for k, raw, _ in rows[1:]:
        exact = float(n * kappa(k))
        assert abs(raw - exact) <= rel * abs(exact), k
    assert main(["cumulants", "--model", "builtin:" + model, "--n", str(n), "--m", "17"]) == 2


def test_cli_usage_errors(capsys):
    # r above m - 2
    code = main(["scan-edgeworth", "--model", "builtin:rademacher", "--m", "3", "--r", "2", "--n", "8,16"])
    assert code == 2
    # coupling needs a chain
    code = main(["couple", "--model", "builtin:uniform", "--n", "16,32"])
    assert code == 2
    # single-n commands reject lists
    code = main(["dist", "--model", "builtin:rademacher", "--n", "4,8"])
    assert code == 2
    err = capsys.readouterr().err
    assert "edgekit:" in err


@pytest.mark.parametrize("argv", [
    ["expand", "--model", "builtin:rademacher", "--n", "64", "--m", "99", "--r", "0"],
    ["scan-transport", "--model", "builtin:rademacher", "--n", "16,32", "--m", "99", "--r", "0"],
    ["expand", "--model", "builtin:rademacher", "--n", "64", "--m", "2", "--r", "0"],
])
def test_cli_refuses_expansion_orders_outside_range_without_corrections(capsys, argv):
    # the range of m is checked on its own, even where r = 0 reads the order-2 expansion
    assert main(argv) == 2
    assert "expansion order must be in [3, 16]" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["inf", "nan", "1,-inf"])
def test_cli_refuses_non_finite_transport_order(capsys, order):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_:
        main(["scan-transport", "--model", "builtin:rademacher", "--n", "16,32", "--p", order])
    assert exit_.value.code == 2
    assert "--p" in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("argv", [
    ["scan-be", "--model", "builtin:rademacher", "--n", "8,16", "--grid-max", "-3"],
    ["scan-edgeworth", "--model", "builtin:uniform", "--n", "4,8", "--grid-max", "0"],
    ["expand", "--model", "builtin:rademacher", "--n", "8", "--grid-max", "-2"],
    ["expand", "--model", "builtin:rademacher", "--n", "8", "--grid-max", "inf"],
])
def test_cli_refuses_a_grid_max_that_is_not_finite_and_positive(capsys, argv):
    assert main(argv) == 2
    assert "grid_max must be finite and positive" in capsys.readouterr().err


def test_cli_unknown_model_message(capsys):
    code = main(["scan-be", "--model", "builtin:wat", "--n", "8,16"])
    assert code == 2
    assert "rademacher" in capsys.readouterr().err


def test_cli_cumulants_elliptic2_large_n(capsys):
    # |mean| of the n = 6000 law is ~3e-10 from float summation alone
    assert main(["cumulants", "--model", "builtin:elliptic2", "--n", "6000"]) == 0
    assert capsys.readouterr().out.startswith("order,raw,normalized\n")


def test_cli_json_output(capsys):
    code = main(["cumulants", "--model", "builtin:rademacher", "--n", "16", "--m", "4",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["header"] == ["order", "raw", "normalized"]
    assert doc["rows"][1][1] == pytest.approx(16.0)


def test_cli_file_output(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(["scan-moments", "--model", "builtin:rademacher", "--n", "16,32",
                 "--q", "2,3", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    body = target.read_text()
    assert body.startswith("n,sigma,q,")
    assert body.endswith("\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["scan-moments", "--model", "builtin:rademacher", "--n", "16,32", "--q", "2,3"],
        ["couple", "--model", "builtin:elliptic2", "--n", "16"],
    ],
)
def test_cli_stdout_and_file_bytes_agree(tmp_path, capsys, argv, fmt):
    code = main(argv + ["--format", fmt])
    printed = capsys.readouterr().out
    target = tmp_path / ("table." + fmt)
    assert main(argv + ["--format", fmt, "--out", str(target)]) == code == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_cli_run_preset(tmp_path, capsys):
    code = main(["run", "rademacher-be", "--out", str(tmp_path / "bundle")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scan_be: bounded" in out
    assert "exit 0" in out
    assert (tmp_path / "bundle" / "manifest.txt").exists()


def test_cli_run_scenario_file(tmp_path, capsys):
    cfgfile = tmp_path / "sccosta.cfg"
    cfgfile.write_text(
        "model = builtin:rademacher\nm = 3\nr = 0\nn = 16,32,64\nout = %s\n"
        % (tmp_path / "reports")
    )
    code = main(["run", str(cfgfile)])
    assert code == 0
    assert (tmp_path / "reports" / "scan_be.csv").exists()


def test_cli_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = builtin:rademacher\nm = 17\n")
    code = main(["run", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "m" in capsys.readouterr().err


def test_cli_couple_single_n_table(capsys):
    code = main(["couple", "--model", "builtin:elliptic2", "--n", "16"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,var_s_k,block_var,remainder"
    assert len(out) == 18


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "0"])
def test_cli_couple_refuses_a_target_that_is_not_finite_and_positive(target, capsys):
    code = main(["couple", "--model", "builtin:elliptic2", "--n", "64", "--target=" + target])
    assert code == 2
    assert "blocking target must be finite and positive" in capsys.readouterr().err


def test_couple_serves_non_integer_p(capsys):
    # the coupling's W_p takes wasserstein_distance's route for the order:
    # partial moments at integer p, Gauss rules over the quantile cells otherwise
    model = builtin_model("elliptic2")
    law, a = model.distribution(256), model.blocking(256).a[256]
    for p in (1.5, 2):
        ref = wasserstein_distance(law, GaussianLaw(0.0, math.sqrt(a)), p)
        assert gaussian_coupling(model, 256, p=p) == ref
    assert scan_coupling(model, (128, 256), p=1.5).distances[-1] == gaussian_coupling(model, 256, p=1.5)
    assert main(["couple", "--model", "builtin:elliptic2", "--n", "256", "--p", "1.5", "--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["p"] == 1.5 and meta["distance"] == gaussian_coupling(model, 256, p=1.5)


@pytest.mark.parametrize("p", ["0.5", "inf", "nan"])
@pytest.mark.parametrize("ns", ["64", "32,64"])
def test_cli_couple_refuses_bad_p_before_any_law_or_blocking(p, ns, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a law or a blocking was built")

    monkeypatch.setattr(ChainModel, "distribution", refuse)
    monkeypatch.setattr(ChainModel, "blocking", refuse)
    code = main(["couple", "--model", "builtin:elliptic2", "--n", ns, "--p=" + p])
    assert code == 2
    assert "finite and >= 1" in capsys.readouterr().err


def test_cli_couple_runs_one_dp_sweep(monkeypatch, capsys):
    from edgekit.models import markov

    # every table sweep starts from a sweep plan; the blocking and its
    # variance profile come from series, so only the coupling's law sweeps
    calls = []
    original = markov._sweep_plan

    def counted(spec):
        calls.append(spec.n_steps)
        return original(spec)

    monkeypatch.setattr(markov, "_sweep_plan", counted)
    assert main(["couple", "--model", "builtin:elliptic2", "--n", "64"]) == 0
    assert calls == [64]
    capsys.readouterr()


def _coin_chain_file(path, steps, pairs):
    """Chain file of independent fair steps; step j takes the values pairs[j % len(pairs)]."""
    kernel = np.full((2, 2), 0.5)
    obs = [np.array([pair, pair], dtype=float) for pair in pairs]
    spec = MarkovChainSpec([0.5, 0.5], (kernel,) * steps,
                           tuple(obs[j % len(obs)] for j in range(steps)))
    save_chain_spec(spec, path)
    return str(path)


# fair +-1 coin: kappa_2..kappa_8 of log cosh z (odd orders vanish)
_COIN_KAPPAS = {2: 1.0, 4: -2.0, 6: 16.0, 8: -272.0}


@pytest.mark.parametrize("pair", [(1.0, 1.000001), (0.0, math.sqrt(2.0))])
def test_cli_off_lattice_chains_get_cumulants_and_law(tmp_path, capsys, pair):
    n = 100_000
    path = _coin_chain_file(tmp_path / "chain.txt", n, [pair])
    assert main(["cumulants", "--model", path, "--n", str(n), "--m", "8"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    half = (pair[1] - pair[0]) / 2.0  # S_n = n half + half (sum of n fair coins) - E S_n
    for k, raw, normalized in rows:
        k = int(k)
        if k in _COIN_KAPPAS:
            ref = n * half**k * _COIN_KAPPAS[k]
            assert abs(float(raw) - ref) <= 1e-12 * abs(ref), (k, raw, ref)
        else:
            assert abs(float(normalized)) <= 1e-13, (k, normalized)
    # the DP snaps these values to a lattice that misses them by up to 1e-9;
    # its mean check allows for that, and the law is the binomial one
    assert main(["dist", "--model", path, "--n", "64"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    masses = np.array([float(mass) for _, mass in rows])
    binomial = np.array([math.comb(64, k) for k in range(65)]) / 2.0**64
    # DP masses carry relative error below n (S + 2) u (see markov._mean_tolerance)
    assert np.all(np.abs(masses - binomial) <= 64 * 4 * np.finfo(float).eps * binomial)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["dist", "cumulants"])
def test_cli_refuses_a_chain_file_with_non_finite_entries(tmp_path, capsys, value, command):
    path = tmp_path / "chain.txt"
    path.write_text("[initial]\n0.5 0.5\n\n[kernel.1]\n0.5 0.5\n0.5 0.5\nrepeat = 4\n\n"
                    "[observable.1]\n%s -1\n1 -1\nrepeat = 4\n" % value)
    assert main([command, "--model", str(path), "--n", "4"]) == 2
    assert "observable 0 has a non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dist", "cumulants"])
def test_cli_refuses_a_chain_file_whose_values_overflow(tmp_path, capsys, command):
    # 1e308 - (-1e308) is inf: the law's f - min f and the series'
    # midrange shift would carry it into a traceback or a nan table
    path = tmp_path / "chain.txt"
    path.write_text("[initial]\n0.5 0.5\n\n[kernel.1]\n0.5 0.5\n0.5 0.5\nrepeat = 4\n\n"
                    "[observable.1]\n1e308 -1e308\n1 -1\nrepeat = 4\n")
    assert main([command, "--model", str(path), "--n", "4"]) == 2
    assert "observable 0 has values further apart than the float range" in capsys.readouterr().err


def test_cli_fine_lattice_refusal_names_the_table_free_commands(tmp_path, capsys):
    path = _coin_chain_file(tmp_path / "fine.txt", 512, [(0.0, 1.0), (0.0, 1.000001)])
    assert main(["dist", "--model", path, "--n", "512"]) == 2
    err = capsys.readouterr().err
    assert "lattice step 1e-06 needs up to" in err
    assert "cumulants, expand and scan-stationary need none" in err
    assert main(["cumulants", "--model", path, "--n", "512", "--m", "4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    for k in (2, 4):
        ref = 256 * (1.0 + 1.000001**k) * _COIN_KAPPAS[k] / 2**k
        assert float(rows[k - 1][1]) == pytest.approx(ref, rel=1e-13)


def test_cli_series_commands_build_no_law(monkeypatch, capsys):
    from edgekit.models import families, markov

    def refuse(spec):
        raise AssertionError("a law was built")

    monkeypatch.setattr(markov, "exact_distribution", refuse)
    monkeypatch.setattr(families, "exact_distribution", refuse)
    assert main(["cumulants", "--model", "builtin:elliptic2", "--n", "100000", "--m", "8"]) == 0
    assert main(["scan-stationary", "--model", "builtin:elliptic2",
                 "--n", "1024,4096,16384,65536,100000", "--m", "4"]) == 0
    assert main(["expand", "--model", "builtin:rademacher", "--n", "100000", "--m", "16"]) == 0
    assert builtin_model("flip2").blocking(256).blocks  # the blocking needs no law either
    capsys.readouterr()


def test_cli_import_leaves_quadrature_and_signal_unloaded():
    import edgekit

    code = ("import sys, edgekit.harness.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.signal'))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(edgekit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_dist_bytes_do_not_depend_on_the_blas_thread_count():
    # the powered law at this size multiplies polynomials whose nonzero
    # spans pass the 10**4 terms past which OpenBLAS splits a dot product
    # across its threads; at n = 32768 the spans stay below that
    import edgekit

    argv = [sys.executable, "-m", "edgekit.harness.cli", "dist", "--model", "builtin:elliptic2",
            "--n", "100000"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(edgekit.__file__)))
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(outs[0].splitlines()) == 20510  # header and 20,509 cells
    assert outs[0] == outs[1]


def test_cli_chain_file_roundtrip(tmp_path, capsys):
    spec = builtin_model("elliptic2").spec(8)
    path = tmp_path / "chain8.txt"
    save_chain_spec(spec, path)
    code = main(["scan-be", "--model", str(path), "--m", "3", "--n", "4,6,8"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4


def test_cli_refuses_a_chain_file_whose_shifts_pass_2_to_the_53(tmp_path, capsys):
    # 1e308 and 1.7e308 are 3.5e307 lattice steps of 2 apart: the integer
    # shifts were cast unchecked and wrapped, and the sweep died on a
    # broadcast error that named neither the step nor the cause
    path = tmp_path / "chain.txt"
    path.write_text("[initial]\n0.5 0.5\n\n[kernel.1]\n0.5 0.5\n0.5 0.5\nrepeat = 2\n\n"
                    "[observable.1]\n1 -1\n1 -1\n\n[observable.2]\n1.7e308 1e308\n1e308 1.7e308\n")
    assert main(["dist", "--model", str(path), "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "observable 1 spans 3.5e+307 lattice steps of 2, past 2^53" in err


def _two_state_chain_file(path, value):
    path.write_text("[initial]\n0.5 0.5\n\n[kernel.1]\n0.5 0.5\n0.5 0.5\nrepeat = 4\n\n"
                    "[observable.1]\n%s -%s\n1 -1\nrepeat = 4\n" % (value, value))
    return str(path)


@pytest.mark.parametrize("command", ["dist", "cumulants", "couple"])
def test_cli_refuses_a_chain_file_whose_cumulants_overflow(tmp_path, capsys, command):
    # values 2e200 apart fit the float range, but the order-2 series holds
    # (1e200)^2 / 2: cumulants printed nan and exited 0; dist carries sigma;
    # couple's blocking ran on inf and blamed the target. The step series
    # is refused where it is built, before numpy warns of any overflow
    path = _two_state_chain_file(tmp_path / "chain.txt", "1e200")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--model", path, "--n", "4"]) == 2
    assert capsys.readouterr().err == (
        "edgekit: cumulant 2 of S_n is not finite: the observables' values are too far "
        "apart for the order-2 step series\n"
    )


def test_cli_refuses_a_chain_file_whose_variance_overflows(tmp_path, capsys):
    # the order-2 series of values 1.3e154 apart is finite, but Var(S_3)
    # passes the float range: the blocking refuses it by its cumulant, and
    # so do dist and cumulants, though cumulants' order-3 series overflows
    # too (it named cumulant 3)
    path = _two_state_chain_file(tmp_path / "chain.txt", "1.3e154")
    for argv in (["dist"], ["couple"], ["cumulants", "--m", "4"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--model", path, "--n", "4", "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == (
            "edgekit: cumulant 2 of S_n is not finite: the observables' values are too far "
            "apart for the order-2 step series\n"
        ), argv


def test_cli_couples_a_chain_file_whose_discarded_order4_products_overflow(tmp_path, capsys):
    # values 2e100 apart: every kept product of the blocking's order-2 rows
    # is finite, but v_2 M_2, which it discards, is (1e100)^4 and printed
    # "overflow encountered in matmul" before only the six kept ones were formed
    path = _two_state_chain_file(tmp_path / "chain.txt", "1e100")
    out = tmp_path / "c.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["couple", "--model", path, "--n", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines() if line and not line.startswith("#")]
    assert len(rows) > 1 and all(math.isfinite(float(x)) for row in rows[1:] for x in row[1:] if x)


# -- one build per n per scenario run -------------------------------------------

_SHARED_CONFIGS = {
    "rademacher": "model = builtin:rademacher\nm = 3\nn = 16,32,64,128\n",
    "elliptic2": "model = builtin:elliptic2\nm = 4\nr = 1\nn = 32,64,128,256\n",
    "symmetric2": "model = builtin:symmetric2\nm = 5\nr = 2\nn = 16,32,64,128\np = 1,1.5\n",
    "flip2": "model = builtin:flip2\nm = 4\nr = 1\nn = 16,32,64,128\n",
    "uniform": "model = builtin:uniform\nm = 4\nr = 1\nn = 2,4,8\np = 1,2\nq = 2,3\n",
}


def _served_model(monkeypatch, name, tmp_path):
    """The model that served a whole run_scenario of _SHARED_CONFIGS[name], and the config."""
    from edgekit.harness import scenario

    config = parse_scenario_text(_SHARED_CONFIGS[name])
    served = []
    monkeypatch.setattr(scenario, "resolve_model",
                        lambda token: served.append(resolve_model(token)) or served[-1])
    run_scenario(config, out=str(tmp_path / "bundle"))
    monkeypatch.undo()
    return served[0], config


@pytest.mark.parametrize("name", sorted(_SHARED_CONFIGS))
def test_a_model_that_served_a_run_gives_each_n_the_numbers_of_a_fresh_model(monkeypatch, tmp_path, name):
    from edgekit.harness.scenario import _top_orders
    from edgekit.transport import wasserstein_upper_bound

    model, config = _served_model(monkeypatch, name, tmp_path)
    kmax, r_top = _top_orders(config)
    t = np.linspace(-2.0, 2.0, 9)
    for n in config.ns:
        fresh = resolve_model(config.model)
        assert model.cumulants(n, kmax) == fresh.cumulants(n, kmax)
        for r in range(1, r_top + 1):
            served, alone = model.expansion(n, r), fresh.expansion(n, r)
            assert served.sigma == alone.sigma
            for a, b in zip(served.polys + served.density_polys, alone.polys + alone.density_polys):
                assert np.array_equal(a.coef, b.coef)
        rows = model.charfn_deriv(n, t, range(config.m + 1))
        for k in range(config.m + 1):
            assert np.array_equal(rows[k], fresh.charfn_deriv(n, t, k))
        sigma = fresh.sigma(n)
        norm, alone = model.distribution(n).scale(1.0 / model.sigma(n)), fresh.distribution(n).scale(1.0 / sigma)
        for p in config.ps:
            gauss = GaussianLaw(0.0, 1.0)
            assert wasserstein_upper_bound(norm, gauss, p) == wasserstein_upper_bound(alone, gauss, p)


def test_a_scenario_run_builds_each_n_once_at_its_top_order(monkeypatch, tmp_path):
    # elliptic2-stationary reads 1 and 2 corrections (the order-4 build of
    # the stationarity scan) and cumulants to q = 4; rademacher-be reads
    # the order-3 expansion of the stationarity scan and cumulants to
    # order 4, and builds nothing of order 5
    from edgekit.models import families

    series, builds = [], []
    cumulant_series, build_expansion = families._cumulant_series, families.build_expansion
    monkeypatch.setattr(families, "_cumulant_series",
                        lambda spec, kmax, store: series.append((spec.n_steps, kmax))
                        or cumulant_series(spec, kmax, store))
    monkeypatch.setattr(families, "build_expansion",
                        lambda model, n, m: builds.append((n, m)) or build_expansion(model, n, m))
    for preset, kmax, m in (("elliptic2-stationary", 4, 4), ("rademacher-be", 4, 3)):
        series.clear()
        builds.clear()
        config = load_scenario(preset)
        run_scenario(config, out=str(tmp_path / preset))
        assert series == [(n, kmax) for n in config.ns]
        assert builds == [(n, m) for n in config.ns]


@pytest.mark.parametrize("name, n", [("elliptic2", 64), ("uniform", 8)])
def test_order_zero_expansion_is_the_normal_before_and_after_a_corrected_one(name, n):
    from edgekit.special import normal_cdf, normal_pdf

    first, later = builtin_model(name), builtin_model(name)
    asked_first = first.expansion(n, 0)
    first.expansion(n, 1)
    later.expansion(n, 1)
    asked_later = later.expansion(n, 0)
    assert first.expansion(n, 0) is asked_first and later.expansion(n, 0) is asked_later
    x = np.linspace(-45.0, 45.0, 901)
    for e in (asked_first, asked_later):
        assert e.corrections == 0
        assert e.sigma == first.sigma(n) == later.sigma(n)
        assert np.array_equal(e.cdf(x), normal_cdf(x)) and np.array_equal(e.pdf(x), normal_pdf(x))
    assert later.expansion(n, 1).corrections == 1


def test_r0_scans_read_the_order_zero_expansion(monkeypatch):
    # every scan takes its reference law at r = 0 from model.expansion(n, 0)
    model = builtin_model("rademacher")
    asked = []
    expansion = model.expansion
    monkeypatch.setattr(model, "expansion", lambda n, r: asked.append((n, r)) or expansion(n, r))
    ns = (16, 32)
    scan_nonuniform(model, 3, 0, ns)
    scan_transport(model, (1,), ns, r=0)
    scan_moments(model, (3,), 0, ns)
    assert asked == [(n, 0) for n in ns] * 3


@pytest.mark.parametrize("model", ["builtin:uniform", "builtin:rademacher"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_cli_refuses_a_window_that_is_not_finite(capsys, model, eps):
    assert main(["check-assumptions", "--model", model, "--n", "4,8", "--eps", eps]) == 2
    assert "eps must be finite" in capsys.readouterr().err


def _check_standalone_scans(tmp_path, preset, scans):
    """The CLI scans with a preset's settings write the bundle's bytes."""
    config = load_scenario(preset)
    run_scenario(config, out=str(tmp_path / "bundle"))
    common = ["--model", config.model, "--n", ",".join(map(str, config.ns))]
    for table, argv in scans:
        out = tmp_path / (table + ".csv")
        main(argv + common + ["--out", str(out)])
        assert out.read_bytes() == (tmp_path / "bundle" / (table + ".csv")).read_bytes(), table


def test_standalone_scans_equal_the_bundle(tmp_path):
    _check_standalone_scans(tmp_path, "elliptic2-stationary", (
        ("scan_edgeworth", ["scan-edgeworth", "--m", "4", "--r", "1"]),
        ("scan_transport", ["scan-transport", "--m", "4", "--r", "1", "--p", "1,2"]),
        ("scan_moments", ["scan-moments", "--r", "1", "--q", "2,3,4"]),
        ("assumptions", ["check-assumptions", "--m", "4"]),
    ))


def test_standalone_r0_scans_equal_the_rademacher_bundle(tmp_path):
    _check_standalone_scans(tmp_path, "rademacher-be", (
        ("scan_be", ["scan-be", "--m", "3"]),
        ("scan_transport", ["scan-transport", "--m", "3", "--r", "0", "--p", "1,2"]),
        ("scan_moments", ["scan-moments", "--r", "0", "--q", "2,3,4"]),
        ("assumptions", ["check-assumptions", "--m", "3"]),
        ("scan_stationary", ["scan-stationary", "--m", "3"]),
        ("couple", ["couple"]),
    ))


def test_no_series_store_outlives_its_model(monkeypatch, tmp_path):
    import gc
    import weakref

    model, _ = _served_model(monkeypatch, "elliptic2", tmp_path)
    store = weakref.ref(model._store)
    assert store() is not None
    del model
    gc.collect()
    assert store() is None
    # and two resolutions of one token share nothing
    a, b = resolve_model("builtin:elliptic2"), resolve_model("builtin:elliptic2")
    assert a._store is not b._store
    a.cumulants(64, 4)
    a.blocking(64)
    assert a._store._series and not b._store._series and not b._store._squares
