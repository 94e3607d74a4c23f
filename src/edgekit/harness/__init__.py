"""Scenario runner and command line front end.

Composes models, cumulant diagnostics, corrected approximations and
transport functionals into whole-range scans with machine-readable
reports that carry their own summary and verdict, plus a scenario
runner that writes them to disk.
"""

from .scans import (
    AssumptionScanReport,
    CouplingScanReport,
    ErrorScanReport,
    MomentScanReport,
    StationaryScanReport,
    TransportScanReport,
    scan_assumptions,
    scan_coupling,
    scan_moments,
    scan_nonuniform,
    scan_stationarity,
    scan_transport,
)
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    ScenarioRun,
    load_scenario,
    parse_scenario_file,
    parse_scenario_text,
    resolve_model,
    run_scenario,
    scenario_presets,
)

__all__ = [
    "ErrorScanReport",
    "TransportScanReport",
    "MomentScanReport",
    "StationaryScanReport",
    "CouplingScanReport",
    "AssumptionScanReport",
    "scan_nonuniform",
    "scan_transport",
    "scan_moments",
    "scan_stationarity",
    "scan_coupling",
    "scan_assumptions",
    "ScenarioConfig",
    "ScenarioError",
    "ScenarioRun",
    "load_scenario",
    "parse_scenario_file",
    "parse_scenario_text",
    "resolve_model",
    "run_scenario",
    "scenario_presets",
]
