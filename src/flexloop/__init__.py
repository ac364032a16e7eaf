"""Closed-loop coordination of distribution-grid flexibility.

A measurement-feedback projected-gradient controller dispatches (P, Q)
setpoints to flexibility-providing units so that the active power exchanged
at the point of common coupling tracks a requested value while bus voltages
and device limits stay inside their bounds. The package bundles the grid
model, the controller, a quasi-static plant simulator, a closed-loop
harness with a model-based optimality oracle, and a CLI.
"""

from .controller import (
    ControllerConfig,
    InvalidMeasurementError,
    Measurement,
    StepRecord,
    assemble_projection_qp,
    controller_step,
    objective_gradient,
)
from .grid import (
    Branch,
    Bus,
    DeviceSet,
    DroopInverter,
    DroopLaw,
    EvCharger,
    Fpu,
    Load,
    NetworkModel,
    NetworkSpec,
    NetworkValidationError,
    build_devices,
    build_network,
    droop_law,
)
from .harness import (
    InfeasibleRequestError,
    KpiReport,
    OpfResult,
    TelemetryLog,
    random_feeder,
    reference_opf,
    run_closed_loop,
    summarize,
)
from .plant import (
    Plant,
    PlantConfig,
    PlantDivergedError,
    PlantState,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    schedule,
    steady_state_response,
)
from .powerflow import PowerFlowSolution, SingularJacobianError, solve_power_flow
from .qp import QpProblem, QpSolution, kkt_residuals, solve_qp
from .sensitivity import SensitivityError, SensitivityMatrix, compute_sensitivity

__version__ = "0.1.0"
