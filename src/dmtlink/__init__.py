"""Flexible-rate IM/DD DMT WDM link simulator.

Submodules: core (types/constellations), txdsp (transmit chain), loading
(SNR estimation and bit/power loading), channel (optical link model),
rxdsp (receive chain), harness (experiments), cli (command line).  The
package namespace carries what a harness user needs; every other name is
imported from its submodule.
"""

__version__ = "0.1.0"

from .channel import LinkConfig
from .core import DmtConfig, InfeasibleRateError
from .harness import (
    InfeasibleOsnrError,
    RunRecord,
    ScenarioConfig,
    evaluate_point,
    persist_run,
    rate_reach_table,
    required_osnr,
    run_link,
    sweep_detuning,
    sweep_osnr,
    sweep_reach,
)
from .loading import GapConfig
from .rxdsp import SyncNotFoundError

__all__ = [
    "DmtConfig",
    "GapConfig",
    "InfeasibleOsnrError",
    "InfeasibleRateError",
    "LinkConfig",
    "RunRecord",
    "ScenarioConfig",
    "SyncNotFoundError",
    "evaluate_point",
    "persist_run",
    "rate_reach_table",
    "required_osnr",
    "run_link",
    "sweep_detuning",
    "sweep_osnr",
    "sweep_reach",
    "__version__",
]
