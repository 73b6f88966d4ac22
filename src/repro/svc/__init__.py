"""The Speculative Versioning Cache: the paper's core contribution.

Quick start::

    from repro.svc import SVCSystem
    from repro.common import SVCConfig

    svc = SVCSystem(SVCConfig.paper_32kb())
    svc.begin_task(cache_id=0, rank=0)
    svc.begin_task(cache_id=1, rank=1)
    svc.store(0, 0x100, 42)          # task 0 creates a version
    result = svc.load(1, 0x100)      # task 1 reads it across the bus
    assert result.value == 42
"""

from repro.svc.cache import ProbeOutcome, SVCCache
from repro.svc.designs import DESIGNS, design_config
from repro.svc.line import LineState, SVCLine
from repro.svc.system import AccessResult, SVCSystem
from repro.svc.vcl import BusOutcome, VersionControlLogic
from repro.svc.vol import build_vol

__all__ = [
    "AccessResult",
    "BusOutcome",
    "build_vol",
    "DESIGNS",
    "design_config",
    "LineState",
    "ProbeOutcome",
    "SVCCache",
    "SVCLine",
    "SVCSystem",
    "VersionControlLogic",
]
