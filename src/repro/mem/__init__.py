"""Cache storage substrate: arrays, MSHRs, main memory."""

from repro.mem.main_memory import MainMemory
from repro.mem.mshr import MSHRFile
from repro.mem.storage import SetAssociativeArray

__all__ = [
    "MainMemory",
    "MSHRFile",
    "SetAssociativeArray",
]
