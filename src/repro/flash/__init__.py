"""SSD substrate: NAND timing, channels, FTL, DRAM, host interface."""

from .channel import ONFI_COMMAND_BYTES, FlashChannel
from .cmt import DFTL, CachedMappingTable
from .dram import DRAM
from .ftl import FTL, FlashAddress
from .hostif import NVME_COMMAND_OVERHEAD, HostInterface
from .nand import Die, FlashChip, Plane
from .ssd import SSD

__all__ = [
    "ONFI_COMMAND_BYTES",
    "FlashChannel",
    "DFTL",
    "CachedMappingTable",
    "DRAM",
    "FTL",
    "FlashAddress",
    "NVME_COMMAND_OVERHEAD",
    "HostInterface",
    "Die",
    "FlashChip",
    "Plane",
    "SSD",
]
