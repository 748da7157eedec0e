"""SSD substrate: NAND timing, channels, FTL, DRAM."""

from .channel import ONFI_COMMAND_BYTES, FlashChannel
from .cmt import DFTL, CachedMappingTable
from .dram import DRAM
from .ftl import FTL, FlashAddress
from .nand import FlashChip
from .ssd import SSD

__all__ = [
    "ONFI_COMMAND_BYTES",
    "FlashChannel",
    "DFTL",
    "CachedMappingTable",
    "DRAM",
    "FTL",
    "FlashAddress",
    "FlashChip",
    "SSD",
]
