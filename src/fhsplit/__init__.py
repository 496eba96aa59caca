"""Fronthaul functional-split planning and DU-RU link emulation.

The package has three layers: closed-form bandwidth/latency models for
splits 8, 7.1, 7.2 and 7.3 (cell, rates), the split fronthaul transport
(wire, llr, messages) and a protocol emulator that measures fronthaul
consumption under offered traffic (channel, emulation). configio loads
cell and scenario files; cli exposes everything as subcommands.
"""

from .cell import (
    CellConfig,
    Direction,
    LinkBudget,
    MODULATION_NAMES,
    PRESETS,
    SplitOption,
    preset,
)
from .channel import ChannelSpec, SimulatedChannel
from .configio import Scenario, load_cell_config, load_scenario
from .emulation import (
    EmulationReport,
    TrafficProfile,
    TrafficScheduler,
    run_emulation,
    run_socket_emulation,
    subframe_capacity_bits,
)
from .llr import LlrQuantizer, dequantize_llr, pack_codes, quantize_llr, unpack_codes
from .rates import (
    CapacityRow,
    capacity_table,
    efficiency_ratio,
    expected_efficiency,
    max_fronthaul_distance_km,
    rate,
    rate_71,
    rate_72,
    rate_73_dl,
    rate_73_ul,
    rate_option8,
)
from .wire import (
    Chunk,
    Complete,
    HEADER_LEN,
    HeaderError,
    Jumbled,
    MAX_DATAGRAM,
    Malformed,
    ReassemblyBuffer,
    SplitHeader,
    Timeout,
    chunk_from_datagram,
    chunk_subframe,
    decode_header,
    encode_header,
)

__version__ = "0.1.0"

__all__ = [
    "CellConfig",
    "Direction",
    "LinkBudget",
    "MODULATION_NAMES",
    "PRESETS",
    "SplitOption",
    "preset",
    "ChannelSpec",
    "SimulatedChannel",
    "Scenario",
    "load_cell_config",
    "load_scenario",
    "EmulationReport",
    "TrafficProfile",
    "TrafficScheduler",
    "run_emulation",
    "run_socket_emulation",
    "subframe_capacity_bits",
    "LlrQuantizer",
    "dequantize_llr",
    "pack_codes",
    "quantize_llr",
    "unpack_codes",
    "CapacityRow",
    "capacity_table",
    "efficiency_ratio",
    "expected_efficiency",
    "max_fronthaul_distance_km",
    "rate",
    "rate_71",
    "rate_72",
    "rate_73_dl",
    "rate_73_ul",
    "rate_option8",
    "Chunk",
    "Complete",
    "HEADER_LEN",
    "HeaderError",
    "Jumbled",
    "MAX_DATAGRAM",
    "Malformed",
    "ReassemblyBuffer",
    "SplitHeader",
    "Timeout",
    "chunk_from_datagram",
    "chunk_subframe",
    "decode_header",
    "encode_header",
]
