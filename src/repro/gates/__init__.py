"""Gate-level substrate: cell fault dictionaries, netlist elaboration and
the exact parallel-pattern fault-injection simulator."""

from .cells import CellFault, CellVariant, VARIANT_KINDS, cell_variant, variant_for_bit
from .netlist import GATE_KINDS, GateNetlist, elaborate
from .gatesim import (
    NetlistFault,
    bits_to_raw,
    netlist_fault_detected,
    pack_input_bits,
    simulate_netlist,
)
from .compiled import CompiledNetlist, compile_netlist, compiled_program
from .faults import (
    EnumeratedFault,
    FaultLines,
    GateFaultTable,
    enumerate_cell_faults,
    schedule_fault_batches,
)
from .fault_parallel import (
    DEFAULT_CHUNK,
    DEFAULT_WORDS,
    fault_parallel_reference,
    gate_level_missed,
    gate_level_missed_reference,
)
from .eventsim import (
    EventCone,
    FusedProgram,
    fuse_program,
    fused_program,
)
from .verilog import generate_testbench, netlist_to_verilog, save_verilog

__all__ = [
    "CellFault",
    "CellVariant",
    "VARIANT_KINDS",
    "cell_variant",
    "variant_for_bit",
    "GATE_KINDS",
    "GateNetlist",
    "elaborate",
    "NetlistFault",
    "simulate_netlist",
    "netlist_fault_detected",
    "pack_input_bits",
    "bits_to_raw",
    "CompiledNetlist",
    "compile_netlist",
    "compiled_program",
    "DEFAULT_CHUNK",
    "DEFAULT_WORDS",
    "EventCone",
    "FusedProgram",
    "fuse_program",
    "fused_program",
    "EnumeratedFault",
    "FaultLines",
    "GateFaultTable",
    "enumerate_cell_faults",
    "schedule_fault_batches",
    "fault_parallel_reference",
    "gate_level_missed",
    "gate_level_missed_reference",
    "netlist_to_verilog",
    "generate_testbench",
    "save_verilog",
]
