"""Structural Verilog export of elaborated netlists.

Emits a synthesizable, self-contained Verilog-2001 module from a
:class:`~repro.gates.netlist.GateNetlist`: one continuous assignment per
gate, one always-block flop per register bit, the input bus split into
bit wires and the output bus recombined.  The emitted text is plain
structural logic — no vendor cells — so it drops into any simulator or
synthesis flow for silicon-level validation of the Python model.
"""

from __future__ import annotations

import re
from typing import Dict, List

from ..errors import DesignError
from .netlist import GATE_KINDS, GateNetlist

__all__ = ["netlist_to_verilog", "save_verilog", "generate_testbench"]

_OPS = {"xor": "^", "and": "&", "or": "|"}


def _sanitize(name: str) -> str:
    """Make a netlist net name a legal Verilog identifier."""
    out = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not out or out[0].isdigit():
        out = "n_" + out
    return out


def _unique_names(nl: GateNetlist) -> Dict[int, str]:
    seen: Dict[str, int] = {}
    names: Dict[int, str] = {}
    for net, raw in enumerate(nl.net_names()):
        base = _sanitize(raw)
        count = seen.get(base, 0)
        seen[base] = count + 1
        names[net] = base if count == 0 else f"{base}__{count}"
    return names


def netlist_to_verilog(nl: GateNetlist, module_name: str = "filter_bist_cut"
                       ) -> str:
    """Render the netlist as one structural Verilog module."""
    if not len(nl.input_bits) or not len(nl.output_bits):
        raise DesignError("netlist must have input and output buses")
    names = _unique_names(nl)
    in_width = len(nl.input_bits)
    out_width = len(nl.output_bits)

    lines: List[str] = []
    lines.append(f"// Generated by repro.gates.verilog — "
                 f"{nl.gate_count} gates, {nl.dff_count} flops")
    lines.append(f"module {module_name} (")
    lines.append("    input  wire                 clk,")
    lines.append("    input  wire                 rst,")
    lines.append(f"    input  wire [{in_width - 1}:0] x,")
    lines.append(f"    output wire [{out_width - 1}:0] y")
    lines.append(");")
    lines.append("")
    lines.append("  wire const0 = 1'b0;")
    lines.append("  wire const1 = 1'b1;")
    lines.append("")

    for j, net in enumerate(nl.input_bits.tolist()):
        lines.append(f"  wire {names[net]} = x[{j}];")
    lines.append("")

    # Registers first (their outputs are read by gates emitted below).
    d_nets, q_nets = nl.dff_d.tolist(), nl.dff_q.tolist()
    for q in q_nets:
        lines.append(f"  reg {names[q]};")
    lines.append("")

    for code, out, a, b in zip(nl.kind.tolist(), nl.out.tolist(),
                               nl.in0.tolist(), nl.in1.tolist()):
        kind = GATE_KINDS[code]
        if kind == "not":
            expr = f"~{names[a]}"
        elif kind == "buf":
            expr = names[a]
        else:
            expr = f"{names[a]} {_OPS[kind]} {names[b]}"
        lines.append(f"  wire {names[out]} = {expr};")
    lines.append("")

    lines.append("  always @(posedge clk) begin")
    lines.append("    if (rst) begin")
    for q in q_nets:
        lines.append(f"      {names[q]} <= 1'b0;")
    lines.append("    end else begin")
    for d, q in zip(d_nets, q_nets):
        lines.append(f"      {names[q]} <= {names[d]};")
    lines.append("    end")
    lines.append("  end")
    lines.append("")

    for j, net in enumerate(nl.output_bits.tolist()):
        lines.append(f"  assign y[{j}] = {names[net]};")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def save_verilog(nl: GateNetlist, path: str,
                 module_name: str = "filter_bist_cut") -> None:
    """Write the Verilog module to a file."""
    with open(path, "w") as fh:
        fh.write(netlist_to_verilog(nl, module_name=module_name))


def generate_testbench(
    nl: GateNetlist,
    stimulus,
    golden,
    module_name: str = "filter_bist_cut",
    tb_name: str = "tb_filter_bist_cut",
) -> Dict[str, str]:
    """Self-checking Verilog testbench replaying a Python-computed session.

    Returns ``{"testbench": <verilog>, "stimulus.hex": ..., "golden.hex":
    ...}`` — the hex files are ``$readmemh`` images of the input words and
    the expected (Python golden) output words.  Running the testbench in
    any Verilog simulator cross-validates the Python model against real
    HDL semantics: it applies each stimulus word on a clock edge and
    compares the DUT output against the golden word, printing ``PASS``
    or the first mismatch.
    """
    stimulus = list(int(v) for v in stimulus)
    golden = list(int(v) for v in golden)
    if len(stimulus) != len(golden):
        raise DesignError("stimulus and golden must have equal length")
    in_w = len(nl.input_bits)
    out_w = len(nl.output_bits)
    n = len(stimulus)
    in_digits = (in_w + 3) // 4
    out_digits = (out_w + 3) // 4

    stim_hex = "\n".join(
        format(v & ((1 << in_w) - 1), f"0{in_digits}x") for v in stimulus
    ) + "\n"
    gold_hex = "\n".join(
        format(v & ((1 << out_w) - 1), f"0{out_digits}x") for v in golden
    ) + "\n"

    tb = f"""// Self-checking testbench generated by repro.gates.verilog
`timescale 1ns/1ps
module {tb_name};
  reg clk = 0;
  reg rst = 1;
  reg  [{in_w - 1}:0] x;
  wire [{out_w - 1}:0] y;
  reg  [{in_w - 1}:0] stimulus [0:{n - 1}];
  reg  [{out_w - 1}:0] golden   [0:{n - 1}];
  integer i;
  integer errors = 0;

  {module_name} dut (.clk(clk), .rst(rst), .x(x), .y(y));

  always #5 clk = ~clk;

  initial begin
    $readmemh("stimulus.hex", stimulus);
    $readmemh("golden.hex", golden);
    x = 0;
    @(negedge clk);
    rst = 0;
    for (i = 0; i < {n}; i = i + 1) begin
      x = stimulus[i];
      #1; // settle combinational logic
      if (y !== golden[i]) begin
        errors = errors + 1;
        if (errors <= 10)
          $display("MISMATCH @%0d: got %h expected %h", i, y, golden[i]);
      end
      @(negedge clk);
    end
    if (errors == 0) $display("PASS: %0d vectors", {n});
    else $display("FAIL: %0d mismatches", errors);
    $finish;
  end
endmodule
"""
    return {"testbench": tb, "stimulus.hex": stim_hex, "golden.hex": gold_hex}
