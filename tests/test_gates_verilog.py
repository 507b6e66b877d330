"""Structural Verilog export: well-formedness and completeness checks.

Without an HDL simulator in the environment, these tests verify the
emitted text structurally: legal identifiers, one assignment per gate,
one flop per register bit, consistent port widths, and full driver
coverage (every used wire is driven exactly once).
"""

import re

import pytest

from repro.errors import DesignError
from repro.gates import GateNetlist, elaborate, netlist_to_verilog, save_verilog

from helpers import build_small_design


@pytest.fixture(scope="module")
def verilog():
    design = build_small_design("plain")
    nl = elaborate(design.graph)
    return design, nl, netlist_to_verilog(nl)


class TestWellFormedness:
    def test_module_and_ports(self, verilog):
        design, nl, text = verilog
        assert text.startswith("//")
        assert f"module filter_bist_cut" in text
        assert f"input  wire [{design.input_fmt.width - 1}:0] x," in text
        out_w = design.output_fmt.width
        assert f"output wire [{out_w - 1}:0] y" in text
        assert text.rstrip().endswith("endmodule")

    def test_one_assignment_per_gate(self, verilog):
        _, nl, text = verilog
        wire_assigns = re.findall(r"^\s*wire \w+ = .*;$", text, re.M)
        # input taps + const0/1 + one per gate
        assert len(wire_assigns) == nl.gate_count + len(nl.input_bits) + 2

    def test_one_flop_per_register_bit(self, verilog):
        _, nl, text = verilog
        assert len(re.findall(r"^\s*reg \w+;$", text, re.M)) == nl.dff_count
        assert len(re.findall(r"<= 1'b0;", text)) == nl.dff_count

    def test_identifiers_legal(self, verilog):
        _, _, text = verilog
        for ident in re.findall(r"wire (\w+) =", text):
            assert re.fullmatch(r"[A-Za-z_]\w*", ident)

    def test_every_wire_driven_once(self, verilog):
        _, _, text = verilog
        drivers = re.findall(r"^\s*(?:wire (\w+) =|assign (\w+) =)", text, re.M)
        names = [a or b for a, b in drivers]
        assert len(names) == len(set(names))

    def test_no_undriven_references(self, verilog):
        _, _, text = verilog
        driven = set(re.findall(r"^\s*wire (\w+) =", text, re.M))
        driven |= set(re.findall(r"^\s*reg (\w+);", text, re.M))
        driven |= {"clk", "rst", "x", "y", "const0", "const1"}
        body = text.split(");", 1)[1]
        used = set(re.findall(r"[A-Za-z_]\w*", body))
        used -= {"module", "input", "output", "wire", "reg", "assign",
                 "always", "posedge", "begin", "end", "endmodule", "if",
                 "else", "b0", "b1"}
        undriven = {u for u in used if not u.isdigit()} - driven
        assert not undriven, sorted(undriven)[:10]


class TestApi:
    def test_empty_netlist_rejected(self):
        with pytest.raises(DesignError):
            netlist_to_verilog(GateNetlist())

    def test_save(self, tmp_path):
        design = build_small_design("single_digit")
        nl = elaborate(design.graph)
        path = tmp_path / "cut.v"
        save_verilog(nl, str(path), module_name="tiny")
        assert "module tiny" in path.read_text()

    def test_name_collisions_resolved(self, monkeypatch):
        """Two netlist nets with the same sanitized name must get
        distinct Verilog identifiers."""
        design = build_small_design("plain")
        nl = elaborate(design.graph)
        names = nl.net_names()
        names[5] = names[4]  # force a collision
        monkeypatch.setattr(nl, "net_names", lambda: list(names))
        text = netlist_to_verilog(nl)
        drivers = re.findall(r"^\s*(?:wire|reg) (\w+)", text, re.M)
        assert len(drivers) == len(set(drivers))
