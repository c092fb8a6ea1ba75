"""CLI smoke tests (driving main() in-process)."""

import gc
import re

import pytest

from repro.bmc import EncodingSession
from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quicksort" in out and "fifo" in out

    def test_info(self, capsys):
        assert main(["info", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "memory buf" in out
        assert "property count_bounded" in out

    def test_verify_single_property(self, capsys):
        rc = main(["verify", "stack_machine", "--property", "can_reach_depth3",
                   "--engine", "bmc2", "--max-depth", "6",
                   "--addr-width", "2", "--data-width", "3"])
        assert rc == 0
        assert "witness" in capsys.readouterr().out

    def test_verify_proof(self, capsys):
        rc = main(["verify", "stack_machine", "--property", "sp_in_range",
                   "--max-depth", "10", "--addr-width", "2",
                   "--data-width", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "induction" in out

    def test_verify_explicit_engine(self, capsys):
        rc = main(["verify", "fifo", "--property", "can_fill",
                   "--engine", "explicit", "--max-depth", "6",
                   "--addr-width", "2", "--data-width", "2"])
        assert rc == 0
        assert "witness" in capsys.readouterr().out

    def test_verify_show_trace(self, capsys):
        rc = main(["verify", "fifo", "--property", "can_fill",
                   "--engine", "bmc2", "--max-depth", "6", "--show-trace",
                   "--addr-width", "2", "--data-width", "2"])
        assert rc == 0
        assert "cycle" in capsys.readouterr().out

    def test_pba_command(self, capsys):
        rc = main(["pba", "quicksort", "--property", "P2", "--n", "2",
                   "--addr-width", "3", "--data-width", "3",
                   "--stability-depth", "4", "--max-depth", "24"])
        out = capsys.readouterr().out
        assert "abstracted memories" in out
        assert "arr" in out

    def test_bad_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_verify_profile_times_shared_encode(self, capsys, monkeypatch):
        # Every property of the shared session is charged the encode of
        # each depth it was live at (4 frames here), never 0.  A
        # collection forced at every encoded frame shows up as the ``gc``
        # phase of each profiled run.
        extend_to = EncodingSession.extend_to

        def collecting_extend_to(session, depth, quota=None):
            gc.collect()
            return extend_to(session, depth, quota)

        monkeypatch.setattr(EncodingSession, "extend_to", collecting_extend_to)
        main(["verify", "multiport_soc", "--profile", "--no-proof",
              "--max-depth", "3", "--addr-width", "3", "--data-width", "4"])
        out = capsys.readouterr().out
        lines = re.findall(r"profile encode\s+([0-9.]+)s \(n=(\d+)\)", out)
        assert len(lines) == len(re.findall(r"^\S.*: ", out, re.M)) > 1
        assert all(n == "4" and float(secs) > 0 for secs, n in lines)
        pauses = re.findall(r"profile gc\s+([0-9.]+)s \(n=(\d+)\)", out)
        assert len(pauses) == len(lines)
        assert all(int(n) >= 4 for _, n in pauses)
        # The solver split names decision picks and backtracks next to
        # propagation, and which implementation ran the hot loops.
        assert "profile solver.decide" in out
        assert "profile solver.propagate" in out
        assert "profile solver.backtrack" in out
        kernels = re.findall(r"profile solver\.kernel\s+(\w+)$", out, re.M)
        assert len(kernels) == len(lines)
        assert set(kernels) <= {"native", "python"}

    def test_ablation_flags(self, capsys):
        rc = main(["verify", "stack_machine", "--property", "can_reach_depth3",
                   "--engine", "bmc2", "--max-depth", "5", "--no-exclusivity",
                   "--addr-width", "2", "--data-width", "2"])
        assert rc == 0
        assert "witness" in capsys.readouterr().out


class TestExportParse:
    def test_export_to_stdout(self, capsys):
        assert main(["export", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "module fifo" in out
        assert "endmodule" in out

    def test_export_to_file_then_parse(self, tmp_path, capsys):
        target = tmp_path / "fifo.v"
        assert main(["export", "fifo", "-o", str(target)]) == 0
        assert main(["parse", str(target)]) == 0
        out = capsys.readouterr().out
        assert "parsed module 'fifo'" in out
        assert "1 memories" in out

    def test_parse_verify(self, tmp_path, capsys):
        target = tmp_path / "fifo.v"
        main(["export", "fifo", "-o", str(target)])
        rc = main(["parse", str(target), "--verify", "--no-proof",
                   "--max-depth", "8"])
        out = capsys.readouterr().out
        assert "can_fill: witness" in out

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.v"
        bad.write_text("module broken (clk); input clk; garbage endmodule")
        assert main(["parse", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_roundtrip_command(self, capsys):
        assert main(["roundtrip", "fifo", "--max-depth", "6"]) == 0
        out = capsys.readouterr().out
        assert "bounded" in out


class TestShrinkAndMinimize:
    def test_verify_with_shrink(self, capsys):
        rc = main(["verify", "fifo", "--property", "can_fill",
                   "--no-proof", "--shrink", "--show-trace",
                   "--max-depth", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shrunk:" in out

    def test_pba_with_minimize(self, capsys):
        rc = main(["pba", "quicksort", "--property", "P2", "--n", "2",
                   "--stability-depth", "4", "--max-depth", "20",
                   "--minimize", "memory"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "minimization: dropped memories ['arr']" in out


class TestCpuDesign:
    def test_cpu_listed(self, capsys):
        main(["list"])
        assert "cpu" in capsys.readouterr().out.split()

    def test_cpu_info(self, capsys):
        assert main(["info", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "memory imem" in out
        assert "memory dmem" in out

    def test_cpu_halts_witness(self, capsys):
        rc = main(["verify", "cpu", "--property", "halts", "--no-proof",
                   "--max-depth", "14"])
        assert rc == 0
        assert "witness" in capsys.readouterr().out
