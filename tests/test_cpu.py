"""Tests for the accumulator-CPU case study (software programs on EMM)."""

import random

import pytest

from repro.bmc import BmcOptions, bmc3, verify
from repro.casestudies.cpu import (OPCODES, CpuParams, assemble, build_cpu,
                                   indexed_fill_program, memcpy_program,
                                   sum_program)
from repro.design import expand_memories
from repro.design.equiv import check_equivalence
from repro.sim import Simulator

SMALL = CpuParams(pc_width=5, addr_width=3, data_width=4)


def run_until_halt(design, max_cycles=64, dmem=None):
    sim = Simulator(design, init_memories={"dmem": dmem or {}})
    for _ in range(max_cycles):
        if sim.latches["halted"]:
            break
        sim.step({})
    return sim


class TestAssembler:
    def test_encodes_opcode_and_operand(self):
        code = assemble([("LDI", 5), "HALT"], SMALL)
        ow = SMALL.operand_width
        assert code[0] == (OPCODES["LDI"] << ow) | 5
        assert code[1] == OPCODES["HALT"] << ow

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError, match="unknown mnemonic"):
            assemble([("FLY", 1)], SMALL)

    def test_operand_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            assemble([("LDI", 1 << SMALL.operand_width)], SMALL)

    def test_no_operand_ops_reject_operand(self):
        with pytest.raises(ValueError, match="takes no operand"):
            assemble([("HALT", 3)], SMALL)

    def test_program_size_checked(self):
        with pytest.raises(ValueError, match="does not fit"):
            assemble(["NOP"] * ((1 << SMALL.pc_width) + 1), SMALL)


class TestInstructionSemantics:
    def exec1(self, program, dmem=None, cycles=None):
        d = build_cpu(program, SMALL)
        sim = run_until_halt(d, cycles or 40, dmem)
        return sim

    def test_ldi_sta_lda(self):
        sim = self.exec1([("LDI", 9), ("STA", 2), ("LDI", 0), ("LDA", 2),
                          "HALT"])
        assert sim.latches["acc"] == 9
        assert sim.memories["dmem"][2] == 9

    def test_add_sub_wraparound(self):
        sim = self.exec1([("LDI", 14), ("STA", 0), ("ADD", 0), "HALT"])
        assert sim.latches["acc"] == (14 + 14) % 16
        sim = self.exec1([("LDI", 3), ("STA", 0), ("LDI", 1), ("SUB", 0),
                          "HALT"])
        assert sim.latches["acc"] == (1 - 3) % 16

    def test_jmp_skips(self):
        sim = self.exec1([("JMP", 3), ("LDI", 7), "HALT", ("LDI", 2), "HALT"])
        assert sim.latches["acc"] == 2

    def test_jnz_taken_and_not_taken(self):
        sim = self.exec1([("LDI", 1), ("JNZ", 3), ("LDI", 9), "HALT", "HALT"])
        assert sim.latches["acc"] == 1
        sim = self.exec1([("LDI", 0), ("JNZ", 4), ("LDI", 9), "HALT", "HALT"])
        assert sim.latches["acc"] == 9

    def test_x_register_ops(self):
        sim = self.exec1([("LDI", 5), "TAX", "INX", "TXA", "HALT"])
        assert sim.latches["x"] == 6
        assert sim.latches["acc"] == 6

    def test_lax_sax_indexed(self):
        sim = self.exec1([("LDI", 2), "TAX", ("LDI", 9), "SAX", ("LDI", 0),
                          "LAX", "HALT"])
        assert sim.latches["acc"] == 9

    def test_halt_freezes_state(self):
        d = build_cpu([("LDI", 4), "HALT"], SMALL)
        sim = Simulator(d)
        for _ in range(10):
            sim.step({})
        assert sim.latches["acc"] == 4
        assert sim.latches["halted"] == 1
        assert sim.latches["pc"] == 1

    def test_default_rom_word_is_halt(self):
        # Falling off the end of the program halts (ROM default word).
        sim = self.exec1([("LDI", 3)], cycles=10)
        assert sim.latches["halted"] == 1
        assert sim.latches["acc"] == 3


class TestMemcpyProgram:
    def test_self_check_passes_on_simulator(self):
        rng = random.Random(1)
        for _ in range(5):
            image = {a: rng.randrange(16) for a in range(3)}
            d = build_cpu(memcpy_program(3, src=0, dst=4, params=SMALL), SMALL)
            sim = run_until_halt(d, 64, image)
            assert sim.latches["acc"] == 1
            for i in range(3):
                assert sim.memories["dmem"][4 + i] == image.get(i, 0)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            memcpy_program(4, src=0, dst=2)

    def test_halts_witness_found(self):
        d = build_cpu(memcpy_program(2, src=0, dst=4, params=SMALL), SMALL)
        r = verify(d, "halts", BmcOptions(find_proof=False, max_depth=14))
        assert r.status == "cex"
        assert r.trace_validated is True

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [1, 2])
    def test_self_check_proved_on_program_sized_rom(self, n):
        """memcpy of n words with the ROM sized to the 5n+4-word program:
        the self-check is proved for every initial data memory."""
        p = CpuParams(pc_width=max(4, (5 * n + 4).bit_length()),
                      addr_width=3, data_width=4)
        d = build_cpu(memcpy_program(n, src=0, dst=4, params=p), p)
        r = verify(d, "halted_acc_one", bmc3(max_depth=40, pba=False))
        assert r.proved, r.describe()

    @pytest.mark.slow
    def test_self_check_proved_for_arbitrary_memory(self):
        """The paper's Section 4.2 punchline on software: the self-check
        holds for EVERY initial memory image, proved by induction."""
        d = build_cpu(memcpy_program(2, src=0, dst=4, params=SMALL), SMALL)
        r = verify(d, "halted_acc_one", bmc3(max_depth=20, pba=False))
        assert r.proved, r.describe()
        assert r.method == "forward"

    @pytest.mark.slow
    def test_self_check_refuted_without_eq6(self):
        """Without equation (6) the proof must fail: two reads of the
        same unwritten address may disagree, so the self-check can
        'fail' in the over-approximate model."""
        d = build_cpu(memcpy_program(2, src=0, dst=4, params=SMALL), SMALL)
        r = verify(d, "halted_acc_one",
                   bmc3(max_depth=20, pba=False, init_consistency=False))
        assert not r.proved


class TestSumProgram:
    def test_expected_value_on_simulator(self):
        prog, data, expected = sum_program([3, 5, 6], out_addr=7, params=SMALL)
        d = build_cpu(prog, SMALL, dmem_init=0, dmem_words=data)
        sim = run_until_halt(d)
        assert sim.latches["acc"] == expected
        assert sim.memories["dmem"][7] == expected

    def test_bounded_check_of_result(self):
        prog, data, expected = sum_program([2, 9], out_addr=7, params=SMALL)
        d = build_cpu(prog, SMALL, dmem_init=0, dmem_words=data)
        d.invariant("sum_right", d.latches["halted"].expr.implies(
            d.latches["acc"].expr.eq(expected)))
        r = verify(d, "sum_right", BmcOptions(find_proof=False, max_depth=10))
        assert r.status == "bounded"

    def test_wrong_expectation_caught(self):
        prog, data, expected = sum_program([2, 9], out_addr=7, params=SMALL)
        d = build_cpu(prog, SMALL, dmem_init=0, dmem_words=data)
        d.invariant("sum_wrong", d.latches["halted"].expr.implies(
            d.latches["acc"].expr.eq((expected + 1) % 16)))
        r = verify(d, "sum_wrong", BmcOptions(find_proof=False, max_depth=10))
        assert r.status == "cex"
        assert r.trace_validated is True


class TestIndexedFill:
    def test_fill_on_simulator(self):
        d = build_cpu(indexed_fill_program(3, base=2, value=7), SMALL)
        sim = run_until_halt(d)
        assert all(sim.memories["dmem"][2 + i] == 7 for i in range(3))
        assert sim.latches["acc"] == 1

    def test_pc_in_bounds_bounded(self):
        d = build_cpu(indexed_fill_program(2, base=0, value=3), SMALL)
        r = verify(d, "pc_in_bounds", BmcOptions(find_proof=False,
                                                 max_depth=12))
        assert r.status == "bounded"


class TestCrossValidation:
    @pytest.mark.slow
    def test_cpu_emm_matches_explicit(self):
        """The CPU with both its memories agrees with full expansion."""
        d = build_cpu(memcpy_program(1, src=0, dst=2, params=SMALL), SMALL,
                      dmem_init=0)
        ex = expand_memories(d)
        r = check_equivalence(
            d, ex,
            [(d.latches["acc"].expr, ex.latches["acc"].expr),
             (d.latches["halted"].expr, ex.latches["halted"].expr)],
            max_depth=10)
        assert r.status == "bounded", r.describe()
