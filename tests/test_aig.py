"""Tests for the AIG: folding, structural hashing, word ops, evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import Aig, FALSE, TRUE, evaluate
from repro.aig import ops
from repro.aig.aig import lit_not
from repro.aig.eval import evaluate_word


class TestFolding:
    def test_constants(self):
        g = Aig()
        a = g.new_input("a")
        assert g.and_(a, FALSE) == FALSE
        assert g.and_(FALSE, a) == FALSE
        assert g.and_(a, TRUE) == a
        assert g.and_(TRUE, a) == a
        assert g.and_(a, a) == a
        assert g.and_(a, lit_not(a)) == FALSE

    def test_structural_hashing(self):
        g = Aig()
        a, b = g.new_input(), g.new_input()
        assert g.and_(a, b) == g.and_(b, a)
        assert g.num_ands == 1
        g.and_(a, b)
        assert g.num_ands == 1

    def test_or_demorgan(self):
        g = Aig()
        a, b = g.new_input(), g.new_input()
        assert g.or_(a, b) == lit_not(g.and_(lit_not(a), lit_not(b)))

    def test_mux_folding(self):
        g = Aig()
        a, b = g.new_input(), g.new_input()
        assert g.mux(TRUE, a, b) == a
        assert g.mux(FALSE, a, b) == b
        assert g.mux(a, b, b) == b

    def test_node_kinds(self):
        g = Aig()
        a, b = g.new_input("x"), g.new_input()
        n = g.and_(a, b)
        assert g.is_input(a) and not g.is_input(n)
        assert not g.is_input(FALSE) and not g.is_input(TRUE)
        assert set(g.fanins(n)) == {a, b}
        with pytest.raises(ValueError):
            g.fanins(a)
        assert g.input_name(a) == "x"

    def test_cone_size(self):
        g = Aig()
        a, b, c = (g.new_input() for _ in range(3))
        n1 = g.and_(a, b)
        n2 = g.and_(n1, c)
        assert g.cone_size([n2]) == 2
        assert g.cone_size([n1]) == 1
        assert g.cone_size([a]) == 0


class TestEvaluate:
    def test_and_or_xor(self):
        g = Aig()
        a, b = g.new_input(), g.new_input()
        outs = [g.and_(a, b), g.or_(a, b), g.xor_(a, b), g.iff_(a, b)]
        for va in (False, True):
            for vb in (False, True):
                r = evaluate(g, {a: va, b: vb}, outs)
                assert r == [va and vb, va or vb, va != vb, va == vb]

    def test_unlisted_inputs_default_false(self):
        g = Aig()
        a, b = g.new_input(), g.new_input()
        n = g.or_(a, b)
        assert evaluate(g, {a: True}, [n]) == [True]
        assert evaluate(g, {}, [n]) == [False]

    def test_constant_outputs(self):
        g = Aig()
        assert evaluate(g, {}, [TRUE, FALSE]) == [True, False]


word_pairs = st.tuples(st.integers(0, 255), st.integers(0, 255))


class TestWordOps:
    def _inputs(self, g, width=8):
        a = ops.input_word(g, "a", width)
        b = ops.input_word(g, "b", width)
        return a, b

    def _env(self, a, b, va, vb):
        env = {}
        for i, bit in enumerate(a):
            env[bit] = bool((va >> i) & 1)
        for i, bit in enumerate(b):
            env[bit] = bool((vb >> i) & 1)
        return env

    @settings(max_examples=60, deadline=None)
    @given(word_pairs)
    def test_add_sub(self, pair):
        va, vb = pair
        g = Aig()
        a, b = self._inputs(g)
        env = self._env(a, b, va, vb)
        assert evaluate_word(g, env, ops.add_word(g, a, b)) == (va + vb) & 0xFF
        assert evaluate_word(g, env, ops.sub_word(g, a, b)) == (va - vb) & 0xFF

    @settings(max_examples=60, deadline=None)
    @given(word_pairs)
    def test_compare(self, pair):
        va, vb = pair
        g = Aig()
        a, b = self._inputs(g)
        env = self._env(a, b, va, vb)
        assert evaluate(g, env, [ops.eq_word(g, a, b)]) == [va == vb]
        assert evaluate(g, env, [ops.lt_unsigned(g, a, b)]) == [va < vb]
        assert evaluate(g, env, [ops.lt_unsigned(g, b, a)]) == [vb < va]

    @settings(max_examples=40, deadline=None)
    @given(word_pairs)
    def test_bitwise(self, pair):
        va, vb = pair
        g = Aig()
        a, b = self._inputs(g)
        env = self._env(a, b, va, vb)
        assert evaluate_word(g, env, ops.and_word(g, a, b)) == va & vb
        assert evaluate_word(g, env, ops.or_word(g, a, b)) == va | vb
        assert evaluate_word(g, env, ops.xor_word(g, a, b)) == va ^ vb
        assert evaluate_word(g, env, ops.not_word(a)) == (~va) & 0xFF

    @settings(max_examples=40, deadline=None)
    @given(word_pairs, st.booleans())
    def test_mux(self, pair, sel):
        va, vb = pair
        g = Aig()
        a, b = self._inputs(g)
        s = g.new_input("s")
        env = self._env(a, b, va, vb)
        env[s] = sel
        out = ops.mux_word(g, s, a, b)
        assert evaluate_word(g, env, out) == (va if sel else vb)

    def test_const_word(self):
        g = Aig()
        assert evaluate_word(g, {}, ops.const_word(0xA5, 8)) == 0xA5

    def test_inc_dec(self):
        """Adding and subtracting one wrap around the word width."""
        g = Aig()
        a = ops.input_word(g, "a", 4)
        one = ops.const_word(1, 4)
        for va, inc, dec in ((13, 14, 12), (15, 0, 14), (0, 1, 15)):
            env = {bit: bool((va >> i) & 1) for i, bit in enumerate(a)}
            assert evaluate_word(g, env, ops.add_word(g, a, one)) == inc
            assert evaluate_word(g, env, ops.sub_word(g, a, one)) == dec

    def test_resize_and_concat(self):
        g = Aig()
        a = ops.input_word(g, "a", 4)
        env = {bit: bool((0b1010 >> i) & 1) for i, bit in enumerate(a)}
        assert evaluate_word(g, env, ops.resize_word(a, 8)) == 0b1010
        assert evaluate_word(g, env, ops.resize_word(a, 2)) == 0b10
        cc = ops.concat_words(a, ops.const_word(0b11, 2))
        assert evaluate_word(g, env, cc) == 0b111010

    def test_width_mismatch_raises(self):
        g = Aig()
        a = ops.input_word(g, "a", 4)
        b = ops.input_word(g, "b", 5)
        with pytest.raises(ValueError):
            ops.add_word(g, a, b)
