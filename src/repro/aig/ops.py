"""Word-level operators over AIG literal vectors.

A *word* is a list of AIG literals, least-significant bit first.  These
helpers are what the design unroller uses to lower word-level RTL
expressions (adders, comparators, muxes) onto the bit-level AIG.

Every helper routes through :meth:`repro.aig.aig.Aig.and_gate` (directly
or via the or/xor/mux wrappers), so the whole word layer inherits the
AIG's structural hashing: a recurring cone —
the ``eq_word`` comparators the gate-based EMM encoding builds per
(read, write-pair), the mux/ITE chains of ROM initial words, ripple
adders over shared operands — is constructed once and every repeat
returns the existing node.
"""

from __future__ import annotations

from typing import Sequence

from repro.aig.aig import Aig, FALSE, TRUE, lit_not

Word = list[int]


def const_word(value: int, width: int) -> Word:
    """Constant word (no AIG nodes needed)."""
    return [TRUE if (value >> i) & 1 else FALSE for i in range(width)]


def input_word(aig: Aig, name: str, width: int) -> Word:
    """A fresh primary-input word, bit names ``name[i]``."""
    return [aig.new_input(f"{name}[{i}]") for i in range(width)]


def not_word(word: Sequence[int]) -> Word:
    return [lit_not(b) for b in word]


def and_word(aig: Aig, a: Sequence[int], b: Sequence[int]) -> Word:
    _check(a, b)
    return [aig.and_gate(x, y) for x, y in zip(a, b)]


def or_word(aig: Aig, a: Sequence[int], b: Sequence[int]) -> Word:
    _check(a, b)
    return [aig.or_(x, y) for x, y in zip(a, b)]


def xor_word(aig: Aig, a: Sequence[int], b: Sequence[int]) -> Word:
    _check(a, b)
    return [aig.xor_(x, y) for x, y in zip(a, b)]


def mux_word(aig: Aig, sel: int, t: Sequence[int], e: Sequence[int]) -> Word:
    """Per-bit ``sel ? t : e``."""
    _check(t, e)
    return [aig.mux(sel, x, y) for x, y in zip(t, e)]


#: ITE spelling of :func:`mux_word` (the word-level if-then-else).
ite_word = mux_word


# -- EMM forwarding-chain builder (the pure-gate encoding) ----------------
#
# The pure-gate EMM encoding (:class:`repro.emm.gates.GateEmmMemory`)
# lowers the paper's equation-(4)/(5) forwarding semantics onto the AIG
# through this construction; the hybrid encoding
# (:class:`repro.emm.forwarding.EmmMemory`) emits the same semantics as
# direct CNF instead.


def priority_mux_chain(aig: Aig, stages: Sequence[tuple[int, Sequence[int]]],
                       seed: Sequence[int]) -> tuple[Word, int]:
    """Oldest-write-first forwarding chain: ``value' = mux(S, WD, value)``.

    ``stages`` are ``(S, WD)`` pairs ordered **oldest write first**; a
    stage muxed in later overrides every earlier one, so the newest
    matching write wins — equation (4)'s priority with the chain
    inverted.  ``seed`` is the initial-memory-contents word the chain
    falls through to.  Because stage j's cone depends only on stages
    0..j and the (stable) seed, a recurring read-address cone makes
    frame k's entire chain a strash **prefix** of frame k+1's.

    Returns ``(value_word, suffix_hits)``; ``suffix_hits`` counts stages
    answered entirely by the strash table — a previous frame's chain (or
    a sibling read port's, within the frame) growing by reuse rather
    than rebuild.  The strash-hit requirement keeps purely
    constant-folded stages (e.g. an ``S`` that folded TRUE) out of the
    reuse diagnostic.
    """
    value = list(seed)
    suffix_hits = 0
    for s, word in stages:
        ands_before = aig.num_ands
        hits_before = aig.strash_hits
        for b, bit in enumerate(word):
            value[b] = aig.mux(s, bit, value[b])
        if aig.num_ands == ands_before and aig.strash_hits > hits_before:
            suffix_hits += 1
    return value, suffix_hits


def eq_word(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    """Single literal: words are equal."""
    _check(a, b)
    return aig.and_many(aig.iff_(x, y) for x, y in zip(a, b))


def add_word(aig: Aig, a: Sequence[int], b: Sequence[int],
             carry_in: int = FALSE) -> Word:
    """Ripple-carry sum truncated to the operand width."""
    _check(a, b)
    out: Word = []
    carry = carry_in
    for x, y in zip(a, b):
        half = aig.xor_(x, y)
        s = aig.xor_(half, carry)
        carry = aig.or_(aig.and_gate(x, y), aig.and_gate(carry, half))
        out.append(s)
    return out


def sub_word(aig: Aig, a: Sequence[int], b: Sequence[int]) -> Word:
    """Two's-complement subtraction ``a - b`` (width-truncated)."""
    return add_word(aig, a, not_word(b), carry_in=TRUE)


def inc_word(aig: Aig, a: Sequence[int]) -> Word:
    return add_word(aig, a, const_word(1, len(a)))


def dec_word(aig: Aig, a: Sequence[int]) -> Word:
    return sub_word(aig, a, const_word(1, len(a)))


def lt_unsigned(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    """Single literal: ``a < b`` as unsigned integers."""
    _check(a, b)
    lt = FALSE
    for x, y in zip(a, b):  # LSB to MSB; MSB decision dominates
        bit_lt = aig.and_gate(lit_not(x), y)
        bit_eq = aig.iff_(x, y)
        lt = aig.or_(bit_lt, aig.and_gate(bit_eq, lt))
    return lt


def le_unsigned(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    return lit_not(lt_unsigned(aig, b, a))


def gt_unsigned(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    return lt_unsigned(aig, b, a)


def ge_unsigned(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    return lit_not(lt_unsigned(aig, a, b))


def is_zero(aig: Aig, a: Sequence[int]) -> int:
    return aig.and_many(lit_not(b) for b in a)


def resize_word(a: Sequence[int], width: int) -> Word:
    """Zero-extend or truncate to ``width`` bits."""
    out = list(a[:width])
    out.extend([FALSE] * (width - len(out)))
    return out


def concat_words(low: Sequence[int], high: Sequence[int]) -> Word:
    """Concatenate: ``low`` occupies the low bits."""
    return list(low) + list(high)


def _check(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
