"""repro — Efficient Memory Modeling for SAT-based BMC.

A complete reproduction of *"Verification of Embedded Memory Systems
using Efficient Memory Modeling"* (Ganai, Gupta, Ashar — DATE 2005):
a word-level design IR with embedded multi-port memories, a CDCL SAT
solver with resolution-proof logging, a BMC engine with induction proofs
(BMC-1/2/3), EMM constraint generation for multi-port multi-memory
systems with precise arbitrary-initial-state modeling, proof-based
abstraction, the explicit-memory baseline, and the paper's case studies.

Quick taste::

    from repro.design import Design
    from repro.bmc import verify, bmc3

    d = Design("demo")
    cnt = d.latch("cnt", 4, init=0)
    cnt.next = cnt.expr + 1
    mem = d.memory("m", addr_width=4, data_width=8, init=0)
    mem.write(0).connect(addr=cnt.expr, data=d.input("x", 8), en=1)
    rd = mem.read(0).connect(addr=d.input("a", 4), en=1)
    d.invariant("p", rd.ule(255))
    print(verify(d, "p", bmc3(max_depth=10)).describe())
"""

__version__ = "1.0.0"

__all__ = ["Design", "expand_memories", "BmcOptions", "BmcResult",
           "bmc1", "bmc2", "bmc3", "verify", "__version__"]


def __getattr__(name: str):
    # The re-exports load on first access, so ``import repro.cli`` (and
    # any other submodule) does not pull in the BMC stack.
    if name in ("Design", "expand_memories"):
        import repro.design

        return getattr(repro.design, name)
    if name in __all__:
        import repro.bmc

        return getattr(repro.bmc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
