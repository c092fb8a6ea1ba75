#!/usr/bin/env python3
"""Industry Design II analog: the invariant-aided abstraction flow.

Reproduces the paper's second industrial case study step by step:

1. naively abstracting the multiport memory produces *spurious*
   witnesses (the paper saw them at depth 7);
2. with EMM, no witness exists within the bound;
3. the memory-interface invariant ``G(WE=0 or WD=0)`` is proved by
   backward induction at depth <= 2;
4. the invariant implies all reads return 0, so the memory is replaced
   by that constant and every alarm property is proved unreachable by
   induction on the reduced, memory-free model.

Run:  python examples/invariant_discovery.py
"""

import time

from repro.bmc import BmcOptions, bmc2, bmc3, verify
from repro.casestudies.multiport_soc import (MultiportSocParams,
                                             build_multiport_soc)
from repro.props import free_memory_reads, prove_with_memory_invariant


def main() -> None:
    params = MultiportSocParams(addr_width=4, data_width=8,
                                counter_width=4, num_properties=8)
    design = build_multiport_soc(params)
    mem = design.memories["table"]
    print(f"design: {design.name}, memory AW={mem.addr_width} "
          f"DW={mem.data_width} {mem.num_read_ports}R/{mem.num_write_ports}W")
    alarms = sorted(n for n in design.properties if n.startswith("alarm_"))

    print("\nstep 1 — naive abstraction (read data floats):")
    freed = free_memory_reads(design, "table")
    r = verify(freed, alarms[0], BmcOptions(find_proof=False, max_depth=10))
    print(f"  {r.describe()}   <- SPURIOUS (the paper saw these at depth 7)")
    assert r.falsified

    print("\nstep 2 — EMM keeps the memory semantics:")
    r = verify(design, alarms[0], bmc2(max_depth=12))
    print(f"  {r.describe()}   <- no witness, but also no proof")
    assert r.status == "bounded"

    print("\nstep 3 — prove the interface invariant G(WE=0 or WD=0):")
    t0 = time.perf_counter()
    r = verify(design, "we_or_wd_zero", bmc3(max_depth=10, pba=False))
    print(f"  {r.describe()}  [{time.perf_counter() - t0:.2f}s]")
    assert r.proved and r.method == "backward" and r.depth <= 2

    print("\nstep 4 — replace the memory by rd=0 and prove every alarm:")
    t0 = time.perf_counter()
    flow = prove_with_memory_invariant(
        design, "table", invariant_name="we_or_wd_zero",
        property_names=alarms,
        invariant_options=BmcOptions(max_depth=10),
        property_options=BmcOptions(max_depth=15))
    for name in alarms:
        print(f"  {flow.property_results[name].describe()}")
    verdict = "ALL PROVED" if flow.all_proved else "INCOMPLETE"
    print(f"\n{verdict} in {time.perf_counter() - t0:.2f}s "
          f"(paper: each property < 1s on the reduced model)")
    assert flow.all_proved


if __name__ == "__main__":
    main()
