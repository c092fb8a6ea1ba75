#!/usr/bin/env python3
"""Industry Design I analog: witness generation over a property family.

Mirrors the paper's first industrial case study: a low-pass image filter
with two embedded memories and a family of reachability properties — most
have witnesses (the paper found 206/216, max depth 51), a few are
unreachable and proved by induction (the paper's remaining 10).

Every witness is replayed on the reference simulator, and one is dumped
as a VCD waveform next to this script.

Run:  python examples/image_filter_witnesses.py
"""

import pathlib
import time

from repro.bmc import bmc2, bmc3, verify
from repro.casestudies.image_filter import (ImageFilterParams,
                                            build_image_filter)
from repro.sim import write_vcd


def main() -> None:
    params = ImageFilterParams(addr_width=3, data_width=8)
    design = build_image_filter(params)
    print(f"design: {design.name}, line width {params.line_width}, "
          f"max filtered value {params.max_filtered}")

    witnesses = 0
    proofs = 0
    t0 = time.perf_counter()
    vcd_written = False
    for name, prop in sorted(design.properties.items()):
        if name.startswith("unreach"):
            result = verify(design, name, bmc3(max_depth=20, pba=False))
        else:
            result = verify(design, name, bmc2(max_depth=30))
        print(f"  {result.describe()}")
        if result.falsified:
            witnesses += 1
            assert result.trace_validated, "witness must replay on the simulator"
            if not vcd_written and name.startswith("reach_out"):
                out = pathlib.Path(__file__).with_name("image_filter_witness.vcd")
                with out.open("w") as fh:
                    write_vcd(fh, result.trace, {
                        ("inputs", "pix_in"): params.data_width,
                        ("latches", "pc"): 2,
                        ("latches", "k"): params.addr_width,
                        ("latches", "out_val"): params.data_width,
                        ("latches", "out_valid"): 1,
                    })
                print(f"    -> waveform written to {out.name}")
                vcd_written = True
        elif result.proved:
            proofs += 1

    total = len(design.properties)
    print(f"\n{witnesses}/{total} witnesses found, {proofs} unreachability "
          f"proofs (paper: 206/216 witnesses, 10 proofs), "
          f"{time.perf_counter() - t0:.1f}s total")
    assert witnesses + proofs == total, "every property is a witness or a proof"


if __name__ == "__main__":
    main()
