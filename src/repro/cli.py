"""Command-line interface: run any case study with any engine.

Examples::

    repro-emm list
    repro-emm verify quicksort --property P2 --engine bmc3 --max-depth 45
    repro-emm verify quicksort --property P2 --engine explicit --n 3
    repro-emm verify fifo --property data_integrity --max-depth 12
    repro-emm verify cpu --property halts --no-proof --shrink --show-trace
    repro-emm pba quicksort --property P2 --stability-depth 5 --minimize memory
    repro-emm info image_filter
    repro-emm export quicksort --output qs.v
    repro-emm parse qs.v --verify --max-depth 10
    repro-emm roundtrip fifo --max-depth 10
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from repro.bmc.engine import BmcOptions, verify, verify_many
from repro.bmc.shrink import shrink_trace
from repro.casestudies import (CpuParams, FifoParams, ImageFilterParams,
                               MultiportSocParams, QuicksortParams,
                               StackMachineParams, build_cpu, build_fifo,
                               build_image_filter, build_multiport_soc,
                               build_quicksort, build_stack_machine,
                               memcpy_program)
from repro.design.equiv import check_equivalence
from repro.design.explicit import expand_memories
from repro.design.netlist import Design
from repro.design.verilog import write_verilog
from repro.design.verilog_parser import VerilogError, parse_verilog
from repro.pba.abstraction import verify_with_pba


def _quicksort(args) -> Design:
    return build_quicksort(QuicksortParams(
        n=args.n, addr_width=args.addr_width, data_width=args.data_width,
        stack_addr_width=max(args.addr_width, (args.n * 2).bit_length())))


def _image_filter(args) -> Design:
    return build_image_filter(ImageFilterParams(
        addr_width=args.addr_width, data_width=args.data_width))


def _multiport(args) -> Design:
    return build_multiport_soc(MultiportSocParams(
        addr_width=args.addr_width, data_width=args.data_width))


def _fifo(args) -> Design:
    return build_fifo(FifoParams(addr_width=args.addr_width,
                                 data_width=args.data_width))


def _stack(args) -> Design:
    return build_stack_machine(StackMachineParams(
        addr_width=args.addr_width, data_width=args.data_width))


def _cpu(args) -> Design:
    params = CpuParams(pc_width=5, addr_width=args.addr_width,
                       data_width=args.data_width)
    program = memcpy_program(min(args.n, 2), src=0,
                             dst=1 << (args.addr_width - 1), params=params)
    return build_cpu(program, params)


CASE_STUDIES: dict[str, Callable] = {
    "quicksort": _quicksort,
    "image_filter": _image_filter,
    "multiport_soc": _multiport,
    "fifo": _fifo,
    "stack_machine": _stack,
    "cpu": _cpu,
}


def _add_design_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("design", choices=sorted(CASE_STUDIES))
    p.add_argument("--n", type=int, default=3, help="quicksort array size")
    p.add_argument("--addr-width", type=int, default=None)
    p.add_argument("--data-width", type=int, default=None)


_DEFAULT_WIDTHS = {
    "quicksort": (3, 4),
    "image_filter": (4, 8),
    "multiport_soc": (5, 8),
    "fifo": (3, 8),
    "stack_machine": (3, 8),
    "cpu": (3, 4),
}


def _build(args) -> Design:
    defaults = _DEFAULT_WIDTHS[args.design]
    if args.addr_width is None:
        args.addr_width = defaults[0]
    if args.data_width is None:
        args.data_width = defaults[1]
    return CASE_STUDIES[args.design](args)


def cmd_list(_args) -> int:
    for name in sorted(CASE_STUDIES):
        print(name)
    return 0


def cmd_info(args) -> int:
    design = _build(args)
    stats = design.stats()
    print(f"design: {design.name}")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    for mem in design.memories.values():
        print(f"  memory {mem.name}: AW={mem.addr_width} DW={mem.data_width} "
              f"R={mem.num_read_ports} W={mem.num_write_ports} "
              f"init={'arbitrary' if mem.init is None else mem.init}")
    for prop in design.properties.values():
        print(f"  property {prop.name} ({prop.kind})")
    return 0


def _verify_design(args) -> Design:
    """The design ``verify`` actually runs on (module-level: picklable
    as a service design factory via ``functools.partial``)."""
    design = _build(args)
    if args.engine == "explicit":
        design = expand_memories(design)
    return design


def _verify_options(args) -> BmcOptions:
    quotas = dict(mem_quota_mb=args.mem_quota_mb,
                  clause_var_quota=args.clause_quota,
                  wall_quota_s=args.wall_quota)
    if args.engine == "explicit":
        return BmcOptions(use_emm=False, find_proof=not args.no_proof,
                          max_depth=args.max_depth,
                          timeout_s=args.timeout,
                          profile=args.profile, **quotas)
    return BmcOptions(use_emm=True,
                      find_proof=(args.engine != "bmc2") and not args.no_proof,
                      max_depth=args.max_depth,
                      exclusivity=not args.no_exclusivity,
                      init_consistency=not args.no_init_consistency,
                      timeout_s=args.timeout,
                      profile=args.profile, **quotas)


def _print_profile(profile: dict) -> None:
    """Render a run's wall-clock phase breakdown (``--profile``)."""
    for phase, rec in sorted(profile.get("phases", {}).items(),
                             key=lambda kv: -kv[1]["s"]):
        print(f"  profile {phase:<18s} {rec['s']:8.3f}s (n={rec['n']})")
    for phase, secs in sorted(profile.get("solver", {}).items(),
                              key=lambda kv: -kv[1]):
        print(f"  profile solver.{phase:<11s} {secs:8.3f}s")
    print(f"  profile {'solver.kernel':<18s} {profile['kernel']}")


def cmd_verify(args) -> int:
    design = _verify_design(args)
    options = _verify_options(args)
    props = [args.property] if args.property else sorted(design.properties)
    records = None
    if args.jobs > 1 and len(props) > 1:
        from repro.service import RetryPolicy, VerificationService

        factory = functools.partial(_verify_design, args)
        with VerificationService(
                factory, options, jobs=args.jobs,
                retry=RetryPolicy(max_retries=args.retries),
                job_timeout_s=args.job_timeout) as svc:
            results, records = svc.collect(props)
    else:
        # Sequential: one shared encoding session for every property.
        results = verify_many(design, props, options)
    status = 0
    json_out = []
    for name in props:
        result = results[name]
        if args.json:
            entry = result.to_dict()
            if records is not None:
                # Service mode: per-job lifecycle — attempts consumed,
                # failure attribution, and (for degraded jobs) how deep
                # the check got before its budget ran out.
                entry["jobs"] = [
                    {"window": list(sr.window) if sr.window else None,
                     "status": sr.status,
                     "attempts": sr.attempts,
                     "failure": sr.failure,
                     "depth": None if sr.result is None else sr.result.depth}
                    for sr in records if sr.property_name == name]
            json_out.append(entry)
        else:
            print(result.describe())
            if args.profile and result.stats.profile:
                _print_profile(result.stats.profile)
        trace = result.trace
        if trace is not None and args.shrink and result.trace_validated:
            shrunk = shrink_trace(design, name, trace)
            if not args.json:
                print(f"shrunk: {shrunk.applied}/{shrunk.attempted} "
                      f"simplifications held, failure at cycle "
                      f"{shrunk.failure_cycle}")
            trace = shrunk.trace
        if args.show_trace and trace is not None and not args.json:
            print(trace.format_table())
        if result.status not in ("proof", "cex"):
            status = 1
    if args.json:
        print(json.dumps(json_out, indent=2))
    return status


def cmd_pba(args) -> int:
    design = _build(args)
    outcome = verify_with_pba(design, args.property,
                              stability_depth=args.stability_depth,
                              abstraction_max_depth=args.max_depth,
                              proof_max_depth=args.max_depth * 2,
                              minimize=args.minimize)
    phase = outcome.phase
    print(f"stable: {phase.stable} at depth {phase.stable_depth}")
    print(f"latch reasons ({len(phase.latch_reasons)}): "
          f"{sorted(phase.latch_reasons)}")
    print(f"kept latch bits: {phase.kept_latch_bits} / {phase.orig_latch_bits}")
    print(f"kept memories: {sorted(phase.kept_memories)}")
    print(f"abstracted memories: {sorted(phase.abstracted_memories)}")
    if outcome.minimization is not None:
        m = outcome.minimization
        print(f"minimization: dropped memories {sorted(m.dropped_memories)}, "
              f"dropped latches {sorted(m.dropped_latches)} "
              f"({m.checks} bounded checks)")
    if outcome.proof_result is not None:
        print(outcome.proof_result.describe())
    print(f"overall: {outcome.status}")
    return 0 if outcome.status in ("proof", "cex") else 1


def cmd_export(args) -> int:
    design = _build(args)
    if args.output == "-":
        write_verilog(sys.stdout, design)
    else:
        with open(args.output, "w") as out:
            write_verilog(out, design)
        print(f"wrote {design.name!r} to {args.output}")
    return 0


def cmd_parse(args) -> int:
    with open(args.file) as f:
        text = f.read()
    try:
        design = parse_verilog(text)
    except VerilogError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(f"parsed module {design.name!r}: "
          f"{len(design.inputs)} inputs, {len(design.latches)} latches, "
          f"{len(design.memories)} memories, "
          f"{len(design.properties)} properties")
    if not args.verify:
        return 0
    status = 0
    options = BmcOptions(find_proof=not args.no_proof,
                         max_depth=args.max_depth)
    for name in sorted(design.properties):
        result = verify(design, name, options)
        print(result.describe())
        if result.status not in ("proof", "cex"):
            status = 1
    return status


def cmd_roundtrip(args) -> int:
    """Export a case study to Verilog, re-parse, check equivalence."""
    import io

    design = _build(args)
    buf = io.StringIO()
    write_verilog(buf, design)
    parsed = parse_verilog(buf.getvalue())
    outputs = [(latch.expr, parsed.latches[name].expr)
               for name, latch in design.latches.items()]
    result = check_equivalence(design, parsed, outputs,
                               max_depth=args.max_depth,
                               share_arbitrary_init=True)
    print(f"roundtrip equivalence of {design.name!r} over "
          f"{len(outputs)} latch words: {result.status} "
          f"(depth {result.depth})")
    return 0 if result.status == "bounded" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-emm",
        description="EMM for SAT-based BMC (DATE'05 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list case-study designs")

    p_info = sub.add_parser("info", help="show a design's statistics")
    _add_design_args(p_info)

    p_verify = sub.add_parser("verify", help="verify properties with BMC")
    _add_design_args(p_verify)
    p_verify.add_argument("--property", default=None,
                          help="property name (default: all)")
    p_verify.add_argument("--engine", default="bmc3",
                          choices=["bmc2", "bmc3", "explicit"])
    p_verify.add_argument("--max-depth", type=int, default=40)
    p_verify.add_argument("--timeout", type=float, default=None)
    p_verify.add_argument("--no-proof", action="store_true",
                          help="skip induction termination checks")
    p_verify.add_argument("--no-exclusivity", action="store_true",
                          help="ablation: naive forwarding encoding")
    p_verify.add_argument("--no-init-consistency", action="store_true",
                          help="ablation: drop equation (6) constraints")
    p_verify.add_argument("--show-trace", action="store_true")
    p_verify.add_argument("--shrink", action="store_true",
                          help="minimize counterexample traces")
    p_verify.add_argument("--profile", action="store_true",
                          help="measure wall-clock phases (encode vs "
                               "solve, and the solver's propagate/"
                               "analyze/decide/reduce/simplify split)")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes for multi-property "
                               "verification (1 = in-process on one "
                               "shared encoding session)")
    p_verify.add_argument("--retries", type=int, default=2,
                          help="retry budget per job for crashed/hung/"
                               "errored workers (--jobs > 1)")
    p_verify.add_argument("--job-timeout", type=float, default=None,
                          help="per-job hang deadline in seconds: a "
                               "worker running longer is killed and the "
                               "job retried (--jobs > 1)")
    p_verify.add_argument("--mem-quota-mb", type=float, default=None,
                          help="per-job RSS quota: over budget, the run "
                               "degrades to the deepest fully-checked "
                               "depth instead of dying")
    p_verify.add_argument("--clause-quota", type=int, default=None,
                          help="per-job encoding watermark (solver "
                               "clauses + variables); degrades like "
                               "--mem-quota-mb")
    p_verify.add_argument("--wall-quota", type=float, default=None,
                          help="per-job wall budget in seconds; unlike "
                               "--timeout the result is a sound partial "
                               "answer at depth granularity (degraded, "
                               "not timeout)")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable results (one JSON array)")

    p_pba = sub.add_parser("pba", help="run the EMM+PBA flow")
    _add_design_args(p_pba)
    p_pba.add_argument("--property", required=True)
    p_pba.add_argument("--stability-depth", type=int, default=10)
    p_pba.add_argument("--max-depth", type=int, default=40)
    p_pba.add_argument("--minimize", default="off",
                       choices=["off", "memory", "latch", "both"],
                       help="deletion-based reason minimization")

    p_export = sub.add_parser("export", help="write a design as Verilog")
    _add_design_args(p_export)
    p_export.add_argument("--output", "-o", default="-",
                          help="output file (default: stdout)")

    p_parse = sub.add_parser("parse", help="parse a Verilog file")
    p_parse.add_argument("file")
    p_parse.add_argument("--verify", action="store_true",
                         help="verify the parsed properties")
    p_parse.add_argument("--max-depth", type=int, default=20)
    p_parse.add_argument("--no-proof", action="store_true")

    p_round = sub.add_parser(
        "roundtrip", help="export->parse->equivalence-check a case study")
    _add_design_args(p_round)
    p_round.add_argument("--max-depth", type=int, default=10)

    args = parser.parse_args(argv)
    handlers = {"list": cmd_list, "info": cmd_info,
                "verify": cmd_verify, "pba": cmd_pba,
                "export": cmd_export, "parse": cmd_parse,
                "roundtrip": cmd_roundtrip}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
