"""Mass differential-fuzzing farm over the whole verification stack.

One round of the farm draws a random netlist, a *batch* of random
stimulus vectors, and cross-checks every concrete and symbolic
interpretation the repo has against each other:

* **vector vs scalar simulation** — a sample of batch lanes is replayed
  on the scalar reference interpreter and compared bit for bit;
* **vector vs explicit expansion** — property verdicts of sampled lanes
  are cross-checked against the ``expand_memories`` oracle;
* **BMC encodings vs the explicit model** — both EMM encodings
  (:data:`ENCODINGS`) are run through the existing
  :class:`repro.service.VerificationService` and must reproduce the
  explicit-model verdict/depth with a validated trace;
* **simulation witnesses lower-bound BMC** — any random lane that hits
  a property at cycle *c* forces the symbolic engines to report a
  counterexample at depth ≤ *c* (BMC finds the *earliest* violation).

Any divergence is captured as a :class:`Divergence` with an
auto-shrunk reproducer (stimulus minimized while the two sides still
disagree) and can be persisted to JSON for the CI artifact upload and
replayed later with ``python -m repro.sim.fuzzfarm --replay FILE`` (a
BMC reproducer replays at the depth it was found at).

The farm is seed-budgeted: give it a number of rounds, a trial target,
and/or a wall-clock budget; every round is deterministic in
``config.seed`` so CI failures reproduce locally.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from repro.bmc import BmcOptions
from repro.design import Design, expand_memories
from repro.service import RetryPolicy, VerificationService
from repro.sim.oracle import (ExplicitOracle, Oracle, SimulatorOracle,
                              Stimulus, default_oracle)
from repro.sim.trace import Trace
from repro.sim.vector import have_numpy

#: The EMM encodings the farm checks, each at its default options.
#: Mirrors the differential matrix in
#: ``tests/test_differential_matrix.py``.
ENCODINGS = ("hybrid", "gates")


# -- random workloads (module level so service workers can pickle them) ----


def build_fuzz_netlist(seed: int) -> Design:
    """Random single-memory workload with recurring address cones.

    Shapes chosen so every optimisation path fires somewhere across the
    seeds: multi-read/write ports (disjoint write parities, keeping the
    no-race assumption), known and arbitrary initial memory, an
    arbitrary-init noise latch, and addresses drawn from constants, a
    shared input and a walking latch.  Properties cover both kinds: a
    reach target on the raw read data, a reach target through a
    history-accumulating latch, and a latch-range invariant.
    """
    rng = random.Random(seed)
    aw = rng.choice([2, 3])
    dw = rng.choice([2, 3, 4])
    w_ports = rng.choice([1, 2])
    r_ports = rng.choice([2, 3])
    init = rng.choice([0, None, 3])
    d = Design(f"fuzz{seed}")
    t = d.latch("t", aw, init=0)
    t.next = t.expr + 1
    noise = d.latch("noise", dw, init=None)
    noise.next = noise.expr
    init_words = {rng.randrange(1 << aw): rng.randrange(1 << dw)} \
        if rng.random() < 0.5 else None
    mem = d.memory("m", aw, dw, read_ports=r_ports, write_ports=w_ports,
                   init=init, init_words=init_words)
    shared = d.input("sa", aw)
    addr_pool = [lambda: d.const(rng.randrange(1 << aw), aw),
                 lambda: shared,
                 lambda: t.expr]
    for w in range(w_ports):
        en = d.input(f"we{w}", 1)
        if w_ports > 1:
            addr = d.input(f"wa{w}", aw)
            en = en & addr[0].eq(w & 1)
        else:
            addr = rng.choice(addr_pool)()
        mem.write(w).connect(addr=addr, data=d.input(f"wd{w}", dw), en=en)
    for r in range(r_ports):
        mem.read(r).connect(addr=rng.choice(addr_pool)(), en=1)
    target = rng.randrange(1 << dw)
    d.reach("hit", mem.read(0).data.eq(target))
    seen = d.latch("seen", 1, init=0)
    seen.next = seen.expr | mem.read(r_ports - 1).data.eq(
        rng.randrange(1 << dw))
    d.reach("seen_hit", seen.expr.eq(1))
    d.invariant("t_in_range",
                t.expr.ult((1 << aw) - 1) | t.expr.eq((1 << aw) - 1))
    return d


def _build_explicit(seed: int) -> Design:
    return expand_memories(build_fuzz_netlist(seed))


def random_stimulus(design: Design, rng: random.Random,
                    cycles: int) -> Stimulus:
    """Random inputs plus random arbitrary-init latch/memory contents."""
    inputs = [{name: rng.randrange(1 << inp.width)
               for name, inp in design.inputs.items()}
              for _ in range(cycles)]
    init_latches = {name: rng.randrange(1 << latch.width)
                    for name, latch in design.latches.items()
                    if latch.init is None}
    init_memories = {}
    for name, mem in design.memories.items():
        if mem.init is not None:
            continue
        words = {rng.randrange(mem.num_words): rng.randrange(
            1 << mem.data_width) for _ in range(rng.randrange(4))}
        init_memories[name] = {a: v for a, v in words.items()
                               if a not in mem.init_words}
    return Stimulus(inputs=inputs, init_latches=init_latches,
                    init_memories=init_memories)


# -- configuration / report -------------------------------------------------


@dataclass
class FarmConfig:
    """Knobs of one farm run.

    Termination: ``rounds`` wins when set; else the farm loops until
    ``min_trials`` is reached, never exceeding ``budget_s`` wall-clock
    seconds (when set) once the trial floor is met; with nothing set it
    runs a single round.
    """

    #: Stimulus vectors per netlist — the vector simulator's lane count.
    batch: int = 256
    #: Cycles per stimulus vector.
    depth: int = 5
    #: Master seed; every round derives its netlist seed from it.
    seed: int = 0
    rounds: Optional[int] = None
    min_trials: int = 0
    budget_s: Optional[float] = None
    #: Lanes replayed on the scalar interpreter per batch (bit-exactness
    #: sample) and lanes cross-checked against the explicit expansion.
    scalar_lanes: int = 4
    explicit_lanes: int = 2
    #: Symbolic side of the differential: one cell per EMM encoding
    #: through the VerificationService, against the explicit model.
    run_bmc: bool = True
    encodings: tuple = ENCODINGS
    bmc_depth: int = 4
    #: Worker processes for the service runs (1 = inline).
    jobs: int = 1
    #: Retry budget per service job: a crashed/hung/errored worker is
    #: retried instead of killing the farm round (nightly robustness).
    retries: int = 2
    #: Per-job hang deadline for pooled service runs (None: no watchdog).
    job_timeout_s: Optional[float] = None
    #: Minimize reproducer stimuli before reporting.
    shrink: bool = True
    #: Directory for divergence reproducer JSON files.
    out_dir: Optional[str] = None


@dataclass
class Divergence:
    """One observed disagreement plus everything needed to replay it."""

    kind: str
    seed: int
    detail: str
    prop: Optional[str] = None
    encoding: Optional[str] = None
    #: BMC bound the divergence was found at (BMC kinds only).
    bmc_depth: Optional[int] = None
    stimulus: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "detail": self.detail,
                "prop": self.prop, "encoding": self.encoding,
                "bmc_depth": self.bmc_depth, "stimulus": self.stimulus}


@dataclass
class FarmReport:
    """Aggregated counters of a farm run."""

    rounds: int = 0
    #: Total netlist×option×stimulus trials (simulation lanes + BMC
    #: property checks).
    trials: int = 0
    sim_trials: int = 0
    bmc_trials: int = 0
    elapsed_s: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)
    #: Files written for the divergences (when ``out_dir`` is set).
    artifacts: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        return (f"fuzzfarm: {self.rounds} rounds, {self.trials} trials "
                f"({self.sim_trials} sim / {self.bmc_trials} bmc), "
                f"{len(self.divergences)} divergences, "
                f"{self.elapsed_s:.1f}s")


# -- generic divergence shrinking ------------------------------------------


def shrink_stimulus(stimulus: Stimulus,
                    diverges: Callable[[Stimulus], bool],
                    rounds: int = 3) -> Stimulus:
    """Greedy minimization of a stimulus under an arbitrary predicate.

    The analogue of :class:`repro.bmc.shrink.TraceShrinker` for
    *divergence* reproducers, where the thing to preserve is "the two
    interpretations disagree" rather than a property violation.  Scalar
    and simple on purpose: divergences are rare, so this path is cold.
    """
    cur = stimulus.copy()
    while len(cur.inputs) > 1:
        cand = cur.copy()
        cand.inputs = cand.inputs[:-1]
        if not diverges(cand):
            break
        cur = cand
    for _ in range(rounds):
        changed = False
        for k in range(len(cur.inputs)):
            for name in sorted(cur.inputs[k]):
                while cur.inputs[k][name] > 0:
                    cand = cur.copy()
                    nxt = 0 if cand.inputs[k][name] == 1 \
                        else cand.inputs[k][name] // 2
                    cand.inputs[k][name] = nxt
                    if not diverges(cand):
                        break
                    cur = cand
                    changed = True
        for name in sorted(cur.init_latches):
            while cur.init_latches[name] > 0:
                cand = cur.copy()
                cand.init_latches[name] //= 2
                if not diverges(cand):
                    break
                cur = cand
                changed = True
        for mem in sorted(cur.init_memories):
            for addr in sorted(cur.init_memories[mem]):
                cand = cur.copy()
                del cand.init_memories[mem][addr]
                if diverges(cand):
                    cur = cand
                    changed = True
        if not changed:
            break
    return cur


def traces_equal(a: Trace, b: Trace) -> bool:
    return a.cycles == b.cycles


# -- the farm ---------------------------------------------------------------


def _round_seed(master_seed: int, round_index: int) -> int:
    return master_seed * 1_000_003 + round_index


def _should_stop(config: FarmConfig, report: FarmReport,
                 round_index: int, elapsed: float) -> bool:
    if config.rounds is not None:
        return round_index >= config.rounds
    if config.budget_s is not None and round_index > 0 \
            and elapsed >= config.budget_s:
        return True  # wall-clock cap (also caps a min_trials run)
    if config.min_trials:
        return report.trials >= config.min_trials
    if config.budget_s is not None:
        return False  # pure budget run: keep going until the cap
    return round_index >= 1  # nothing configured: one round


def run_farm(config: FarmConfig) -> FarmReport:
    """Run the farm to its seed budget; returns the aggregated report."""
    report = FarmReport()
    t0 = time.monotonic()
    round_index = 0
    while not _should_stop(config, report, round_index,
                           time.monotonic() - t0):
        _run_round(config, _round_seed(config.seed, round_index), report)
        round_index += 1
    report.rounds = round_index
    report.elapsed_s = time.monotonic() - t0
    if config.out_dir and report.divergences:
        report.artifacts = persist_divergences(report.divergences,
                                               config.out_dir)
    return report


def _run_round(config: FarmConfig, seed: int, report: FarmReport) -> None:
    design = build_fuzz_netlist(seed)
    rng = random.Random(seed ^ 0x5EED)
    stimuli = [random_stimulus(design, rng, config.depth)
               for _ in range(config.batch)]
    scalar = SimulatorOracle(design)
    fast: Oracle = default_oracle(design) if have_numpy() else scalar
    traces = fast.replay_batch(stimuli)
    report.sim_trials += len(stimuli)
    report.trials += len(stimuli)

    # Vector vs scalar bit-exactness on a lane sample.
    for lane in _sample_lanes(len(stimuli), config.scalar_lanes, rng):
        ref = scalar.replay(stimuli[lane])
        if not traces_equal(ref, traces[lane]):
            report.divergences.append(_sim_divergence(
                "scalar-vs-vector", seed, design, stimuli[lane], config,
                lambda s: not traces_equal(scalar.replay(s),
                                           fast.replay(s))))

    # Vector vs the explicit-expansion oracle on property verdicts.
    explicit = ExplicitOracle(design)
    for lane in _sample_lanes(len(stimuli), config.explicit_lanes, rng):
        for prop in sorted(design.properties):
            got = fast.scan(prop, traces[lane])
            want = explicit.check(prop, stimuli[lane])
            report.trials += 1
            if (got.failed, got.cycle) != (want.failed, want.cycle):
                report.divergences.append(_sim_divergence(
                    "explicit-vs-vector", seed, design, stimuli[lane],
                    config,
                    _explicit_differs(design, prop), prop=prop,
                    detail=f"vector={got} explicit={want}"))

    if config.run_bmc:
        _run_bmc_matrix(config, seed, design, traces, report)


def _sample_lanes(batch: int, count: int, rng: random.Random) -> list[int]:
    if count >= batch:
        return list(range(batch))
    return sorted(rng.sample(range(batch), count)) if count > 0 else []


def _explicit_differs(design: Design, prop: str):
    def differs(s: Stimulus) -> bool:
        got = default_oracle(design).check(prop, s)
        want = ExplicitOracle(design).check(prop, s)
        return (got.failed, got.cycle) != (want.failed, want.cycle)
    return differs


def _sim_divergence(kind: str, seed: int, design: Design, stimulus: Stimulus,
                    config: FarmConfig, diverges, prop: Optional[str] = None,
                    detail: str = "") -> Divergence:
    shrunk = stimulus
    if config.shrink:
        try:
            shrunk = shrink_stimulus(stimulus, diverges)
        except Exception as exc:  # keep the unshrunk reproducer
            detail = f"{detail} (shrink failed: {exc})".strip()
    return Divergence(kind=kind, seed=seed, prop=prop,
                      detail=detail or kind, stimulus=shrunk.to_dict())


def _run_bmc_matrix(config: FarmConfig, seed: int, design: Design,
                    traces: list[Trace], report: FarmReport) -> None:
    """Every encoding must match the explicit model — and no symbolic
    engine may miss a violation a random lane already found."""
    fast = default_oracle(design) if have_numpy() else \
        SimulatorOracle(design)
    depth = config.bmc_depth
    sim_first: dict[str, Optional[int]] = {}
    for prop in design.properties:
        cycles = [v.cycle for t in traces
                  for v in [fast.scan(prop, t)] if v.failed]
        within = [c for c in cycles if c is not None and c <= depth]
        sim_first[prop] = min(within) if within else None

    base = dict(find_proof=False, max_depth=depth)
    retry = RetryPolicy(max_retries=config.retries)
    with VerificationService(partial(_build_explicit, seed),
                             BmcOptions(use_emm=False, **base),
                             jobs=config.jobs, retry=retry,
                             job_timeout_s=config.job_timeout_s) as svc:
        oracle_results = svc.run()
    for encoding in config.encodings:
        opts = BmcOptions(emm_encoding=encoding, **base)
        with VerificationService(partial(build_fuzz_netlist, seed),
                                 opts, jobs=config.jobs, retry=retry,
                                 job_timeout_s=config.job_timeout_s) as svc:
            results = svc.run()
        for prop, r in sorted(results.items()):
            report.bmc_trials += 1
            report.trials += 1
            want = oracle_results[prop]
            ctx = dict(seed=seed, prop=prop, encoding=encoding,
                       bmc_depth=depth)
            if (r.status, r.depth) != (want.status, want.depth):
                report.divergences.append(Divergence(
                    kind="bmc-verdict", detail=(
                        f"{encoding}: got {r.status}@{r.depth}, "
                        f"explicit model says {want.status}@{want.depth}"),
                    **ctx))
                continue
            if r.status == "cex" and r.trace_validated is not True:
                stim = Stimulus.from_trace(r.trace) if r.trace else None
                report.divergences.append(Divergence(
                    kind="bmc-trace-invalid",
                    detail=f"{encoding}: counterexample trace "
                           f"failed simulator validation",
                    stimulus=stim.to_dict() if stim else None, **ctx))
                continue
            bound = sim_first[prop]
            if bound is not None and (r.status != "cex"
                                      or (r.depth or 0) > bound):
                report.divergences.append(Divergence(
                    kind="bmc-missed-witness",
                    detail=(f"{encoding}: a random lane "
                            f"violates at cycle {bound} but BMC "
                            f"reported {r.status}@{r.depth}"),
                    **ctx))


# -- reproducer persistence / replay ---------------------------------------


def persist_divergences(divergences: list[Divergence],
                        out_dir: str) -> list[str]:
    """Write one JSON reproducer file per divergence; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, div in enumerate(divergences):
        path = out / f"divergence_{i:03d}_{div.kind}_seed{div.seed}.json"
        path.write_text(json.dumps(div.to_dict(), indent=2, sort_keys=True))
        paths.append(str(path))
    return paths


def replay_reproducer(path: str) -> bool:
    """Re-run one persisted divergence; True when it still diverges."""
    data = json.loads(Path(path).read_text())
    seed = int(data["seed"])
    design = build_fuzz_netlist(seed)
    kind = data["kind"]
    if kind in ("scalar-vs-vector", "explicit-vs-vector"):
        stim = Stimulus.from_dict(data["stimulus"])
        if kind == "scalar-vs-vector":
            return not traces_equal(SimulatorOracle(design).replay(stim),
                                    default_oracle(design).replay(stim))
        return _explicit_differs(design, data["prop"])(stim)
    # BMC kinds: re-run the single (encoding, prop) cell at the bound it
    # was found at (files written before the bound was recorded: 4).
    base = dict(find_proof=False, max_depth=data.get("bmc_depth") or 4)
    from repro.bmc import verify
    want = verify(_build_explicit(seed), data["prop"],
                  BmcOptions(use_emm=False, **base))
    got = verify(design, data["prop"],
                 BmcOptions(emm_encoding=data["encoding"], **base))
    if kind == "bmc-trace-invalid":
        return got.status == "cex" and got.trace_validated is not True
    return (got.status, got.depth) != (want.status, want.depth)


# -- CLI --------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.sim.fuzzfarm",
        description="Differential fuzzing farm: vector sim vs scalar sim "
                    "vs the BMC encodings.")
    ap.add_argument("--batch", type=int, default=256,
                    help="stimulus vectors per netlist (vector lanes)")
    ap.add_argument("--depth", type=int, default=5,
                    help="cycles per stimulus vector")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--rounds", type=int, default=None,
                    help="netlist rounds (overrides trials/budget)")
    ap.add_argument("--min-trials", type=int, default=0,
                    help="run until this many trials completed")
    ap.add_argument("--seconds", type=float, default=None,
                    help="wall-clock seed budget")
    ap.add_argument("--bmc-depth", type=int, default=4)
    ap.add_argument("--no-bmc", action="store_true",
                    help="simulation-only differential (no SAT runs)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="service worker processes for the BMC matrix")
    ap.add_argument("--retries", type=int, default=2,
                    help="per-job retry budget for crashed/hung workers")
    ap.add_argument("--job-timeout", type=float, default=None,
                    help="per-job hang deadline in seconds (pooled runs)")
    ap.add_argument("--scalar-lanes", type=int, default=4)
    ap.add_argument("--out", default=None,
                    help="directory for divergence reproducer JSON files")
    ap.add_argument("--replay", default=None, metavar="FILE",
                    help="re-run one persisted reproducer instead")
    args = ap.parse_args(argv)

    if args.replay:
        still = replay_reproducer(args.replay)
        print(f"{args.replay}: "
              f"{'still diverges' if still else 'no longer diverges'}")
        return 1 if still else 0

    config = FarmConfig(batch=args.batch, depth=args.depth, seed=args.seed,
                        rounds=args.rounds, min_trials=args.min_trials,
                        budget_s=args.seconds, run_bmc=not args.no_bmc,
                        bmc_depth=args.bmc_depth, jobs=args.jobs,
                        retries=args.retries, job_timeout_s=args.job_timeout,
                        scalar_lanes=args.scalar_lanes, out_dir=args.out)
    report = run_farm(config)
    print(report.summary())
    for div in report.divergences:
        print(f"  DIVERGENCE [{div.kind}] seed={div.seed} "
              f"prop={div.prop}: {div.detail}")
    for path in report.artifacts:
        print(f"  artifact: {path}")
    return 1 if report.divergences else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
