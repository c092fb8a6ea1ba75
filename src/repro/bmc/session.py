"""The encoding layer of the BMC stack: one CNF, many checks.

An :class:`EncodingSession` owns everything that *encodes* a design —
the incremental SAT solver, the AIG and its Tseitin emitter, the
unroller, the EMM instances and the activation literals — but performs
no checks itself.  Frames are added by the idempotent
:meth:`EncodingSession.extend_to`; per-property ``P_i`` literals come
from :meth:`EncodingSession.p_lits` on demand.  The split buys two
things:

* **many properties, one CNF** — N properties of the same design under
  the same options share a single unrolled encoding (frames, EMM
  constraints, loop-free-path clauses) instead of re-encoding it N
  times; each check is just an assumption set over the shared solver;
* **many requests, one session** — a session is reusable across runs
  (the solver keeps its clauses *and* its learned clauses), so repeated
  verification requests for the same design pay only the solve.
  :class:`SessionCache` keys live sessions on
  ``(design.fingerprint(), options encoding key)``.

The check scheduler on top is :mod:`repro.bmc.engine`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.aig.aig import Aig
from repro.aig.tseitin import CnfEmitter
from repro.bmc.induction import LoopFreeConstraints
from repro.bmc.unroller import Unroller
from repro.design.netlist import Design
from repro.emm.addrcmp import SharedComparatorTables
from repro.emm.forwarding import EmmMemory
from repro.sat.solver import Solver

if TYPE_CHECKING:  # pragma: no cover
    from repro.bmc.engine import BmcOptions


class QuotaExceededError(Exception):
    """A per-job resource quota tripped during encoding.

    Raised by :meth:`EncodingSession.extend_to` when the session's
    clause+variable total crosses the caller's watermark.  The session
    stays sound — frames already encoded are complete and never rolled
    back — so the scheduler catches this and degrades the run at depth
    granularity (:data:`repro.bmc.results.DEGRADED`) instead of dying.
    """

    def __init__(self, kind: str, detail: str = "") -> None:
        super().__init__(detail or kind)
        #: Which quota tripped: ``"mem"`` | ``"clauses"`` | ``"wall"``.
        self.kind = kind


class EncodingSession:
    """Owns the solver/AIG/unroller/EMM state of one design encoding.

    The session encodes; it never solves.  Checks are run by schedulers
    (:class:`repro.bmc.engine.BmcEngine`) as assumption sets over
    :attr:`solver`, guarded by the session's activation literals:

    * :attr:`a_init` — initial-state clauses for latches,
    * :attr:`a_meminit` — declared initial memory contents (eq. (6) pins),
    * the per-frame loop-free-path guards from :meth:`lfp_assumptions`,
      so a depth-``i`` check is blind to frames a sibling encoded
      beyond it.
    """

    def __init__(self, design: Design,
                 options: Optional["BmcOptions"] = None) -> None:
        from repro.bmc.engine import BmcOptions

        design.validate()
        self.design = design
        self.options = options or BmcOptions()
        options = self.options
        if design.memories and not options.use_emm:
            raise ValueError(
                "design has memories but use_emm=False; expand them first "
                "(repro.design.expand_memories) for the explicit baseline")
        self._check_kept_names()
        self.solver = Solver(proof=options.pba)
        self.aig = Aig()
        # PBA sessions keep the plain AND-triple lowering: the ITE form
        # is function-equivalent but collapses each mux's two inner AND
        # provenance points into one 4-clause emission, which yields
        # legally-smaller UNSAT cores that can starve the reason-based
        # abstraction of latches the proof run still needs (quicksort
        # P2 regression).  `pba` is part of encoding_key, so fast and
        # ITE-lowered sessions are never cache-aliased with these.
        self.emitter = CnfEmitter(self.aig, self.solver,
                                  ite=not options.pba)
        self.unroller = Unroller(design, self.emitter, options.kept_latches)
        self.a_init = self.solver.new_var()
        self.a_meminit = self.solver.new_var()
        kept_mems = (frozenset(design.memories)
                     if options.kept_memories is None
                     else frozenset(options.kept_memories))
        self.kept_memories = kept_mems
        port_map = options.kept_read_ports or {}
        registries = self._shared_init_registries(kept_mems)
        #: Session-scoped cross-memory comparator registry, shared by every
        #: memory's comparators so structurally identical address
        #: comparisons encode once across memories (see
        #: :mod:`repro.emm.addrcmp` for why PBA stays sound).
        self.cmp_registry = SharedComparatorTables()
        if options.emm_encoding == "hybrid":
            emm_class = EmmMemory
        elif options.emm_encoding == "gates":
            from repro.emm.gates import GateEmmMemory
            emm_class = GateEmmMemory
        else:
            raise ValueError(
                f"unknown emm_encoding {options.emm_encoding!r} "
                "(expected 'hybrid' or 'gates')")
        self.emms = {
            name: emm_class(self.solver, self.unroller, name,
                            exclusivity=options.exclusivity,
                            init_consistency=options.init_consistency,
                            symbolic_init=options.find_proof,
                            a_meminit=self.a_meminit,
                            kept_read_ports=port_map.get(name),
                            init_registry=registries.get(name),
                            cmp_registry=self.cmp_registry)
            for name in sorted(kept_mems)
        }
        self.lfp = (LoopFreeConstraints(self.unroller)
                    if options.find_proof else None)
        #: Frames encoded so far (frame indices 0..frames_built-1).
        self.frames_built = 0
        #: Per-property P_i literal lists, grown lazily by :meth:`p_lits`.
        self._p_lits: dict[str, list[int]] = {}

    def _check_kept_names(self) -> None:
        """Raise ValueError for an abstraction setting that names a latch,
        memory or read port the design does not have."""
        design, options = self.design, self.options
        for setting, names, known in (
                ("kept_latches", options.kept_latches, design.latches),
                ("kept_memories", options.kept_memories, design.memories),
                ("kept_read_ports", options.kept_read_ports,
                 design.memories)):
            unknown = sorted(set(names or ()) - set(known))
            if unknown:
                raise ValueError(f"{setting}: {unknown} not in design")
        for name, ports in (options.kept_read_ports or {}).items():
            count = design.memories[name].num_read_ports
            bad = sorted(set(ports) - set(range(count)))
            if bad:
                raise ValueError(f"kept_read_ports[{name!r}]: read ports "
                                 f"{bad} not in a {count}-port memory")

    def _shared_init_registries(self, kept_mems: frozenset[str]) -> dict:
        """One shared fall-through read registry per shared-init group."""
        from repro.emm.forwarding import InitReadRegistry

        registries: dict[str, InitReadRegistry] = {}
        for group in self.options.shared_init_memories:
            widths = set()
            shared = InitReadRegistry()
            for name in sorted(group):
                mem = self.design.memories.get(name)
                if mem is None:
                    raise ValueError(f"shared-init memory {name!r} not in design")
                widths.add((mem.addr_width, mem.data_width))
                if name in registries:
                    raise ValueError(f"memory {name!r} is in two shared-init groups")
                if name in kept_mems:
                    registries[name] = shared
            if len(widths) > 1:
                raise ValueError(
                    f"shared-init group {sorted(group)} mixes geometries {widths}")
        return registries

    # -- frame construction ------------------------------------------------

    def extend_to(self, depth: int,
                  clause_var_quota: Optional[int] = None) -> None:
        """Encode frames up to ``depth`` inclusive; idempotent.

        Already-encoded frames are never touched, so interleaved callers
        (several schedulers sharing the session) each pay only for the
        deepest frontier.

        ``clause_var_quota`` is a per-call watermark on
        :meth:`clause_var_total`: once the encoding crosses it, a
        :class:`QuotaExceededError` is raised *between* frames — the
        frame in flight is always finished first, so the session remains
        a complete encoding of ``0..frames_built-1`` and every check at
        those depths stays sound.  It is a run knob of the calling
        scheduler, never part of the session's identity.
        """
        while self.frames_built <= depth:
            if (clause_var_quota is not None
                    and self.clause_var_total() > clause_var_quota):
                raise QuotaExceededError(
                    "clauses",
                    f"encoding watermark {self.clause_var_total()} > "
                    f"quota {clause_var_quota} before frame {self.frames_built}")
            k = self.frames_built
            self.unroller.add_frame()
            if k == 0:
                self._assert_latch_inits()
            for emm in self.emms.values():
                emm.add_frame(k)
            if self.lfp is not None:
                self.lfp.add_frame(k)
            self.frames_built += 1

    def _assert_latch_inits(self) -> None:
        emitter = self.emitter
        for name in sorted(self.unroller.kept_latches):
            latch = self.design.latches[name]
            if latch.init is None:
                continue  # arbitrary initial value: leave free
            word = self.unroller.latch_word(name, 0)
            emitter.set_label(("init", name))
            for b in range(latch.width):
                lit = emitter.sat_lit(word[b])
                bit = (latch.init >> b) & 1
                emitter.add_clause([-self.a_init, lit if bit else -lit])

    def lfp_assumptions(self, depth: int) -> list[int]:
        """Per-frame loop-free-path guards for a check at ``depth``.

        Only pairs among frames ``0..depth`` are activated — essential on
        shared sessions, where a sibling property may have encoded frames
        beyond ``depth`` whose distinctness must *not* constrain this
        check (see :mod:`repro.bmc.induction`).
        """
        if self.lfp is None:
            return []
        return self.lfp.assumptions(depth)

    # -- per-property literals ---------------------------------------------

    def p_lits(self, prop_name: str, upto: int) -> list[int]:
        """``[P_0 .. P_upto]``, SAT literals of "property holds at frame
        i" (lazily emitted); frames must be encoded.

        ``reach`` properties are negated so P uniformly reads "no
        violation yet" — exactly the literal the scheduler assumes
        positively in backward-induction prefixes and negatively in
        falsification checks.
        """
        if upto >= self.frames_built:
            raise ValueError(
                f"frame {upto} not encoded yet (have {self.frames_built}); "
                "call extend_to first")
        prop = self.design.properties[prop_name]
        lits = self._p_lits.setdefault(prop_name, [])
        while len(lits) <= upto:
            i = len(lits)
            self.emitter.set_label(("gate", i))
            good = self.unroller.lit(prop.expr, i)
            p = self.emitter.sat_lit(good)
            if prop.kind == "reach":
                p = -p  # P = "target not yet reached"
            lits.append(p)
        return lits

    # -- introspection ------------------------------------------------------

    def is_concrete(self) -> bool:
        """True when no latch, memory or read port has been abstracted
        away."""
        return (self.unroller.kept_latches == frozenset(self.design.latches)
                and self.kept_memories == frozenset(self.design.memories)
                and all(len(emm.kept_read_ports) == emm.mem.num_read_ports
                        for emm in self.emms.values()))

    def clause_var_total(self) -> int:
        """Solver clauses + variables — the size a shared run amortizes."""
        return self.solver.num_clauses + self.solver.num_vars


class SessionCache:
    """LRU cache of live sessions keyed on design content + options.

    The key is ``(design.fingerprint(), options.encoding_key())`` — two
    designs with identical semantic content (regardless of construction
    order) and identical encoding-relevant options share a session, so a
    repeated verification request pays only the incremental solve, not
    the encoding.  Schedulers never mutate a session destructively, so
    handing the same session to successive engines is sound; verdicts
    may only get *cheaper* (retained learned clauses), never different.
    """

    def __init__(self, max_sessions: int = 8) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self._sessions: OrderedDict[tuple, EncodingSession] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def key_for(self, design: Design, options: "BmcOptions") -> tuple:
        return (design.fingerprint(), options.encoding_key())

    def get_or_create(self, design: Design,
                      options: Optional["BmcOptions"] = None,
                      ) -> EncodingSession:
        from repro.bmc.engine import BmcOptions

        options = options or BmcOptions()
        key = self.key_for(design, options)
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            self.hits += 1
            return session
        session = EncodingSession(design, options)
        self._sessions[key] = session
        self.misses += 1
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
        return session

    def clear(self) -> None:
        self._sessions.clear()
