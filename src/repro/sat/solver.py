"""CDCL SAT solver with resolution-proof logging.

The solver follows the classic MiniSat architecture.  Internally a literal
is encoded as ``var << 1 | sign`` (sign 1 = negated); the public API uses
signed DIMACS-style integers.  Every clause receives an integer id; learned
clauses record the tuple of clause ids resolved while deriving them
(including the unit chains behind level-0 literal eliminations), which lets
:meth:`Solver.core_clause_ids` expand a final conflict into a set of
original clauses sufficient for unsatisfiability — the paper's
``SAT_Get_Refutation`` step (Figure 1, line 10) that feeds proof-based
abstraction.

The data layout is MiniSat's (Een & Sorensson, SAT 2003): truth values
live in one list indexed by internal literal, so a watch visit reads
``vals[lit]`` with no sign arithmetic; each long-clause watch list is
one flat list of ``cid, blocker`` slot pairs, so satisfied clauses are
skipped on the blocker alone and propagation allocates nothing; the
VSIDS order heap is sifted inline on decisions and backtracks.  The
propagation machinery is MiniSat-2.2/Glucose-class: a dedicated
binary-implication watch list that propagates 2-literal clauses (the
EMM-dominant shape) without touching clause objects, LBD (glue)
scoring with a tiered clause-database
reduction (glue <= 2 pinned), root-level shrinking of learned clauses
against permanent level-0 units, and assumption-trail reuse — a solve
whose assumption list shares a prefix with the previous solve keeps the
propagated prefix assigned instead of cancelling to level 0.  The kept
trail also survives clause additions: ``add_clause`` drops only the free
search levels and attaches the new clause against the assumption levels
(watching it, asserting its last open literal, or backtracking first
when it is false there).  Root facts — added or learned units — are
asserted at level 0 without cancelling the levels above (chronological
backtracking for level-0 literals only, after Nadel & Ryvchin, SAT
2018), so an incremental BMC session does not re-propagate its
initial-state cone at every depth.  Proof-logging solvers still cancel
to level 0 on ``add_clause``: their cores depend on which clause became
each literal's reason.

Answers are checkable independently of the search: models against the
clauses, UNSAT answers by RUP over the learned clauses plus a re-solve
of the core (:mod:`repro.sat.proofcheck`).

The per-propagation, per-conflict and per-clause loops also exist in
C, in ``_kernel.c``: ``propagate`` (unit propagation), ``unassign``
(the unassign / heap re-insert loop of backtracking), ``pick`` (the
heap pop of a decision), ``intake`` (the simplify-and-attach pass of
:meth:`Solver.add_clause` for a clause left with at least two literals
that are not false; every other clause goes to the Python body, with
nothing changed), ``analyze`` (1UIP conflict analysis with its
minimisation, VSIDS bumps and level-0 unit chains; the clause-activity
bumps are handed back) and ``analyze_final`` (the walk behind a failed
assumption).  They are the same algorithms, decision for decision,
working in place on the solver's own lists and dicts (packed into
context tuples once in ``__init__``; none of them is ever rebound).  On
import the module loads ``__pycache__/_kernel_<sha1 of the
source>.<ext suffix>``, compiling it with ``gcc -O2 -shared -fPIC`` on
a miss (to a private file moved into place, so concurrent imports never
see half a build; editing the source rebuilds it and removes the older
build).  Where that fails — not CPython, no compiler or ``Python.h``, a
tree that cannot be written — ``_kernel`` is None, ``_kernel_error``
says why, and the pure-Python loops run: the package needs nothing
beyond the standard library.  Both give the same search, so setting
``_kernel`` to None only makes the solver slower.

The clause store is most of a large session's memory, so it is kept
compact.  ``_lit_objs`` holds one int object per internal literal
(``new_var`` appends the variable's two), and every literal the solver
stores — in a clause, original or learned, a watch entry or the trail —
is that object: the intake paths and decisions look it up, and
everything else is copied from a clause, a watch or the trail.  A
literal met in a thousand clauses costs one int, not a thousand.
Clause labels are stored as runs: ``_label_starts`` holds the first cid
of each run of consecutive clauses with equal labels (ascending) and
``_label_vals`` the run's label, None for unlabelled originals and
learned clauses; :meth:`Solver.clause_label` bisects the starts.

With the kernel loaded, the solver's storage is also kept out of
CPython's cyclic garbage collector, whose passes would otherwise walk
every clause and watch list of a large session again and again.
``__init__`` untracks the outer lists (``_vals``, ``_levels``,
``_reasons``, ``_activity``, ``_saved_phase``, ``_watches``,
``_bin_watches``, ``_clauses``, ``_trail``, ``_trail_lim``,
``_assump_levels``, ``_heap``, ``_heap_pos``, ``_lit_objs``,
``_label_starts``); the kernel's ``new_var``,
``intake`` and ``analyze`` create the watch lists, clause lists,
binary-watch pairs and learnt clauses untracked, and the Python side
untracks the clause lists it builds itself (CPython untracks the int
pairs it builds at their first collection).  All of them hold only ints
or lists of ints, so none can be part of a reference cycle,
and untracking frees nothing early: what an untracked container holds
still counts as referenced.  ``_label_vals`` holds the caller's objects,
which may refer back to the solver, so it stays tracked and a solver
caught in a cycle is still reclaimed.  No process-wide GC setting is
touched, and with ``_kernel`` None nothing is untracked.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

from repro.utils.luby import luby


def _load_kernel(here: Optional[str] = None):
    """Build (once per source hash) and load the compiled hot loops.

    ``here`` is the directory holding ``_kernel.c`` (this package's by
    default); the build goes to its ``__pycache__``.  A fresh build
    removes the builds of older sources for the same interpreter there,
    never another process's unfinished ``.tmp`` file.  Returns
    ``(module, None)``, or ``(None, reason)`` when the kernel cannot be
    had here: not CPython, no C compiler or ``Python.h``, or a package
    directory that cannot be written.
    """
    try:
        if sys.implementation.name != "cpython":
            return None, "not CPython"
        if here is None:
            here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(here, "_kernel.c")
        with open(src, "rb") as f:
            digest = hashlib.sha1(f.read()).hexdigest()[:12]
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        cache = os.path.join(here, "__pycache__")
        path = os.path.join(cache, f"_kernel_{digest}{suffix}")
        if not os.path.exists(path):
            import subprocess
            import sysconfig

            os.makedirs(os.path.dirname(path), exist_ok=True)
            # Build under a private name, then move it into place, so a
            # concurrent import never loads a half-written file.
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                proc = subprocess.run(
                    ["gcc", "-O2", "-shared", "-fPIC",
                     "-I" + sysconfig.get_paths()["include"], src, "-o", tmp],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    return None, proc.stderr.strip() or "gcc failed"
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
            for name in os.listdir(cache):
                if (name.startswith("_kernel_") and name.endswith(suffix)
                        and name != os.path.basename(path)):
                    try:
                        os.remove(os.path.join(cache, name))
                    except OSError:  # another process removed it first
                        pass
        spec = importlib.util.spec_from_file_location("repro.sat._kernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, None
    except Exception as exc:  # no compiler, read-only tree, bad build
        return None, f"{type(exc).__name__}: {exc}"


#: The compiled solver loops (``_kernel.c``), or None to run the
#: pure-Python loops; ``_kernel_error`` says why not.
_kernel, _kernel_error = _load_kernel()


UNASSIGNED = -1

_TRUE = 1
_FALSE = 0


def _to_internal(lit: int) -> int:
    """Signed DIMACS literal -> internal ``var << 1 | sign`` encoding."""
    if lit > 0:
        return lit << 1
    return (-lit) << 1 | 1


def _to_external(ilit: int) -> int:
    """Internal literal -> signed DIMACS literal."""
    var = ilit >> 1
    return -var if ilit & 1 else var


@dataclass
class SolverStats:
    """Counters accumulated over the lifetime of a solver."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    solves: int = 0
    #: Decision levels retained by assumption-trail reuse:
    #: summed over solves, each counting the prefix of assumption levels
    #: kept assigned instead of being cancelled and re-propagated.
    trail_saved_levels: int = 0
    #: Learned clauses shrunk / literals removed by root-level
    #: simplification against permanent level-0 units.
    shrunk_clauses: int = 0
    shrunk_lits: int = 0
    #: Wall-clock phase breakdown, populated only while
    #: :attr:`Solver.profile` is True (see ``repro.perf``).
    time_propagate_s: float = 0.0
    time_analyze_s: float = 0.0
    time_reduce_s: float = 0.0
    time_simplify_s: float = 0.0
    #: Decision picks: the VSIDS pop and the assumption decisions.
    time_decide_s: float = 0.0
    #: Backtracks of the search loop: after conflicts, at restarts and
    #: to the kept assumption prefix on entry.
    time_backtrack_s: float = 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SolveResult:
    """Outcome of one :meth:`Solver.solve` call."""

    sat: bool
    #: Subset of the given assumptions sufficient for the conflict when
    #: ``sat`` is False; empty for plain (assumption-free) UNSAT.
    failed_assumptions: tuple[int, ...] = ()
    stats: dict = field(default_factory=dict)
    #: True when the solve aborted on a resource limit; ``sat`` is then
    #: meaningless and callers must treat the result as UNKNOWN.
    unknown: bool = False
    #: Which limit aborted the solve when ``unknown``: ``"conflicts"``
    #: (``max_conflicts`` exhausted) or ``"deadline"`` (wall clock).
    limit: Optional[str] = None

    def __bool__(self) -> bool:  # allows ``if solver.solve(...):``
        if self.unknown:
            raise RuntimeError(
                f"solve aborted on {self.limit} limit (unknown result)")
        return self.sat


class Solver:
    """Incremental CDCL solver with optional proof logging.

    Parameters
    ----------
    proof:
        When True, every learned clause stores the ids of the clauses used
        in its derivation so unsat cores can be extracted.  BMC with PBA
        requires this; plain falsification runs may disable it to save
        memory.
    """

    #: Tier bounds for the reduction: learned clauses with glue (LBD)
    #: <= LBD_CORE are never deleted; glue <= LBD_TIER2 clauses survive a
    #: reduction round when they were used in an analysis since the last
    #: one; the rest ("local" tier) compete on activity.
    LBD_CORE = 2
    LBD_TIER2 = 6

    def __init__(self, proof: bool = True) -> None:
        self.proof_logging = proof
        #: When True, the search loop records phase wall times into
        #: :class:`SolverStats` (``time_*_s`` fields).  Off by default —
        #: flipped by the engine under ``BmcOptions.profile``.
        self.profile = False
        # Truth value of every internal literal (indices 0 and 1 belong
        # to the unused variable 0): assigning writes both literals of
        # the variable, unassigning resets both.
        self._vals: list[int] = [UNASSIGNED, UNASSIGNED]
        # Variable state (index 0 unused so var numbers match list index).
        self._levels: list[int] = [0]
        self._reasons: list[int] = [-1]
        self._activity: list[float] = [0.0]
        #: Sign bit of the literal each variable last held (1 = negated,
        #: the initial phase), tried first when the search decides it.
        self._saved_phase: list[int] = [1]
        # Watches indexed by internal literal: the clauses (3+ literals)
        # watching it, as flat ``cid, blocker`` slot pairs.
        self._watches: list[list[int]] = [[], []]
        # 2-literal clauses live here as ``(cid, other_lit)`` and are
        # propagated without touching the clause object.
        self._bin_watches: list[list[tuple[int, int]]] = [[], []]
        #: One int object per internal literal (``_lit_objs[lit] == lit``):
        #: every literal stored in a clause, a watch or the trail is this
        #: object, so a literal met a thousand times costs one int.
        self._lit_objs: list[int] = [0, 1]
        # Clause database: list of literal-lists (None when deleted).
        self._clauses: list[Optional[list[int]]] = []
        self._learned_ids: list[int] = []
        self._clause_act: dict[int, float] = {}
        #: Learned cid -> glue (LBD) at learn time, lowered dynamically
        #: when the clause is used in an analysis.
        self._clause_lbd: dict[int, int] = {}
        #: Learned cids used in an analysis since the last _reduce_db.
        self._clause_used: set[int] = set()
        #: Clause labels as runs of consecutive cids with equal labels:
        #: ``_label_vals[i]`` is the label of every cid from
        #: ``_label_starts[i]`` up to the next start.
        self._label_starts: list[int] = []
        self._label_vals: list[Hashable] = []
        self._n_original = 0
        # Proof bookkeeping: learned cid -> tuple of antecedent cids.
        self._derivations: dict[int, tuple[int, ...]] = {}
        self._simplify_deps: dict[int, tuple[int, ...]] = {}
        self._l0_memo: dict[int, tuple[int, ...]] = {}
        # Literals of learned clauses deleted by _reduce_db (proof mode).
        self._proof_lits: dict[int, tuple[int, ...]] = {}
        # Trail.
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        #: Parallel to _trail_lim: the assumption literal decided (or
        #: found already true) at each level, 0 for free search
        #: decisions.  This is what assumption-trail reuse matches the
        #: next solve's assumption list against.
        self._assump_levels: list[int] = []
        #: Level-0 trail length the last _simplify_learned ran against.
        self._simplified_fixed = 0
        self._qhead = 0
        # Heuristics.
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        # VSIDS order: an indexed max-heap over ``_activity`` (MiniSat's
        # order heap).  ``_heap_pos[var]`` is the variable's heap index,
        # -1 when it is out of the heap, so each variable sits in the
        # heap at most once.  Unassigned variables are always in it.
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1]
        self._max_learnts = 4000.0
        self._learnt_growth = 1.1
        # Terminal state.
        self._broken = False  # UNSAT without assumptions: solver is dead
        self._unsat_core_cids: Optional[frozenset[int]] = None
        self._last_failed: tuple[int, ...] = ()
        self.stats = SolverStats()
        # Scratch used by analyze: one byte per variable, zero between
        # calls (the kernel keeps its flags in it too).
        self._seen = bytearray(1)
        # The lists the compiled kernel works on, packed once: none of
        # them is ever rebound.
        self._prop_ctx = (self._trail, self._clauses, self._vals,
                          self._watches, self._bin_watches, self._levels,
                          self._reasons)
        self._unassign_ctx = (self._trail, self._vals, self._saved_phase,
                              self._reasons, self._levels, self._heap,
                              self._heap_pos, self._activity)
        self._pick_ctx = (self._heap, self._heap_pos, self._activity,
                          self._vals, self._saved_phase, self._lit_objs)
        self._intake_ctx = (self._vals, self._levels, self._clauses,
                            self._watches, self._bin_watches, self._lit_objs)
        self._analyze_ctx = (self._clauses, self._trail, self._levels,
                             self._reasons, self._activity, self._heap,
                             self._heap_pos, self._seen, self._l0_memo,
                             self._clause_act)
        self._final_ctx = (self._clauses, self._levels, self._reasons,
                           self._vals, self._seen)
        self._new_var_ctx = (self._vals, self._levels, self._reasons,
                             self._activity, self._saved_phase,
                             self._watches, self._bin_watches, self._heap,
                             self._heap_pos, self._seen, self._lit_objs)
        if _kernel is not None:
            # Out of the cycle collector (see the module docstring),
            # with the watch lists of variable 0.
            for lst in (self._vals, self._levels, self._reasons,
                        self._activity, self._saved_phase, self._watches,
                        self._bin_watches, self._clauses, self._trail,
                        self._trail_lim, self._assump_levels, self._heap,
                        self._heap_pos, self._lit_objs, self._label_starts,
                        *self._watches, *self._bin_watches):
                _kernel.untrack(lst)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable (positive integer)."""
        if _kernel is not None:
            return _kernel.new_var(self._new_var_ctx)
        self._vals.append(UNASSIGNED)
        self._vals.append(UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(-1)
        self._activity.append(0.0)
        self._saved_phase.append(1)
        self._watches.append([])
        self._watches.append([])
        self._bin_watches.append([])
        self._bin_watches.append([])
        self._seen.append(0)
        var = len(self._levels) - 1
        self._lit_objs.append(var << 1)
        self._lit_objs.append(var << 1 | 1)
        # Activity 0.0 never outranks a parent: the new leaf stays put.
        self._heap_pos.append(len(self._heap))
        self._heap.append(var)
        return var

    @property
    def num_vars(self) -> int:
        return len(self._levels) - 1

    @property
    def num_clauses(self) -> int:
        """Number of original (non-learned) clauses added so far."""
        return self._n_original

    @property
    def is_broken(self) -> bool:
        """True once the CNF is unsatisfiable even without assumptions."""
        return self._broken

    def add_clause(self, lits: Iterable[int], label: Hashable = None) -> int:
        """Add an original clause; returns its clause id.

        ``label`` is an arbitrary hashable provenance tag reported back by
        :meth:`core_labels` when the clause participates in an unsat core.
        Returns -1 when the clause is absorbed (tautology or already
        satisfied at level 0).  Adding the empty clause (or one that
        closes a level-0 conflict) renders the solver permanently
        unsatisfiable.

        Without proof logging the solver keeps the leading
        assumption levels of the last solve (see :meth:`solve`); a
        clause satisfied only above level 0 is therefore stored, not
        absorbed.
        """
        if self._broken:
            return -1
        if self._trail_lim:
            if not self.proof_logging:
                # Keep the leading assumption levels (and everything they
                # propagated); only free search levels are dropped.
                al = self._assump_levels
                if al[-1] == 0:
                    self._cancel_until(al.index(0))
            else:
                # Proof logging: cores depend on which clause is each
                # literal's reason, so clauses arrive at level 0.
                self._cancel_until(0)
        if not self._trail_lim and self._qhead < len(self._trail):
            # Root units kept by the last backtrack are still queued:
            # propagate them so simplification sees the level-0 closure.
            confl = self._propagate()
            if confl != -1:
                self._mark_broken(self._conflict_core_at_level0(confl))
                return -1
        if _kernel is not None:
            # The kernel takes the common case and returns None, having
            # changed nothing, for every clause the Python body handles.
            cid = _kernel.intake(self._intake_ctx, lits, self.proof_logging)
            if cid is not None:
                if cid >= 0:
                    # _note_label, inlined on the hot path.
                    runs = self._label_vals
                    if not runs or runs[-1] != label:
                        self._label_starts.append(cid)
                        runs.append(label)
                    self._n_original += 1
                return cid
        # One pass: convert, range-check, deduplicate and simplify
        # against level-0 assignments.  The ids of the unit chains that
        # falsified removed literals become part of this clause's
        # "derivation" so cores stay sufficient.  Literals false above
        # level 0 (a kept trail) stay in the clause, after the ones that
        # are not false, so those come first as watches.  A literal's
        # value tells which list may hold its duplicate or negation.  An
        # absorbed clause still range-checks its other literals:
        # iterating ``lits`` again yields the rest of an iterator and all
        # of a sequence (checked twice, harmlessly).
        vals = self._vals
        levels = self._levels
        lit_objs = self._lit_objs
        top = len(vals) - 1
        out: list[int] = []
        late: list[int] = []
        dropped: list[int] = []
        simplify_deps: list[int] = []
        for x in lits:
            lt = x << 1 if x > 0 else (-x) << 1 | 1
            if not 2 <= lt <= top:
                raise ValueError(f"literal {x} references unknown variable")
            lt = lit_objs[lt]
            v = vals[lt]
            if v == UNASSIGNED:
                if lt in out:
                    continue
                if lt ^ 1 in out:
                    return self._absorb(lits)  # tautology
                out.append(lt)
            elif levels[lt >> 1] == 0:
                if v == _TRUE:
                    # Clause already satisfied at level 0.
                    return self._absorb(lits)
                if self.proof_logging:
                    simplify_deps.extend(self._explain_level0(lt >> 1))
                dropped.append(lt)
            elif v == _TRUE:
                if lt in out:
                    continue
                if lt ^ 1 in late:
                    return self._absorb(lits)  # tautology
                out.append(lt)
            else:
                if lt in late:
                    continue
                if lt ^ 1 in out:
                    return self._absorb(lits)  # tautology
                late.append(lt)
        open_lits = len(out)
        if late:
            out += late
        clauses = self._clauses
        cid = len(clauses)
        # All literals false at level 0: store them as given.
        stored = out if out else dropped
        if _kernel is not None:
            _kernel.untrack(stored)
        clauses.append(stored)
        self._note_label(cid, label)
        self._n_original += 1
        if not out:
            core = {cid}
            core.update(simplify_deps)
            self._mark_broken(self._expand_to_originals(core))
            return cid
        if simplify_deps:
            # The stored (simplified) clause is the original one resolved
            # against the unit chains that falsified the removed literals;
            # remember those ids so cores that use this clause stay
            # self-contained.
            self._simplify_deps[cid] = tuple(set(simplify_deps))
        if self._trail_lim and open_lits < 2 and self._place_under_trail(cid):
            return cid
        n = len(out)
        if n == 1:
            if not self._enqueue(out[0], cid):
                raise AssertionError("unit enqueue cannot conflict after simplification")
            confl = self._propagate()
            if confl != -1:
                core = self._conflict_core_at_level0(confl)
                self._mark_broken(core)
            return cid
        l0 = out[0]
        l1 = out[1]
        if n == 2:
            bins = self._bin_watches
            bins[l0].append((cid, l1))
            bins[l1].append((cid, l0))
        else:
            w = self._watches[l0]
            w.append(cid)
            w.append(l1)
            w = self._watches[l1]
            w.append(cid)
            w.append(l0)
        return cid

    def _note_label(self, cid: int, label: Hashable) -> None:
        """Record the label of the newly stored clause ``cid``: it extends
        the last run when equal to that run's label, else starts one."""
        runs = self._label_vals
        if not runs or runs[-1] != label:
            self._label_starts.append(cid)
            runs.append(label)

    def _absorb(self, rest: Iterable[int]) -> int:
        """Range-check the literals of an absorbed clause; returns -1."""
        nvars = self.num_vars
        for x in rest:
            if not 1 <= abs(x) <= nvars:
                raise ValueError(f"literal {x} references unknown variable")
        return -1

    #: A solve under a deadline polls the wall clock once per this many
    #: conflicts — frequent enough to stop a hard check within a fraction
    #: of a second, rare enough that ``time.monotonic()`` stays invisible
    #: in the profile.
    DEADLINE_CONFLICT_STEP = 16

    #: ...and once per this many decisions, so a propagation/decision-
    #: heavy (SAT-leaning) solve that rarely conflicts still honours the
    #: deadline instead of blowing far past ``timeout_s``.
    DEADLINE_DECISION_STEP = 64

    def solve(self, assumptions: Sequence[int] = (),
              max_conflicts: Optional[int] = None,
              deadline: Optional[float] = None) -> SolveResult:
        """Solve under the given assumption literals.

        Returns a :class:`SolveResult`; when unsatisfiable, the core of
        original clauses used is available through
        :meth:`core_clause_ids` / :meth:`core_labels` until the next call.
        ``max_conflicts`` bounds the search: up to N conflicts are
        *analyzed* (their learned clauses are kept for later calls —
        ``max_conflicts=1`` still learns from its one conflict), then the
        next conflict aborts with ``unknown=True`` and ``limit =
        "conflicts"``.  ``deadline`` (a ``time.monotonic()`` instant)
        bounds wall time: the loop polls the clock on stepped conflict
        *and* decision counts and aborts with ``limit = "deadline"`` once
        passed, so a single hard check cannot blow through a caller's
        wall budget.  A conflict at decision level 0 still returns the
        definitive UNSAT answer regardless of either limit.

        A solve whose assumption list shares a prefix with
        the previous solve's keeps the matching decision levels (and
        their propagations) assigned instead of cancelling to level 0.
        That is sound because :meth:`add_clause` attaches every new
        clause against the kept trail: it is watched on two literals that
        are not false, or its implied literal is queued, or the trail is
        cut back below its falsified literals.  Whatever the new clauses
        imply is propagated here; a conflict that leaves no literal at
        the current level backtracks to the conflict's highest level and
        is analyzed like any other (level 0: the CNF is unsatisfiable).
        """
        self.stats.solves += 1
        if self._broken:
            # UNSAT without assumptions: no assumption failed.
            self._last_failed = ()
            return self._result(False)
        if deadline is not None and time.monotonic() >= deadline:
            return SolveResult(sat=False, unknown=True, limit="deadline",
                               stats=self.stats.snapshot())
        budget_left = max_conflicts
        self._last_failed = ()
        self._unsat_core_cids = None
        iassumps = [_to_internal(lt) for lt in assumptions]
        for lt in iassumps:
            if not 1 <= (lt >> 1) <= self.num_vars:
                raise ValueError(f"assumption {_to_external(lt)} references unknown variable")
        lit_objs = self._lit_objs
        iassumps = [lit_objs[lt] for lt in iassumps]
        # Assumption-trail reuse: keep the longest decision-level prefix
        # whose assumption literals match this call's.
        al = self._assump_levels
        keep = 0
        limit = min(len(al), len(iassumps))
        while keep < limit and al[keep] == iassumps[keep]:
            keep += 1
        prof = self.profile
        st = self.stats
        vals = self._vals
        self._backtrack(keep)
        st.trail_saved_levels += keep
        if prof:
            t0 = time.perf_counter()
        confl = self._propagate()
        if prof:
            st.time_propagate_s += time.perf_counter() - t0
        if confl != -1 and self._decision_level() == 0:
            self._mark_broken(self._conflict_core_at_level0(confl))
            return self._result(False)
        # A conflict under the kept prefix (clauses or root units arrived
        # since the last solve) is analyzed by the loop below like any
        # other, after backtracking to the conflict's highest level.
        if confl == -1 and self._decision_level() == 0:
            if prof:
                t0 = time.perf_counter()
            self._simplify_learned()
            if prof:
                st.time_simplify_s += time.perf_counter() - t0

        restart_n = 0
        conflicts_budget = luby(restart_n) * 100
        conflicts_here = 0
        decisions_here = 0
        while True:
            if confl == -1:
                if prof:
                    t0 = time.perf_counter()
                confl = self._propagate()
                if prof:
                    st.time_propagate_s += time.perf_counter() - t0
            if confl != -1:
                self.stats.conflicts += 1
                conflicts_here += 1
                # A root literal propagated above its level can leave no
                # literal of the conflict at the current level.
                levels = self._levels
                clvl = max(levels[q >> 1] for q in self._clauses[confl])
                if clvl < self._decision_level():
                    self._backtrack(clvl)
                if self._decision_level() == 0:
                    self._mark_broken(self._conflict_core_at_level0(confl))
                    return self._result(False)
                if budget_left is not None:
                    if budget_left <= 0:
                        # Budget exhausted by previously analyzed
                        # conflicts: abort before analyzing this one.
                        self._cancel_until(0)
                        return SolveResult(sat=False, unknown=True,
                                           limit="conflicts",
                                           stats=self.stats.snapshot())
                    budget_left -= 1
                if (deadline is not None
                        and conflicts_here % self.DEADLINE_CONFLICT_STEP == 0
                        and time.monotonic() >= deadline):
                    self._cancel_until(0)
                    return SolveResult(sat=False, unknown=True,
                                       limit="deadline",
                                       stats=self.stats.snapshot())
                if prof:
                    t0 = time.perf_counter()
                learnt, bt_level, used, lbd = self._analyze(confl)
                if prof:
                    st.time_analyze_s += time.perf_counter() - t0
                self._backtrack(bt_level)
                if prof:
                    t0 = time.perf_counter()
                self._record_learnt(learnt, used, lbd)
                if prof:
                    st.time_analyze_s += time.perf_counter() - t0
                self._decay_activities()
                confl = -1
                continue
            # No conflict: restart / reduce / decide.
            if conflicts_here >= conflicts_budget:
                restart_n += 1
                conflicts_budget = luby(restart_n) * 100
                conflicts_here = 0
                self.stats.restarts += 1
                self._backtrack(0)
                if prof:
                    t0 = time.perf_counter()
                self._simplify_learned()
                if prof:
                    st.time_simplify_s += time.perf_counter() - t0
                continue
            if len(self._learned_ids) > self._max_learnts + len(self._trail):
                if prof:
                    t0 = time.perf_counter()
                self._reduce_db()
                if prof:
                    st.time_reduce_s += time.perf_counter() - t0
            # Assumption decisions come first, in order.
            if prof:
                t0 = time.perf_counter()
            lvl = len(self._trail_lim)
            if lvl < len(iassumps):
                p = iassumps[lvl]
                v = vals[p]
                if v == _FALSE:
                    self._analyze_final(p)
                    return self._result(False)
                self._trail_lim.append(len(self._trail))
                self._assump_levels.append(p)
                # Already satisfied: the empty decision level keeps the
                # index into `iassumps` advancing.
                if v != _TRUE:
                    st.decisions += 1
                    self._enqueue(p, -1)
                if prof:
                    st.time_decide_s += time.perf_counter() - t0
                continue
            p = self._pick_branch()
            if prof:
                st.time_decide_s += time.perf_counter() - t0
            if p == -1:
                return self._result(True)
            self.stats.decisions += 1
            decisions_here += 1
            if (deadline is not None
                    and decisions_here % self.DEADLINE_DECISION_STEP == 0
                    and time.monotonic() >= deadline):
                self._cancel_until(0)
                return SolveResult(sat=False, unknown=True,
                                   limit="deadline",
                                   stats=self.stats.snapshot())
            self._trail_lim.append(len(self._trail))
            self._assump_levels.append(0)
            self._enqueue(p, -1)

    def model_value(self, lit: int) -> bool:
        """Truth value of ``lit`` in the model of the last SAT answer.

        Variables the search never assigned (possible for variables created
        but not constrained) read as False.
        """
        return self._vals[_to_internal(lit)] == _TRUE

    def model(self) -> dict[int, bool]:
        """Full model as ``{var: bool}`` for all assigned variables."""
        out = {}
        vals = self._vals
        for var in range(1, self.num_vars + 1):
            a = vals[var << 1]
            if a != UNASSIGNED:
                out[var] = a == _TRUE
        return out

    def core_clause_ids(self) -> frozenset[int]:
        """Ids of *original* clauses in the last UNSAT answer's core.

        Requires ``proof=True``; raises if no UNSAT answer is pending.
        """
        if not self.proof_logging:
            raise RuntimeError("solver was created with proof logging disabled")
        if self._unsat_core_cids is None:
            raise RuntimeError("no unsat core available (last solve was SAT?)")
        return self._unsat_core_cids

    def core_labels(self) -> set[Hashable]:
        """Provenance labels of the core clauses (:meth:`clause_label`
        of each core clause id).

        Unlabelled (``None``) clauses contribute nothing here and are
        counted by :meth:`core_unlabeled_count` instead, so a consumer
        that needs the label set to be *exhaustive* can tell a
        fully-attributed core from one with anonymous clauses.
        """
        labels = {self.clause_label(cid) for cid in self.core_clause_ids()}
        labels.discard(None)
        return labels

    def core_unlabeled_count(self) -> int:
        """Number of clauses in the last UNSAT core carrying no label.

        ``core_labels`` silently skips ``None``-labelled clauses, so a
        core made entirely of unlabelled clauses is indistinguishable
        from an empty label set; callers that treat the labels as an
        exhaustive provenance record (proof-based abstraction) check
        this count instead of assuming it is zero.
        """
        return sum(1 for cid in self.core_clause_ids()
                   if self.clause_label(cid) is None)

    def clause_label(self, cid: int) -> Hashable:
        """Stored label of clause ``cid``, or None.

        None for learned clauses, for originals added without a label and
        for ids no clause has.  Labels are stored per run of consecutive
        clauses with equal labels, so a clause reads back the label of
        the first clause of its run: equal to the one it was added with,
        not always the same object.
        """
        if not 0 <= cid < len(self._clauses):
            return None
        return self._label_vals[bisect.bisect_right(self._label_starts, cid) - 1]

    def failed_assumptions(self) -> tuple[int, ...]:
        """Assumptions involved in the last UNSAT answer (external lits)."""
        return self._last_failed

    # -- proof-trace introspection (for repro.sat.proofcheck) ----------

    def derivation(self, cid: int) -> Optional[tuple[int, ...]]:
        """Antecedent clause ids of a learned clause (None for originals).

        The antecedents are the clauses the 1UIP resolution walked through,
        plus the level-0 unit chains behind eliminated literals; together
        they imply the learned clause by unit propagation.  Root-level
        shrinking extends a clause's antecedents with the unit chains of
        the literals it removed, so the (stronger) stored clause remains
        derivable from its recorded antecedents.
        """
        return self._derivations.get(cid)

    def learned_clause_ids(self) -> list[int]:
        """All learned clause ids in derivation order."""
        return sorted(self._derivations)

    def proof_clause_literals(self, cid: int) -> tuple[int, ...]:
        """External literals of any clause in the proof trace.

        Works for live clauses and for learned clauses deleted by clause-
        database reduction (their literals are retained in proof mode).
        Original clauses return their *stored* form — already simplified
        against the level-0 assignments present when they were added (the
        removed literals' unit chains appear as derivation dependencies).
        """
        lits = self._clauses[cid]
        if lits is None:
            stash = self._proof_lits.get(cid)
            if stash is None:
                raise KeyError(f"clause {cid} deleted and not retained "
                               "(was proof logging enabled?)")
            lits = stash
        return tuple(_to_external(lt) for lt in lits)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _result(self, sat: bool) -> SolveResult:
        return SolveResult(sat=sat, failed_assumptions=self._last_failed,
                           stats=self.stats.snapshot())

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _attach(self, cid: int) -> None:
        # watches[L] holds the clauses currently watching literal L; they
        # are revisited when L becomes false.  2-literal clauses go to the
        # binary implication lists, longer clauses carry a blocker literal
        # in the watch entry.
        lits = self._clauses[cid]
        assert lits is not None and len(lits) >= 2
        l0 = lits[0]
        l1 = lits[1]
        if len(lits) == 2:
            self._bin_watches[l0].append((cid, l1))
            self._bin_watches[l1].append((cid, l0))
        else:
            w = self._watches[l0]
            w.append(cid)
            w.append(l1)
            w = self._watches[l1]
            w.append(cid)
            w.append(l0)

    def _enqueue(self, ilit: int, reason: int) -> bool:
        vals = self._vals
        v = vals[ilit]
        if v != UNASSIGNED:
            return v == _TRUE
        vals[ilit] = _TRUE
        vals[ilit ^ 1] = _FALSE
        var = ilit >> 1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(ilit)
        return True

    def _enqueue_root(self, ilit: int, reason: int) -> None:
        """Assert an unassigned literal as a permanent level-0 fact.

        Above decision level 0 the literal lands above ``trail_lim[0]``
        (chronological backtracking for root literals only): the current
        levels stay, and :meth:`_cancel_until` keeps the literal and
        re-queues it for propagation at whatever level remains.
        """
        self._vals[ilit] = _TRUE
        self._vals[ilit ^ 1] = _FALSE
        var = ilit >> 1
        self._levels[var] = 0
        self._reasons[var] = reason
        self._trail.append(ilit)

    def _place_under_trail(self, cid: int) -> bool:
        """Attach a new clause against a kept trail (decision level > 0).

        For a clause with fewer than two literals that are not false
        (:meth:`add_clause` watches the others directly).  Exactly one:
        assert it with ``cid`` as its reason at the level the clause
        implies it.  None: backtrack to the clause's second-highest level
        first.  A lone literal is a root fact.  Leaves the new
        assignments queued for the next solve's propagation.  Returns
        False when placement had to cancel to level 0, where the
        caller's level-0 path takes over.
        """
        lits = self._clauses[cid]
        vals = self._vals
        levels = self._levels
        if len(lits) == 1:
            u = lits[0]
            v = vals[u]
            if v == _TRUE:
                # Promote in place: the literal becomes a root fact.
                levels[u >> 1] = 0
                self._reasons[u >> 1] = cid
                return True
            if v == _FALSE:
                self._cancel_until(levels[u >> 1] - 1)
                if not self._trail_lim:
                    return False
            self._enqueue_root(u, cid)
            return True
        # At most one literal is not false: order it first, then the
        # false ones by decreasing level.
        top = len(self._trail_lim) + 1

        def rank(lt: int) -> int:
            if vals[lt] != _FALSE:
                return top
            return levels[lt >> 1]

        lits.sort(key=rank, reverse=True)
        r0 = rank(lits[0])
        r1 = rank(lits[1])
        if r0 != top:
            # All false: free the highest level (two literals if tied).
            self._cancel_until(r0 - 1 if r0 == r1 else r1)
            if not self._trail_lim:
                return False
            if r0 == r1:
                self._attach(cid)
                return True
        # lits[0] is the only literal not false; the rest imply it at r1.
        u = lits[0]
        if vals[u] == _TRUE and levels[u >> 1] <= r1:
            self._attach(cid)
            return True
        self._cancel_until(r1)
        self._attach(cid)
        self._enqueue(u, cid)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause id or -1.

        Binary implication lists first, then blocker-checked long clauses.
        """
        if _kernel is not None:
            confl, self._qhead, nprops = _kernel.propagate(
                self._prop_ctx, self._qhead, len(self._trail_lim))
            self.stats.propagations += nprops
            return confl
        trail = self._trail
        clauses = self._clauses
        vals = self._vals
        watches = self._watches
        bins = self._bin_watches
        levels = self._levels
        reasons = self._reasons
        qhead = self._qhead
        lvl = len(self._trail_lim)
        nprops = 0
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            nprops += 1
            false_lit = p ^ 1
            # Binary implications: no clause-object access at all.
            for cid, other in bins[false_lit]:
                a = vals[other]
                if a == UNASSIGNED:
                    vals[other] = _TRUE
                    vals[other ^ 1] = _FALSE
                    var = other >> 1
                    levels[var] = lvl
                    reasons[var] = cid
                    trail.append(other)
                elif a == _FALSE:
                    self._qhead = len(trail)
                    self.stats.propagations += nprops
                    return cid
            # Long clauses: ``cid, blocker`` slot pairs, compacted in
            # place (j trails i) as watches move to other literals.
            wl = watches[false_lit]
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                cid = wl[i]
                blocker = wl[i + 1]
                i += 2
                if vals[blocker] == _TRUE:
                    # Satisfied via the blocker: keep the watch untouched.
                    wl[j] = cid
                    wl[j + 1] = blocker
                    j += 2
                    continue
                lits = clauses[cid]
                if lits is None:
                    continue  # deleted clause; watcher dropped
                first = lits[0]
                if first == false_lit:
                    # Swap the stored objects: false_lit is a new int.
                    first = lits[1]
                    lits[1] = lits[0]
                    lits[0] = first
                a0 = vals[first]
                if a0 == _TRUE:
                    wl[j] = cid
                    wl[j + 1] = first
                    j += 2
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if vals[lk] != _FALSE:
                        lits[k] = lits[1]
                        lits[1] = lk
                        w = watches[lk]
                        w.append(cid)
                        w.append(first)
                        break
                else:
                    wl[j] = cid
                    wl[j + 1] = first
                    j += 2
                    if a0 == UNASSIGNED:
                        vals[first] = _TRUE
                        vals[first ^ 1] = _FALSE
                        var = first >> 1
                        levels[var] = lvl
                        reasons[var] = cid
                        trail.append(first)
                    else:
                        # Conflict: keep remaining watchers, stop.
                        del wl[j:i]
                        self._qhead = len(trail)
                        self.stats.propagations += nprops
                        return cid
            del wl[j:]
        self._qhead = qhead
        self.stats.propagations += nprops
        return -1

    def _analyze(self, confl: int) -> tuple[list[int], int, list[int], int]:
        """First-UIP conflict analysis.

        Returns (learned clause literals, backtrack level, antecedent
        cids, glue).  The antecedents include the level-0 unit chains
        behind eliminated literals so that the recorded derivation is
        self-contained.  Glue (LBD — the number of distinct decision
        levels in the learned clause) is computed here, while every
        literal is still assigned.
        """
        if _kernel is not None:
            learnt, bt, used, lbd, bumps, self._var_inc = _kernel.analyze(
                self._analyze_ctx, confl, len(self._trail_lim),
                self._var_inc, self.proof_logging)
            # Clause activities are independent of the variable
            # activities the kernel bumped, so bumping them after the
            # walk gives the same values.
            for cid in bumps:
                self._bump_clause(cid)
            return learnt, bt, used, lbd
        seen = self._seen
        learnt: list[int] = [0]  # slot 0 reserved for the asserting literal
        used: list[int] = [confl]
        path_count = 0
        p = -1
        index = len(self._trail)
        level = self._decision_level()
        cleanup: list[int] = []
        reason_cid = confl
        proof = self.proof_logging
        while True:
            lits = self._clauses[reason_cid]
            assert lits is not None
            if reason_cid in self._clause_act:
                self._bump_clause(reason_cid)
            start = 0 if p == -1 else 1
            for q in lits[start:]:
                v = q >> 1
                if not seen[v]:
                    if self._levels[v] > 0:
                        seen[v] = True
                        cleanup.append(v)
                        self._bump_var(v)
                        if self._levels[v] >= level:
                            path_count += 1
                        else:
                            learnt.append(q)
                    elif proof:
                        used.extend(self._explain_level0(v))
            while True:
                index -= 1
                p = self._trail[index]
                if seen[p >> 1]:
                    break
            path_count -= 1
            seen[p >> 1] = False
            if path_count == 0:
                break
            reason_cid = self._reasons[p >> 1]
            assert reason_cid != -1
            used.append(reason_cid)
            rl = self._clauses[reason_cid]
            assert rl is not None
            if rl[0] != p:
                idx = rl.index(p)
                rl[0], rl[idx] = rl[idx], rl[0]
        learnt[0] = p ^ 1
        # Recursive minimization (self-subsumption through reasons).
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if self._redundant(q, seen, used, cleanup):
                continue
            minimized.append(q)
        learnt = minimized
        for v in cleanup:
            seen[v] = False
        lbd = 0
        if len(learnt) > 1:
            levels = self._levels
            lbd = len({levels[q >> 1] for q in learnt})
        if len(learnt) == 1:
            # The unit is asserted at the root without cancelling the
            # levels below the conflict (see _enqueue_root).
            bt = level - 1
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self._levels[learnt[i] >> 1] > self._levels[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = self._levels[learnt[1] >> 1]
        return learnt, bt, used, lbd

    def _redundant(self, ilit: int, seen: bytearray, used: list[int],
                   cleanup: list[int]) -> bool:
        """True if ``ilit`` is implied by other marked literals."""
        if self._reasons[ilit >> 1] == -1:
            return False
        stack = [ilit]
        local_used: list[int] = []
        newly_seen: list[int] = []
        proof = self.proof_logging
        while stack:
            lt = stack.pop()
            r = self._reasons[lt >> 1]
            if r == -1:
                for v in newly_seen:
                    seen[v] = False
                return False
            lits = self._clauses[r]
            assert lits is not None
            local_used.append(r)
            for q in lits:
                v = q >> 1
                if v == lt >> 1:
                    continue
                if seen[v]:
                    continue
                if self._levels[v] == 0:
                    if proof:
                        local_used.extend(self._explain_level0(v))
                    continue
                if self._reasons[v] == -1:
                    for w in newly_seen:
                        seen[w] = False
                    return False
                seen[v] = True
                newly_seen.append(v)
                stack.append(q)
        used.extend(local_used)
        cleanup.extend(newly_seen)
        return True

    def _record_learnt(self, learnt: list[int], used: list[int],
                       lbd: int) -> None:
        cid = len(self._clauses)
        # Both analyze paths return a fresh list the solver alone owns
        # (the kernel's is created untracked).  Its literals come from
        # clauses already stored, but for the asserting one.
        learnt[0] = self._lit_objs[learnt[0]]
        self._clauses.append(learnt)
        self._note_label(cid, None)
        self.stats.learned += 1
        if self.proof_logging:
            self._derivations[cid] = tuple(set(used))
        if len(learnt) == 1:
            if self._vals[learnt[0]] != UNASSIGNED:
                raise AssertionError("asserting unit conflicts after backtrack")
            self._enqueue_root(learnt[0], cid)
        else:
            self._learned_ids.append(cid)
            self._clause_act[cid] = self._cla_inc
            self._clause_lbd[cid] = lbd
            self._attach(cid)
            self._enqueue(learnt[0], cid)

    def _explain_level0(self, var: int) -> tuple[int, ...]:
        """All clause ids whose units explain the level-0 value of ``var``.

        Memoized; level-0 assignments are permanent so the closure never
        changes once computed.
        """
        memo = self._l0_memo
        got = memo.get(var)
        if got is not None:
            return got
        result: set[int] = set()
        stack = [var]
        visited: set[int] = set()
        while stack:
            v = stack.pop()
            if v in visited:
                continue
            visited.add(v)
            cached = memo.get(v)
            if cached is not None:
                result.update(cached)
                continue
            r = self._reasons[v]
            if r == -1:
                continue
            result.add(r)
            lits = self._clauses[r]
            if lits:
                for q in lits:
                    if q >> 1 != v:
                        stack.append(q >> 1)
        out = tuple(result)
        memo[var] = out
        return out

    def _conflict_core_at_level0(self, confl_cid: int) -> frozenset[int]:
        """Expand a level-0 conflict into original clause ids."""
        if not self.proof_logging:
            return frozenset()
        cids: set[int] = {confl_cid}
        lits = self._clauses[confl_cid]
        if lits:
            for q in lits:
                cids.update(self._explain_level0(q >> 1))
        return self._expand_to_originals(cids)

    def _analyze_final(self, p: int) -> None:
        """Assumption ``p`` is falsified: build failed set and core.

        Walks the implication graph behind ``p`` back to its decisions.
        Level-0 variables are never decisions and their reasons lead
        only to other level-0 variables, so without proof logging (no
        core to collect) the walk skips them.
        """
        if _kernel is not None:
            failed, cids = _kernel.analyze_final(self._final_ctx, p,
                                                 self.proof_logging)
        else:
            failed, cids = self._final_walk(p)
        self._last_failed = tuple(sorted(_to_external(lt) for lt in failed))
        if self.proof_logging:
            self._unsat_core_cids = self._expand_to_originals(cids)

    def _final_walk(self, p: int) -> tuple[set[int], set[int]]:
        """The walk of :meth:`_analyze_final` (the kernel's
        ``analyze_final``): the failed internal literals and the reason
        cids met on the way."""
        failed_internal = {p}
        cids: set[int] = set()
        seen_vars: set[int] = {p >> 1}
        stack = [p >> 1]
        reasons = self._reasons
        levels = self._levels
        clauses = self._clauses
        min_level = 0 if self.proof_logging else 1
        while stack:
            v = stack.pop()
            r = reasons[v]
            if r == -1:
                if levels[v] > 0:
                    # A decision: under assumption-first search this is an
                    # assumption literal (the value actually decided).
                    lit = v << 1 | (0 if self._vals[v << 1] == _TRUE else 1)
                    failed_internal.add(lit)
                continue
            cids.add(r)
            lits = clauses[r]
            assert lits is not None
            for q in lits:
                w = q >> 1
                if w not in seen_vars:
                    seen_vars.add(w)
                    if levels[w] >= min_level:
                        stack.append(w)
        return failed_internal, cids

    def _expand_to_originals(self, cids: set[int]) -> frozenset[int]:
        out: set[int] = set()
        stack = list(cids)
        visited: set[int] = set()
        simplify_deps = self._simplify_deps
        while stack:
            cid = stack.pop()
            if cid in visited or cid < 0:
                continue
            visited.add(cid)
            deriv = self._derivations.get(cid)
            if deriv is None:
                out.add(cid)  # original clause
                extra = simplify_deps.get(cid)
                if extra:
                    stack.extend(extra)
            else:
                stack.extend(deriv)
        return frozenset(out)

    def _mark_broken(self, core: frozenset[int]) -> None:
        self._broken = True
        if self.proof_logging:
            self._unsat_core_cids = core

    def _backtrack(self, level: int) -> None:
        """:meth:`_cancel_until`, timed as ``backtrack`` under profile."""
        if self.profile:
            t0 = time.perf_counter()
            self._cancel_until(level)
            self.stats.time_backtrack_s += time.perf_counter() - t0
        else:
            self._cancel_until(level)

    def _cancel_until(self, level: int) -> None:
        """Backtrack to ``level``.

        Root literals asserted above ``trail_lim[0]`` survive: they are
        moved down to the end of the kept trail and re-queued, since the
        implications they had at the cancelled levels are gone.
        """
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        if _kernel is not None:
            _kernel.unassign(self._unassign_ctx, bound)
        else:
            self._unassign(bound)
        del self._trail_lim[level:]
        del self._assump_levels[level:]
        if self._qhead > bound:
            self._qhead = bound

    def _unassign(self, bound: int) -> None:
        """Unassign the trail above ``bound`` (the kernel's ``unassign``)."""
        trail = self._trail
        vals = self._vals
        saved = self._saved_phase
        reasons = self._reasons
        levels = self._levels
        heap = self._heap
        pos = self._heap_pos
        act = self._activity
        kept: list[int] = []
        for i in range(len(trail) - 1, bound - 1, -1):
            ilit = trail[i]
            var = ilit >> 1
            if levels[var] == 0:
                kept.append(ilit)
                continue
            saved[var] = ilit & 1
            vals[ilit] = UNASSIGNED
            vals[ilit ^ 1] = UNASSIGNED
            reasons[var] = -1
            if pos[var] == -1:
                # Re-insert into the order heap: append, sift up.
                a = act[var]
                j = len(heap)
                heap.append(var)
                while j > 0:
                    parent = (j - 1) >> 1
                    pv = heap[parent]
                    if act[pv] >= a:
                        break
                    heap[j] = pv
                    pos[pv] = j
                    j = parent
                heap[j] = var
                pos[var] = j
        del trail[bound:]
        kept.reverse()
        trail.extend(kept)

    def _simplify_learned(self) -> None:
        """Shrink learned clauses against permanent level-0 assignments.

        Runs only at decision level 0 with propagation at fixpoint (solve
        entry and restarts).  Learned clauses satisfied at the
        root are deleted (unless they are the reason of a level-0 literal
        — their unit chains stay valid); false-at-root literals are
        removed, with the removed literals' level-0 unit chains appended
        to the clause's derivation so RUP proof checking and core
        expansion remain sound against the stronger stored clause.
        """
        fixed = len(self._trail)
        if fixed == self._simplified_fixed:
            return
        self._simplified_fixed = fixed
        vals = self._vals
        proof = self.proof_logging
        locked = {self._reasons[lt >> 1] for lt in self._trail}
        keep: list[int] = []
        for cid in self._learned_ids:
            lits = self._clauses[cid]
            if lits is None:
                continue
            if len(lits) == 2 or cid in locked:
                keep.append(cid)
                continue
            sat = False
            nfalse = 0
            for lt in lits:
                a = vals[lt]
                if a == UNASSIGNED:
                    continue
                if a == _TRUE:
                    sat = True
                    break
                nfalse += 1
            if sat:
                if proof:
                    self._proof_lits[cid] = tuple(lits)
                self._clauses[cid] = None  # watcher entries dropped lazily
                self._clause_act.pop(cid, None)
                self._clause_lbd.pop(cid, None)
                self.stats.deleted += 1
                continue
            if nfalse:
                # Watched positions (0, 1) cannot be root-false in an
                # unsatisfied clause after level-0 propagation; guard
                # anyway and leave such a clause untouched.
                if (vals[lits[0]] != UNASSIGNED
                        or vals[lits[1]] != UNASSIGNED):
                    keep.append(cid)
                    continue
                deps: list[int] = []
                new: list[int] = []
                for lt in lits:
                    if vals[lt] == _FALSE:
                        if proof:
                            deps.extend(self._explain_level0(lt >> 1))
                        continue
                    new.append(lt)
                lits[:] = new
                if proof and deps:
                    self._derivations[cid] = tuple(
                        set(self._derivations[cid]) | set(deps))
                self.stats.shrunk_clauses += 1
                self.stats.shrunk_lits += nfalse
            keep.append(cid)
        self._learned_ids = keep

    # -- heuristics ----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        act = self._activity
        act[var] += self._var_inc
        if act[var] > 1e100:
            for v in range(1, len(act)):
                act[v] *= 1e-100
            self._var_inc *= 1e-100
        i = self._heap_pos[var]
        if i == -1:
            return
        # Sift up to the variable's new rank.
        heap = self._heap
        pos = self._heap_pos
        a = act[var]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _bump_clause(self, cid: int) -> None:
        act = self._clause_act.get(cid)
        if act is None:
            return
        act += self._cla_inc
        self._clause_act[cid] = act
        if act > 1e20:
            for c in self._clause_act:
                self._clause_act[c] *= 1e-20
            self._cla_inc *= 1e-20
        # Glucose-style dynamic glue: a clause used in analysis has all
        # literals assigned, so its current LBD is well defined — keep
        # the minimum seen.  Also marks the clause "used" for the tier-2
        # protection window in _reduce_db.
        self._clause_used.add(cid)
        old = self._clause_lbd.get(cid)
        if old is not None and old > self.LBD_CORE:
            lits = self._clauses[cid]
            levels = self._levels
            nl = len({levels[q >> 1] for q in lits})
            if nl < old:
                self._clause_lbd[cid] = nl

    def _decay_activities(self) -> None:
        self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay

    def _pick_branch(self) -> int:
        """Pop the most active unassigned variable; -1 when none is left.

        The decision literal takes the variable's saved phase.
        """
        if _kernel is not None:
            return _kernel.pick(self._pick_ctx)
        heap = self._heap
        pos = self._heap_pos
        act = self._activity
        vals = self._vals
        while heap:
            var = heap[0]
            pos[var] = -1
            last = heap.pop()
            n = len(heap)
            if n:
                # Sift ``last`` down from the root.
                a = act[last]
                i = 0
                while True:
                    child = 2 * i + 1
                    if child >= n:
                        break
                    right = child + 1
                    if right < n and act[heap[right]] > act[heap[child]]:
                        child = right
                    cv = heap[child]
                    if a >= act[cv]:
                        break
                    heap[i] = cv
                    pos[cv] = i
                    i = child
                heap[i] = last
                pos[last] = i
            if vals[var << 1] == UNASSIGNED:
                return self._lit_objs[var << 1 | self._saved_phase[var]]
        return -1

    def _reduce_db(self) -> None:
        """Trim the learned-clause database, tiered by glue.

        "Core" clauses (glue <= LBD_CORE) and binaries are pinned
        forever, "tier2" clauses (glue <= LBD_TIER2) survive the round
        when used in an analysis since the last reduction, and the
        remaining "local" tier is halved worst-first (highest glue, then
        lowest activity).  In proof mode the deleted clauses' literals
        are kept for the proof checker: later derivations may cite them.
        """
        self._max_learnts *= self._learnt_growth
        locked = {self._reasons[lt >> 1] for lt in self._trail}
        lbd = self._clause_lbd
        used = self._clause_used
        act = self._clause_act
        worst = 1 << 30
        keep: list[int] = []
        cands: list[int] = []
        for cid in self._learned_ids:
            lits = self._clauses[cid]
            if lits is None:
                continue
            glue = lbd.get(cid, worst)
            if len(lits) <= 2 or cid in locked or glue <= self.LBD_CORE:
                keep.append(cid)
                continue
            if glue <= self.LBD_TIER2 and cid in used:
                keep.append(cid)
                continue
            cands.append(cid)
        cands.sort(key=lambda c: (-lbd.get(c, worst), act.get(c, 0.0)))
        ndel = len(cands) // 2
        proof = self.proof_logging
        for cid in cands[:ndel]:
            lits = self._clauses[cid]
            if proof:
                self._proof_lits[cid] = tuple(lits)
            self._clauses[cid] = None  # watcher entries dropped lazily
            act.pop(cid, None)
            lbd.pop(cid, None)
            self.stats.deleted += 1
        keep.extend(cands[ndel:])
        used.clear()
        self._learned_ids = keep
