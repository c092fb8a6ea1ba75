"""Vectorized batch simulation: many stimulus vectors per pass on NumPy.

The scalar :class:`repro.sim.simulator.Simulator` interprets the
expression DAG node by node for one trial at a time; that interpreter is
the bottleneck of every differential test, of counterexample shrinking
and of the service layer's regression traffic.  This module evaluates a
:class:`repro.design.Design` over a *batch* of stimulus vectors
simultaneously (in the style of RTLDesignSherpa's NumPy ``MemoryModel``
golden reference): every expression node becomes one ``uint64`` array
with one lane per trial, the design is compiled **once** into a
topologically-ordered evaluation plan of word-level array ops with
explicit width masking, and the per-cycle hot loop is a flat sweep over
that plan — no expression-tree recursion, no per-node dict dispatch.

Memory contents are dense ``(batch, 2**AW)`` arrays; write ports apply
enable-masked word updates in port order, so the highest port index wins
exactly as in the scalar simulator and the EMM priority chain.  Read
ports gather per-lane words and force 0 when the read enable is low,
matching the EMM discipline.

NumPy is an *optional* dependency: :func:`have_numpy` reports
availability and every consumer (oracle layer, shrinker, fuzz farm)
falls back to the scalar simulator when it is missing.  It is imported
on the first :func:`have_numpy` call, not with this module, so the
BMC path (which only ever replays on the scalar simulator) never
pays for loading it.
"""

from __future__ import annotations

import weakref
from typing import Mapping, Optional, Sequence

from repro.design.netlist import Design, Expr
from repro.sim.trace import Trace

#: Word widths the uint64 lanes can hold.
MAX_WIDTH = 64

#: The numpy module once :func:`have_numpy` has loaded it; None before
#: the first call and on numpy-free installs.
np = None
_numpy_probed = False


def have_numpy() -> bool:
    """True when the vectorized path is available.

    The first call imports numpy; the outcome, a failure included, is
    kept, so the import is attempted once per process.
    """
    global np, _numpy_probed
    if not _numpy_probed:
        try:
            import numpy
        except ImportError:
            numpy = None
        # Set only after the attempt, so no concurrent caller can read
        # "probed" while numpy is still being imported.
        np, _numpy_probed = numpy, True
    return np is not None


def _require_numpy() -> None:
    if not have_numpy():
        raise RuntimeError(
            "VectorSimulator requires numpy; install numpy or use the "
            "scalar repro.sim.Simulator")


def _lane_int(arr, lane: int) -> int:
    """One lane of a (possibly 0-d broadcast) value array, as python int."""
    if arr.ndim == 0:
        return int(arr)
    return int(arr[lane])


class BatchTrace:
    """A recorded multi-cycle execution of a whole batch.

    The vector analogue of :class:`repro.sim.trace.Trace`: each entry of
    :attr:`cycles` maps group names (``inputs``/``latches``/``props``/
    ``watch``) to dicts of per-lane value arrays.  Scalar ``Trace``
    objects for individual lanes come from :meth:`lane` (or the
    ``Trace.from_batch`` constructor, which delegates here).
    """

    def __init__(self, design_name: str, batch: int) -> None:
        self.design_name = design_name
        self.batch = batch
        self.cycles: list[dict] = []
        #: Per-lane initial contents, mirroring ``Trace.init_*`` but with
        #: array values: ``{latch: array}`` / ``{mem: {addr: array}}``.
        self.init_latches: dict = {}
        self.init_memories: dict = {}

    def __len__(self) -> int:
        return len(self.cycles)

    def value(self, group: str, name: str, cycle: int):
        """The per-lane value array of one signal in one cycle."""
        return self.cycles[cycle][group][name]

    def lane(self, lane: int) -> Trace:
        """Extract one lane as a scalar :class:`Trace` (plain ints)."""
        if not 0 <= lane < self.batch:
            raise IndexError(f"lane {lane} out of range for batch {self.batch}")
        t = Trace(design_name=self.design_name)
        t.init_latches = {n: _lane_int(a, lane)
                          for n, a in self.init_latches.items()}
        t.init_memories = {m: {addr: _lane_int(a, lane)
                               for addr, a in words.items()}
                           for m, words in self.init_memories.items()}
        for cyc in self.cycles:
            t.cycles.append({group: {n: _lane_int(a, lane)
                                     for n, a in vals.items()}
                             for group, vals in cyc.items()})
        return t

    def lanes(self) -> list[Trace]:
        """All lanes as scalar :class:`Trace` objects.

        Much faster than ``[bt.lane(i) for i in range(batch)]``: every
        value array is converted to a python list **once** (one C-level
        ``tolist`` per signal instead of one numpy scalar indexing per
        signal *per lane*), so extraction stays a small fraction of the
        sweep cost even at large batches.
        """
        batch = self.batch

        def as_list(arr):
            if arr.ndim == 0:
                return [int(arr)] * batch
            return arr.tolist()

        init_l = {n: as_list(a) for n, a in self.init_latches.items()}
        init_m = {m: {addr: as_list(a) for addr, a in words.items()}
                  for m, words in self.init_memories.items()}
        cyc_lists = [{group: {n: as_list(a) for n, a in vals.items()}
                      for group, vals in cyc.items()}
                     for cyc in self.cycles]
        out = []
        for i in range(batch):
            t = Trace(design_name=self.design_name)
            t.init_latches = {n: v[i] for n, v in init_l.items()}
            t.init_memories = {m: {addr: v[i] for addr, v in words.items()}
                               for m, words in init_m.items()}
            t.cycles = [{group: {n: v[i] for n, v in vals.items()}
                         for group, vals in cyc.items()}
                        for cyc in cyc_lists]
            out.append(t)
        return out

    def prop_matrix(self, name: str):
        """Property values as a ``(cycles, batch)`` array."""
        _require_numpy()  # a hand-built BatchTrace may come before any sim
        return np.stack([np.broadcast_to(c["props"][name], (self.batch,))
                         for c in self.cycles])

    def first_cycle_where(self, name: str, value: int) -> list[Optional[int]]:
        """Per lane: first cycle where property ``name`` equals ``value``.

        This is the batched failure oracle: for an invariant pass
        ``value=0``, for a reach target ``value=1``; ``None`` lanes never
        hit.
        """
        if not self.cycles:
            return [None] * self.batch
        hits = self.prop_matrix(name) == np.uint64(value)
        any_hit = hits.any(axis=0)
        first = hits.argmax(axis=0)
        return [int(first[i]) if any_hit[i] else None
                for i in range(self.batch)]


# -- compiled evaluation plans ---------------------------------------------

#: Plans are cached per design (weakly, so designs stay collectable),
#: sub-keyed on the watched expressions: compile once, simulate many.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Design, dict]" = \
    weakref.WeakKeyDictionary()


def _plan_for(design: Design, watch: Mapping[str, Expr]) -> "_CompiledPlan":
    watch = dict(watch or {})
    key = tuple(sorted((n, e._id) for n, e in watch.items()))
    per_design = _PLAN_CACHE.setdefault(design, {})
    plan = per_design.get(key)
    if plan is None:
        plan = _CompiledPlan(design, watch)
        per_design[key] = plan
    return plan


def _mask_of(width: int):
    return np.uint64((1 << width) - 1)


def _op_not(s, a, m):
    def step(values, sim):
        values[s] = ~values[a] & m
    return step


def _op_slice(s, a, lo, m):
    def step(values, sim):
        values[s] = (values[a] >> lo) & m
    return step


def _op_alias(s, a):
    def step(values, sim):
        values[s] = values[a]
    return step


def _op_mux(s, sel, t, e):
    def step(values, sim):
        values[s] = np.where(values[sel] != 0, values[t], values[e])
    return step


def _op_concat(s, lo, hi, shift):
    def step(values, sim):
        values[s] = values[lo] | (values[hi] << shift)
    return step


def _op_and(s, a, b):
    def step(values, sim):
        values[s] = values[a] & values[b]
    return step


def _op_or(s, a, b):
    def step(values, sim):
        values[s] = values[a] | values[b]
    return step


def _op_xor(s, a, b):
    def step(values, sim):
        values[s] = values[a] ^ values[b]
    return step


def _op_add(s, a, b, m):
    def step(values, sim):
        values[s] = (values[a] + values[b]) & m
    return step


def _op_sub(s, a, b, m):
    def step(values, sim):
        values[s] = (values[a] - values[b]) & m
    return step


def _op_eq(s, a, b):
    def step(values, sim):
        values[s] = (values[a] == values[b]).astype(np.uint64)
    return step


def _op_ult(s, a, b):
    def step(values, sim):
        values[s] = (values[a] < values[b]).astype(np.uint64)
    return step


def _op_memread(s, a, e, mem_name):
    zero = np.uint64(0)

    def step(values, sim):
        data = sim.mems[mem_name][sim._lanes, values[a]]
        values[s] = np.where(values[e] != 0, data, zero)
    return step


class _CompiledPlan:
    """A design compiled to a topologically-ordered array program.

    Every expression node reachable from the latch next-state functions,
    the memory port wiring, the properties and the watched expressions
    gets one *slot*; :attr:`steps` is the flat list of per-node closures
    that fills the computed slots in dependency order.  Memory-read
    nodes depend on their port's address/enable cones, so chained reads
    (port B addressed by port A's data) interleave correctly — the same
    order :meth:`Design.port_evaluation_order` validates.
    """

    def __init__(self, design: Design, watch: Mapping[str, Expr]) -> None:
        self.design = design
        ports = {(m.name, p.index): p for m in design.memories.values()
                 for p in m.read_ports}

        roots: list[Expr] = [latch.next for latch in design.latches.values()]
        for mem in design.memories.values():
            for p in mem.write_ports:
                roots += [p.addr, p.en, p.data]
        roots += [prop.expr for prop in design.properties.values()]
        roots += list(watch.values())

        def deps(e: Expr) -> tuple:
            if e.kind == "memread":
                p = ports[e.payload]
                return (p.addr, p.en)
            return e.args

        order: list[Expr] = []
        seen: set[int] = set()
        for root in roots:
            stack = [root]
            while stack:
                e = stack[-1]
                if e._id in seen:
                    stack.pop()
                    continue
                pending = [a for a in deps(e) if a._id not in seen]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                seen.add(e._id)
                order.append(e)

        slots = {e._id: i for i, e in enumerate(order)}
        self.nslots = len(order)
        self.const_init: list[tuple[int, object]] = []
        self.input_slots: dict[str, int] = {}
        self.latch_slots: dict[str, int] = {}
        self.steps: list = []

        for e in order:
            if e.width > MAX_WIDTH:
                raise ValueError(
                    f"expression width {e.width} exceeds the vector "
                    f"simulator's {MAX_WIDTH}-bit lanes; use the scalar "
                    f"Simulator")
            s = slots[e._id]
            k = e.kind
            if k == "const":
                self.const_init.append(
                    (s, np.asarray(e.payload, dtype=np.uint64)))
            elif k == "input":
                self.input_slots[e.payload] = s
            elif k == "latch":
                self.latch_slots[e.payload] = s
            elif k == "memread":
                p = ports[e.payload]
                self.steps.append(_op_memread(
                    s, slots[p.addr._id], slots[p.en._id], e.payload[0]))
            elif k == "not":
                self.steps.append(_op_not(s, slots[e.args[0]._id],
                                          _mask_of(e.width)))
            elif k == "slice":
                lo, _hi = e.payload
                self.steps.append(_op_slice(s, slots[e.args[0]._id], lo,
                                            _mask_of(e.width)))
            elif k == "zext":
                self.steps.append(_op_alias(s, slots[e.args[0]._id]))
            elif k == "mux":
                self.steps.append(_op_mux(s, slots[e.args[0]._id],
                                          slots[e.args[1]._id],
                                          slots[e.args[2]._id]))
            elif k == "concat":
                self.steps.append(_op_concat(s, slots[e.args[0]._id],
                                             slots[e.args[1]._id],
                                             e.args[0].width))
            else:
                a, b = slots[e.args[0]._id], slots[e.args[1]._id]
                if k == "and":
                    self.steps.append(_op_and(s, a, b))
                elif k == "or":
                    self.steps.append(_op_or(s, a, b))
                elif k == "xor":
                    self.steps.append(_op_xor(s, a, b))
                elif k == "add":
                    self.steps.append(_op_add(s, a, b, _mask_of(e.width)))
                elif k == "sub":
                    self.steps.append(_op_sub(s, a, b, _mask_of(e.width)))
                elif k == "eq":
                    self.steps.append(_op_eq(s, a, b))
                elif k == "ult":
                    self.steps.append(_op_ult(s, a, b))
                else:
                    raise ValueError(f"unknown expression kind {k!r}")

        self.next_slots = {name: slots[latch.next._id]
                           for name, latch in design.latches.items()}
        self.wports = [(mem.name, slots[p.addr._id], slots[p.en._id],
                        slots[p.data._id])
                       for mem in design.memories.values()
                       for p in mem.write_ports]
        self.prop_slots = {name: slots[prop.expr._id]
                           for name, prop in design.properties.items()}
        self.watch_slots = {name: slots[e._id] for name, e in watch.items()}


class VectorSimulator:
    """Cycle-accurate simulation of ``batch`` independent trials at once.

    Mirrors the scalar :class:`repro.sim.Simulator` semantics bit for
    bit — memory defaults, read-enable gating, write-port priority,
    pre-state-update property sampling — with every value an array of
    one lane per trial.  ``init_latches`` / ``init_memories`` values may
    be plain ints (applied to every lane) or ``(batch,)`` arrays /
    sequences (per-lane values); the same goes for the per-cycle input
    mappings.

    A batch of 1 degenerates cleanly to the scalar behaviour; the
    compiled plan is cached on the design, so constructing many
    simulators for the same design (the shrinker's pattern) pays for
    compilation once.
    """

    def __init__(self, design: Design, batch: int,
                 init_latches: Optional[Mapping] = None,
                 init_memories: Optional[Mapping] = None,
                 watch: Optional[Mapping[str, Expr]] = None) -> None:
        _require_numpy()
        design.validate()
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.design = design
        self.batch = batch
        self._plan = _plan_for(design, watch or {})
        self._lanes = np.arange(batch)
        self.cycle = 0

        self.latches: dict[str, object] = {}
        init_latches = dict(init_latches or {})
        for latch in design.latches.values():
            if latch.name in init_latches:
                value = init_latches[latch.name]
            elif latch.init is not None:
                value = latch.init
            else:
                value = 0
            self.latches[latch.name] = self._materialize(value, latch.width)

        self.mems: dict[str, object] = {}
        self._init_latches_rec = {
            name: self.latches[name]
            for name, latch in design.latches.items()
            if latch.init is None or name in init_latches
        }
        self._init_memories_rec: dict[str, dict[int, object]] = {}
        init_memories = init_memories or {}
        for mem in design.memories.values():
            default = (mem.init or 0) & ((1 << mem.data_width) - 1)
            arr = np.full((batch, mem.num_words), default, dtype=np.uint64)
            merged: dict[int, object] = dict(mem.init_words)
            for addr, value in dict(init_memories.get(mem.name, {})).items():
                merged[addr & (mem.num_words - 1)] = value
            rec: dict[int, object] = {}
            for addr, value in merged.items():
                word = self._materialize(value, mem.data_width)
                arr[:, addr] = word
                rec[addr] = word
            self.mems[mem.name] = arr
            if rec or mem.init is None:
                self._init_memories_rec[mem.name] = rec

        self._values: list = [None] * self._plan.nslots
        for slot, const in self._plan.const_init:
            self._values[slot] = const
        self._inputs: dict[str, object] = {}

    def _materialize(self, value, width: int):
        """A (batch,)-shaped uint64 array of ``value`` masked to width."""
        mask = (1 << width) - 1
        if isinstance(value, (int,) + ((np.integer,) if np else ())):
            return np.full(self.batch, int(value) & mask, dtype=np.uint64)
        arr = np.asarray(value)
        arr = arr.astype(np.uint64, copy=True) & np.uint64(mask)
        if arr.shape != (self.batch,):
            arr = np.broadcast_to(arr, (self.batch,)).copy()
        return arr

    # -- single-cycle evaluation -----------------------------------------

    def begin_cycle(self, inputs: Optional[Mapping] = None) -> None:
        """Present this cycle's inputs and sweep the evaluation plan."""
        plan = self._plan
        values = self._values
        inputs = inputs or {}
        self._inputs = {}
        for inp in self.design.inputs.values():
            arr = self._materialize(inputs.get(inp.name, 0), inp.width)
            self._inputs[inp.name] = arr
            slot = plan.input_slots.get(inp.name)
            if slot is not None:
                values[slot] = arr
        for name, slot in plan.latch_slots.items():
            values[slot] = self.latches[name]
        with np.errstate(over="ignore"):
            for step in plan.steps:
                step(values, self)

    def values_of_prop(self, name: str):
        """Per-lane property values in the current cycle."""
        return np.broadcast_to(self._values[self._plan.prop_slots[name]],
                               (self.batch,))

    def commit_cycle(self) -> None:
        """Latch next-state values and apply enable-masked memory writes."""
        plan = self._plan
        values = self._values
        batch = self.batch
        next_latches = {
            name: self._materialize(values[slot],
                                    self.design.latches[name].width)
            for name, slot in plan.next_slots.items()
        }
        with np.errstate(over="ignore"):
            for mem_name, a_s, e_s, d_s in plan.wports:
                en = np.broadcast_to(values[e_s], (batch,))
                strobe = en != 0
                if not strobe.any():
                    continue
                addr = np.broadcast_to(values[a_s], (batch,))
                data = np.broadcast_to(values[d_s], (batch,))
                # Later ports run later, so the highest index wins —
                # equation (4)'s priority order.
                self.mems[mem_name][self._lanes[strobe],
                                    addr[strobe]] = data[strobe]
        self.latches = next_latches
        self.cycle += 1

    def step(self, inputs: Optional[Mapping] = None) -> None:
        """Convenience: begin + commit one cycle."""
        self.begin_cycle(inputs)
        self.commit_cycle()

    # -- batched runs -------------------------------------------------------

    def run(self, input_sequence: Sequence[Mapping]) -> BatchTrace:
        """Run a sequence of cycles, recording a :class:`BatchTrace`.

        Properties (and watched expressions given at construction) are
        sampled each cycle *before* the state update, matching the BMC
        frame semantics and the scalar ``Simulator.run``.
        """
        plan = self._plan
        bt = BatchTrace(self.design.name, self.batch)
        bt.init_latches = dict(self._init_latches_rec)
        bt.init_memories = {m: dict(c)
                            for m, c in self._init_memories_rec.items()}
        for inputs in input_sequence:
            self.begin_cycle(inputs)
            values = self._values
            bt.cycles.append({
                "inputs": dict(self._inputs),
                "latches": dict(self.latches),
                "props": {name: values[slot]
                          for name, slot in plan.prop_slots.items()},
                "watch": {name: values[slot]
                          for name, slot in plan.watch_slots.items()},
            })
            self.commit_cycle()
        return bt

    def check_property_at(self, prop_name: str,
                          input_sequence: Sequence[Mapping]) -> list:
        """Per-cycle property value arrays over a run."""
        out = []
        for inputs in input_sequence:
            self.begin_cycle(inputs)
            out.append(self.values_of_prop(prop_name).copy())
            self.commit_cycle()
        return out
