/* Compiled CDCL hot loops for repro.sat.solver.
 *
 * Seven functions, each the same algorithm as the pure-Python loop it
 * stands in for, decision for decision:
 *
 *   propagate(ctx, qhead, level) -> (conflict cid or -1, qhead, props)
 *       Solver._propagate; ctx = (trail, clauses, vals, watches,
 *       bin_watches, levels, reasons).
 *   unassign(ctx, bound) -> None
 *       the unassign / heap re-insert loop of Solver._cancel_until;
 *       ctx = (trail, vals, saved_phase, reasons, levels, heap,
 *       heap_pos, activity).
 *   pick(ctx) -> decision literal or -1
 *       the heap pop of Solver._pick_branch; ctx = (heap, heap_pos,
 *       activity, vals, saved_phase, lit_objs).
 *   intake(ctx, lits, proof) -> clause id, -1 (absorbed) or None
 *       the one-pass simplify of Solver.add_clause plus the clause append
 *       and watch attach, for a list or tuple of ints that leaves at
 *       least two literals not false; None (nothing changed) sends every
 *       other clause down the Python path; ctx = (vals, levels, clauses,
 *       watches, bin_watches, lit_objs).
 *   analyze(ctx, confl, level, var_inc, proof)
 *           -> (learnt, bt, used, lbd, bumps, var_inc)
 *       Solver._analyze: the 1UIP walk with its VSIDS bumps, the
 *       recursive minimisation of Solver._redundant, the level-0 unit
 *       chains of Solver._explain_level0, glue and backjump level.  The
 *       learned clauses whose activity the walk bumps come back in
 *       `bumps`, in walk order, for Solver._bump_clause; ctx = (clauses,
 *       trail, levels, reasons, activity, heap, heap_pos, seen, l0_memo,
 *       clause_act).
 *   analyze_final(ctx, p, proof) -> (failed literals, reason cids)
 *       the implication walk of Solver._final_walk behind falsified
 *       assumption p; ctx = (clauses, levels, reasons, vals, seen).
 *   new_var(ctx) -> the new variable
 *       the body of Solver.new_var; ctx = (vals, levels, reasons,
 *       activity, saved_phase, watches, bin_watches, heap, heap_pos,
 *       seen, lit_objs).
 *
 * A literal is stored as the solver's one int object for it,
 * lit_objs[lit]: intake fills new clauses with those objects and pick
 * returns one, and new_var appends the two objects of the new variable.
 * Everything else a function stores it took from a clause, a watch or
 * the trail, so it is shared already.  The asserting literal analyze
 * returns is a new int; Solver._record_learnt stores the shared one.
 *
 * Both kinds of watch list, watches and bin_watches, are flat lists of
 * `cid, literal` slot pairs (the blocker of a long clause, the other
 * literal of a 2-literal one).  A literal's slot holds None until the
 * first watch on it: new_var appends None, and intake and propagate
 * create the list when they attach a watch to a None slot.
 *
 * The solver's storage stays out of the cyclic garbage collector: every
 * list the functions above store in the solver (clauses, learnt
 * clauses, watch lists) is created untracked, and untrack(lst) -> None
 * untracks a list built in Python.  Such containers hold only ints, or
 * lists of ints, so they can never be part of a reference cycle;
 * whatever they hold still counts as referenced, so untracking never
 * frees anything early.
 *
 * They read and write the solver's own lists in place through the list
 * item arrays, with the reference counting the Python statements they
 * replace would do, so either implementation can continue the other's
 * search.  Their scratch space is per call, apart from the solver's
 * `seen` bytearray, whose flags every call leaves clear.  Every index read from a list is range-checked against the
 * list it indexes; a bad value raises instead of reading out of bounds.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* The solver's truth values _TRUE, _FALSE and UNASSIGNED, and the
 * activity of a new variable, shared by every variable as the Python
 * constant is. */
static PyObject *V_TRUE, *V_FALSE, *V_UNDEF, *ZERO_ACT;

#define ITEMS(list) (((PyListObject *)(list))->ob_item)
#define LEN(list) PyList_GET_SIZE(list)

/* Value of a truth value / level item: identity with the cached small
 * ints first, then the integer value. */
static inline long
val_of(PyObject *o)
{
    if (o == V_TRUE)
        return 1;
    if (o == V_FALSE)
        return 0;
    if (o == V_UNDEF)
        return -1;
    return PyLong_AsLong(o);
}

/* An index stored in a list item, checked against 0 <= i < n; -1 with
 * an exception set otherwise. */
static inline Py_ssize_t
index_of(PyObject *o, Py_ssize_t n)
{
    Py_ssize_t i = PyLong_AsSsize_t(o);
    if (i < 0 || i >= n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_IndexError, "solver index out of range");
        return -1;
    }
    return i;
}

/* list[i] = v, as the Python assignment does it. */
static inline void
set_item(PyObject *list, Py_ssize_t i, PyObject *v)
{
    PyObject *old = ITEMS(list)[i];
    Py_INCREF(v);
    ITEMS(list)[i] = v;
    Py_DECREF(old);
}

static inline int
set_index(PyObject *list, Py_ssize_t i, Py_ssize_t v)
{
    PyObject *o = PyLong_FromSsize_t(v);
    if (o == NULL)
        return -1;
    PyObject *old = ITEMS(list)[i];
    ITEMS(list)[i] = o;
    Py_DECREF(old);
    return 0;
}

static inline void
swap_items(PyObject *list, Py_ssize_t a, Py_ssize_t b)
{
    PyObject *t = ITEMS(list)[a];
    ITEMS(list)[a] = ITEMS(list)[b];
    ITEMS(list)[b] = t;
}

/* A new list of n (unfilled) slots, untracked by the cycle collector. */
static inline PyObject *
untracked_list(Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (list != NULL)
        PyObject_GC_UnTrack(list);
    return list;
}

/* The watch list of literal `lit` in `lists` (watches or bin_watches),
 * created untracked when the slot still holds None; NULL with an
 * exception set when the slot holds anything else. */
static PyObject *
watch_list(PyObject *lists, Py_ssize_t lit)
{
    PyObject *w = ITEMS(lists)[lit];
    if (w == Py_None) {
        if ((w = untracked_list(0)) == NULL)
            return NULL;
        set_item(lists, lit, w);
        Py_DECREF(w);
    }
    else if (!PyList_CheckExact(w)) {
        PyErr_SetString(PyExc_TypeError, "malformed watch list");
        return NULL;
    }
    return w;
}

static inline double
act_of(PyObject *o)
{
    return PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
}

/* Unpack a context tuple into out[]: one slot per character of `kinds`,
 * 'l' for a list, 'd' for a dict and 'b' for a bytearray. */
static int
unpack(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want_args,
       const char *kinds, PyObject **out)
{
    Py_ssize_t n = (Py_ssize_t)strlen(kinds);
    if (nargs != want_args || !PyTuple_Check(args[0])
            || PyTuple_GET_SIZE(args[0]) != n) {
        PyErr_SetString(PyExc_TypeError, "bad solver kernel arguments");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyTuple_GET_ITEM(args[0], i);
        if (kinds[i] == 'l' ? !PyList_CheckExact(out[i])
                : kinds[i] == 'd' ? !PyDict_CheckExact(out[i])
                : !PyByteArray_CheckExact(out[i])) {
            PyErr_SetString(PyExc_TypeError, "solver context slot of the wrong type");
            return -1;
        }
    }
    return 0;
}

/* Assign literal `lit` (object `lo`) true at `lvl` with reason `cid`. */
static inline int
assign(PyObject *trail, PyObject *vals, PyObject *levels, PyObject *reasons,
       PyObject *lo, Py_ssize_t lit, PyObject *lvl, PyObject *cid)
{
    set_item(vals, lit, V_TRUE);
    set_item(vals, lit ^ 1, V_FALSE);
    set_item(levels, lit >> 1, lvl);
    set_item(reasons, lit >> 1, cid);
    return PyList_Append(trail, lo);
}

static PyObject *
k_propagate(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[7];
    if (unpack(args, nargs, 3, "lllllll", c) < 0)
        return NULL;
    PyObject *trail = c[0], *clauses = c[1], *vals = c[2], *watches = c[3],
             *bins = c[4], *levels = c[5], *reasons = c[6];
    PyObject *lvl = args[2];
    Py_ssize_t nlit = LEN(vals);
    if (LEN(watches) < nlit || LEN(bins) < nlit || 2 * LEN(levels) < nlit
            || 2 * LEN(reasons) < nlit || nlit % 2) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    Py_ssize_t qhead = PyLong_AsSsize_t(args[1]);
    if (qhead == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t nclauses = LEN(clauses), nprops = 0;
    PyObject *confl = NULL;

    while (confl == NULL && qhead < LEN(trail)) {
        Py_ssize_t p = index_of(ITEMS(trail)[qhead], nlit);
        if (p < 0)
            return NULL;
        qhead++;
        nprops++;
        Py_ssize_t false_lit = p ^ 1;
        /* Binary implications: `cid, other` slot pairs, no clause-object
         * access at all.  A None slot watches nothing. */
        PyObject *bl = ITEMS(bins)[false_lit];
        if (bl != Py_None && (!PyList_CheckExact(bl) || LEN(bl) % 2))
            goto bad_watch;
        for (Py_ssize_t b = 0; bl != Py_None && b < LEN(bl); b += 2) {
            PyObject *cid = ITEMS(bl)[b];
            PyObject *oo = ITEMS(bl)[b + 1];
            Py_ssize_t other = index_of(oo, nlit);
            if (other < 0)
                return NULL;
            long a = val_of(ITEMS(vals)[other]);
            if (a == -1) {
                if (assign(trail, vals, levels, reasons, oo, other, lvl, cid) < 0)
                    return NULL;
            }
            else if (a == 0) {
                Py_INCREF(cid);
                confl = cid;
                break;
            }
        }
        if (confl != NULL)
            break;
        /* Long clauses: `cid, blocker` slot pairs, compacted in place
         * (j trails i) as watches move to other literals.  Kept slots are
         * swapped forward, so the dropped ones end up in [j, n). */
        PyObject *wl = ITEMS(watches)[false_lit];
        if (wl == Py_None)
            continue;
        if (!PyList_CheckExact(wl) || LEN(wl) % 2)
            goto bad_watch;
        Py_ssize_t n = LEN(wl), i = 0, j = 0;
        while (i < n) {
            PyObject *cid = ITEMS(wl)[i];
            Py_ssize_t blocker = index_of(ITEMS(wl)[i + 1], nlit);
            if (blocker < 0)
                return NULL;
            i += 2;
            if (val_of(ITEMS(vals)[blocker]) == 1) {
                /* Satisfied via the blocker: keep the watch untouched. */
                swap_items(wl, j, i - 2);
                swap_items(wl, j + 1, i - 1);
                j += 2;
                continue;
            }
            Py_ssize_t ci = index_of(cid, nclauses);
            if (ci < 0)
                return NULL;
            PyObject *lits = ITEMS(clauses)[ci];
            if (lits == Py_None)
                continue;  /* deleted clause; watcher dropped */
            if (!PyList_CheckExact(lits) || LEN(lits) < 2)
                goto bad_watch;
            Py_ssize_t first = index_of(ITEMS(lits)[0], nlit);
            if (first == false_lit) {
                swap_items(lits, 0, 1);
                first = index_of(ITEMS(lits)[0], nlit);
            }
            if (first < 0)
                return NULL;
            PyObject *fo = ITEMS(lits)[0];
            long a0 = val_of(ITEMS(vals)[first]);
            int moved = 0;
            if (a0 != 1) {
                for (Py_ssize_t k = 2; k < LEN(lits); k++) {
                    PyObject *ko = ITEMS(lits)[k];
                    Py_ssize_t lk = index_of(ko, nlit);
                    if (lk < 0)
                        return NULL;
                    if (val_of(ITEMS(vals)[lk]) != 0) {
                        swap_items(lits, 1, k);
                        PyObject *w = watch_list(watches, lk);
                        if (w == NULL || PyList_Append(w, cid) < 0
                                || PyList_Append(w, fo) < 0)
                            return NULL;
                        moved = 1;
                        break;
                    }
                }
            }
            if (moved)
                continue;
            swap_items(wl, j, i - 2);
            swap_items(wl, j + 1, i - 1);
            set_item(wl, j + 1, fo);
            j += 2;
            if (a0 == -1) {
                if (assign(trail, vals, levels, reasons, fo, first, lvl, cid) < 0)
                    return NULL;
            }
            else if (a0 == 0) {
                /* Conflict: keep the remaining watchers, stop. */
                Py_INCREF(cid);
                confl = cid;
                for (; i < n; i++, j++)
                    swap_items(wl, j, i);
                break;
            }
        }
        if (PyList_SetSlice(wl, j, LEN(wl), NULL) < 0)
            break;
    }
    if (PyErr_Occurred()) {
        Py_XDECREF(confl);
        return NULL;
    }
    if (confl != NULL)
        return Py_BuildValue("(Nnn)", confl, LEN(trail), nprops);
    return Py_BuildValue("(inn)", -1, qhead, nprops);

bad_watch:
    PyErr_SetString(PyExc_TypeError, "malformed watch list or clause");
    return NULL;
}

static PyObject *
k_unassign(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[8];
    if (unpack(args, nargs, 2, "llllllll", c) < 0)
        return NULL;
    PyObject *trail = c[0], *vals = c[1], *saved = c[2], *reasons = c[3],
             *levels = c[4], *heap = c[5], *pos = c[6], *act = c[7];
    Py_ssize_t nvar = LEN(levels);
    if (LEN(vals) < 2 * nvar || LEN(saved) < nvar || LEN(reasons) < nvar
            || LEN(pos) < nvar || LEN(act) < nvar) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    Py_ssize_t bound = PyLong_AsSsize_t(args[1]);
    Py_ssize_t n = LEN(trail);
    if (bound < 0 || bound > n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_IndexError, "trail bound out of range");
        return NULL;
    }
    Py_ssize_t nkept = 0;
    for (Py_ssize_t i = n - 1; i >= bound; i--) {
        Py_ssize_t lit = index_of(ITEMS(trail)[i], 2 * nvar);
        if (lit < 0)
            return NULL;
        Py_ssize_t var = lit >> 1;
        if (val_of(ITEMS(levels)[var]) == 0) {
            nkept++;  /* a root literal above trail_lim[0] survives */
            continue;
        }
        set_item(saved, var, lit & 1 ? V_TRUE : V_FALSE);
        set_item(vals, lit, V_UNDEF);
        set_item(vals, lit ^ 1, V_UNDEF);
        set_item(reasons, var, V_UNDEF);
        if (val_of(ITEMS(pos)[var]) != -1)
            continue;
        /* Re-insert into the order heap: append, sift up. */
        double a = act_of(ITEMS(act)[var]);
        PyObject *vo = PyLong_FromSsize_t(var);
        if (vo == NULL || PyList_Append(heap, vo) < 0) {
            Py_XDECREF(vo);
            return NULL;
        }
        Py_ssize_t j = LEN(heap) - 1;
        while (j > 0) {
            Py_ssize_t parent = (j - 1) >> 1;
            PyObject *po = ITEMS(heap)[parent];
            Py_ssize_t pv = index_of(po, nvar);
            if (pv < 0 || act_of(ITEMS(act)[pv]) >= a)
                break;
            set_item(heap, j, po);
            if (set_index(pos, pv, j) < 0)
                break;
            j = parent;
        }
        set_item(heap, j, vo);
        Py_DECREF(vo);
        if (PyErr_Occurred() || set_index(pos, var, j) < 0)
            return NULL;
    }
    if (PyErr_Occurred())
        return NULL;
    /* The kept root literals move down to the cut, in trail order. */
    Py_ssize_t w = bound;
    for (Py_ssize_t i = bound; nkept && i < n; i++) {
        Py_ssize_t var = PyLong_AsSsize_t(ITEMS(trail)[i]) >> 1;
        if (val_of(ITEMS(levels)[var]) == 0) {
            swap_items(trail, w++, i);
            nkept--;
        }
    }
    if (PyList_SetSlice(trail, w, n, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
k_pick(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[6];
    if (unpack(args, nargs, 1, "llllll", c) < 0)
        return NULL;
    PyObject *heap = c[0], *pos = c[1], *act = c[2], *vals = c[3],
             *saved = c[4], *lit_objs = c[5];
    Py_ssize_t nvar = LEN(pos);
    if (LEN(act) < nvar || LEN(vals) < 2 * nvar || LEN(saved) < nvar
            || LEN(lit_objs) < 2 * nvar) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    while (LEN(heap) > 0) {
        Py_ssize_t var = index_of(ITEMS(heap)[0], nvar);
        if (var < 0)
            return NULL;
        set_item(pos, var, V_UNDEF);
        Py_ssize_t n = LEN(heap) - 1;
        PyObject *last = ITEMS(heap)[n];
        Py_INCREF(last);
        if (PyList_SetSlice(heap, n, n + 1, NULL) < 0) {
            Py_DECREF(last);
            return NULL;
        }
        if (n) {
            /* Sift `last` down from the root. */
            Py_ssize_t lv = index_of(last, nvar), i = 0;
            double a = lv < 0 ? 0.0 : act_of(ITEMS(act)[lv]);
            while (lv >= 0) {
                Py_ssize_t child = 2 * i + 1;
                if (child >= n)
                    break;
                Py_ssize_t cv = index_of(ITEMS(heap)[child], nvar);
                if (cv < 0)
                    break;
                if (child + 1 < n) {
                    Py_ssize_t rv = index_of(ITEMS(heap)[child + 1], nvar);
                    if (rv < 0)
                        break;
                    if (act_of(ITEMS(act)[rv]) > act_of(ITEMS(act)[cv])) {
                        child++;
                        cv = rv;
                    }
                }
                if (a >= act_of(ITEMS(act)[cv]))
                    break;
                set_item(heap, i, ITEMS(heap)[child]);
                if (set_index(pos, cv, i) < 0)
                    break;
                i = child;
            }
            set_item(heap, i, last);
            if (!PyErr_Occurred())
                set_index(pos, lv, i);
        }
        Py_DECREF(last);
        if (PyErr_Occurred())
            return NULL;
        if (val_of(ITEMS(vals)[var << 1]) == -1) {
            Py_ssize_t sign = index_of(ITEMS(saved)[var], 2);
            if (sign < 0)
                return NULL;
            return Py_NewRef(ITEMS(lit_objs)[var << 1 | sign]);
        }
    }
    return PyLong_FromLong(-1);
}

/* Growable index vectors for the intake and analysis functions: the
 * first SMALL entries live in the vector itself, so most calls allocate
 * nothing.  Each call owns its vectors (never copied by value) and
 * frees them with drop(). */
#define SMALL 32

typedef struct {
    Py_ssize_t *a;
    Py_ssize_t n, cap;
    Py_ssize_t small[SMALL];
} ivec;

#define IVEC_INIT(v) ((v).a = (v).small, (v).n = 0, (v).cap = SMALL)

static int
push(ivec *v, Py_ssize_t x)
{
    if (v->n == v->cap) {
        Py_ssize_t cap = 2 * v->cap;
        Py_ssize_t *a = v->a == v->small
            ? PyMem_Malloc((size_t)cap * sizeof *a)
            : PyMem_Realloc(v->a, (size_t)cap * sizeof *a);
        if (a == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        if (v->a == v->small)
            memcpy(a, v->small, sizeof v->small);
        v->a = a;
        v->cap = cap;
    }
    v->a[v->n++] = x;
    return 0;
}

static void
drop(ivec *v)
{
    if (v->a != v->small)
        PyMem_Free(v->a);
}

static inline int
holds(const ivec *v, Py_ssize_t x)
{
    for (Py_ssize_t i = 0; i < v->n; i++)
        if (v->a[i] == x)
            return 1;
    return 0;
}

/* Flags in the solver's `_seen` bytearray, one byte per variable, all
 * clear between calls: SEEN marks analyze's variables (as the Python
 * loop's `seen[v] = True` does), VISITED the variables of an
 * implication walk. */
#define SEEN 1
#define VISITED 2

static void
clear(unsigned char *marks, const ivec *vars, Py_ssize_t from, int flag)
{
    for (Py_ssize_t i = from; i < vars->n; i++)
        marks[vars->a[i]] &= (unsigned char)~flag;
}

/* The bytes of the `_seen` bytearray, checked to cover nvar variables. */
static unsigned char *
marks_of(PyObject *seen, Py_ssize_t nvar)
{
    if (PyByteArray_GET_SIZE(seen) < nvar) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    return (unsigned char *)PyByteArray_AS_STRING(seen);
}

/* The clause list stored under clause id object `cid`; NULL with an
 * exception set when the id is out of range or the slot holds no list. */
static PyObject *
clause_at(PyObject *clauses, PyObject *cid)
{
    Py_ssize_t ci = index_of(cid, LEN(clauses));
    if (ci < 0)
        return NULL;
    PyObject *lits = ITEMS(clauses)[ci];
    if (!PyList_CheckExact(lits)) {
        PyErr_SetString(PyExc_TypeError, "reason or conflict clause is not live");
        return NULL;
    }
    return lits;
}

/* A reason item: 1 when it is -1 (no reason), 0 otherwise, -1 on error. */
static inline int
no_reason(PyObject *r)
{
    if (r == V_UNDEF)
        return 1;
    long v = PyLong_AsLong(r);
    if (v == -1 && PyErr_Occurred())
        return -1;
    return v == -1;
}

/* Internal literal of the exact int `x`, or -1 with ValueError set when
 * it names no variable in 1..maxvar. */
static inline Py_ssize_t
literal_of(PyObject *x, Py_ssize_t maxvar)
{
    int ovf;
    long v = PyLong_AsLongAndOverflow(x, &ovf);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (ovf || v == 0 || v > maxvar || v < -maxvar) {
        PyErr_Format(PyExc_ValueError,
                     "literal %S references unknown variable", x);
        return -1;
    }
    return v > 0 ? (Py_ssize_t)v << 1 : (Py_ssize_t)(-v) << 1 | 1;
}

static PyObject *
k_intake(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[6];
    if (unpack(args, nargs, 3, "llllll", c) < 0)
        return NULL;
    PyObject *vals = c[0], *levels = c[1], *clauses = c[2], *watches = c[3],
             *bins = c[4], *lit_objs = c[5];
    PyObject *seq = args[1];
    int proof = PyObject_IsTrue(args[2]);
    if (proof < 0)
        return NULL;
    if (!PyList_CheckExact(seq) && !PyTuple_CheckExact(seq))
        Py_RETURN_NONE;
    Py_ssize_t nlit = LEN(vals), maxvar = nlit / 2 - 1;
    if (nlit % 2 || 2 * LEN(levels) < nlit || LEN(watches) < nlit
            || LEN(bins) < nlit || LEN(lit_objs) < nlit) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq), i;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    PyObject *res = NULL;
    ivec out, late;
    IVEC_INIT(out);
    IVEC_INIT(late);
    for (i = 0; i < n; i++) {
        PyObject *x = items[i];
        if (!PyLong_CheckExact(x))
            goto defer;
        Py_ssize_t lt = literal_of(x, maxvar);
        if (lt < 0)
            goto done;
        long v = val_of(ITEMS(vals)[lt]);
        ivec *into;
        if (v == -1) {
            if (holds(&out, lt))
                continue;
            if (holds(&out, lt ^ 1))
                goto absorb;  /* tautology */
            into = &out;
        }
        else if (val_of(ITEMS(levels)[lt >> 1]) == 0) {
            if (v == 1)
                goto absorb;  /* satisfied at level 0 */
            if (proof)
                goto defer;  /* its unit chain joins the derivation */
            continue;  /* false at level 0: dropped */
        }
        else if (v == 1) {
            if (holds(&out, lt))
                continue;
            if (holds(&late, lt ^ 1))
                goto absorb;
            into = &out;
        }
        else {
            if (holds(&late, lt))
                continue;
            if (holds(&out, lt ^ 1))
                goto absorb;
            into = &late;
        }
        if (push(into, lt) < 0)
            goto done;
    }
    if (PyErr_Occurred())
        goto done;
    /* Units, all-false clauses and clauses with fewer than two open
     * literals on a kept trail take the Python path. */
    if (out.n < 2)
        goto defer;
    Py_ssize_t total = out.n + late.n;
    PyObject *wl = total == 2 ? bins : watches;
    PyObject *w0 = watch_list(wl, out.a[0]);
    PyObject *w1 = w0 == NULL ? NULL : watch_list(wl, out.a[1]);
    if (w1 == NULL)
        goto done;
    PyObject *cl = untracked_list(total);
    if (cl == NULL)
        goto done;
    for (i = 0; i < total; i++)
        PyList_SET_ITEM(cl, i, Py_NewRef(ITEMS(lit_objs)[
            i < out.n ? out.a[i] : late.a[i - out.n]]));
    PyObject *cid = PyLong_FromSsize_t(LEN(clauses));
    if (cid == NULL || PyList_Append(clauses, cl) < 0) {
        Py_XDECREF(cid);
        Py_DECREF(cl);
        goto done;
    }
    Py_DECREF(cl);
    /* Watch the first two literals as `cid, literal` slot pairs: the
     * other literal of a 2-literal clause, a blocker of a longer one. */
    PyObject *l0 = ITEMS(cl)[0], *l1 = ITEMS(cl)[1];
    if (PyList_Append(w0, cid) < 0 || PyList_Append(w0, l1) < 0
            || PyList_Append(w1, cid) < 0 || PyList_Append(w1, l0) < 0)
        Py_DECREF(cid);
    else
        res = cid;
    goto done;

absorb:
    /* Absorbed: the remaining literals are still range-checked. */
    for (i++; i < n; i++) {
        if (!PyLong_CheckExact(items[i]))
            goto defer;
        if (literal_of(items[i], maxvar) < 0)
            goto done;
    }
    res = PyLong_FromLong(-1);
    goto done;

defer:
    res = Py_NewRef(Py_None);
done:
    drop(&out);
    drop(&late);
    return res;
}

/* The lists, dicts and marks analyze works on. */
typedef struct {
    PyObject *clauses, *trail, *levels, *reasons, *act, *heap, *pos, *memo,
        *clause_act;
    unsigned char *marks;
    ivec *cleanup;  /* the SEEN variables */
    Py_ssize_t nvar;
    int proof;
} actx;

/* Solver._explain_level0: the memoised tuple of clause ids whose units
 * explain the level-0 value of `var` (a new reference).  The result
 * set is filled in the Python loop's order, so the tuple's order is the
 * same too. */
static PyObject *
explain(actx *x, Py_ssize_t var)
{
    PyObject *key = PyLong_FromSsize_t(var);
    if (key == NULL)
        return NULL;
    PyObject *got = PyDict_GetItemWithError(x->memo, key);
    if (got != NULL || PyErr_Occurred()) {
        Py_XINCREF(got);
        Py_DECREF(key);
        return got;
    }
    PyObject *result = PySet_New(NULL), *out = NULL;
    ivec stack, visited;
    IVEC_INIT(stack);
    IVEC_INIT(visited);
    if (result == NULL || push(&stack, var) < 0)
        goto done;
    while (stack.n) {
        Py_ssize_t v = stack.a[--stack.n];
        if (x->marks[v] & VISITED)
            continue;
        if (push(&visited, v) < 0)
            goto done;
        x->marks[v] |= VISITED;
        PyObject *vo = PyLong_FromSsize_t(v);
        if (vo == NULL)
            goto done;
        PyObject *cached = PyDict_GetItemWithError(x->memo, vo);
        Py_DECREF(vo);
        if (cached != NULL) {
            if (!PyTuple_CheckExact(cached)) {
                PyErr_SetString(PyExc_TypeError, "level-0 explanation is not a tuple");
                goto done;
            }
            for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(cached); i++)
                if (PySet_Add(result, PyTuple_GET_ITEM(cached, i)) < 0)
                    goto done;
            continue;
        }
        if (PyErr_Occurred())
            goto done;
        PyObject *r = ITEMS(x->reasons)[v];
        int none = no_reason(r);
        if (none < 0)
            goto done;
        if (none)
            continue;
        if (PySet_Add(result, r) < 0)
            goto done;
        Py_ssize_t ci = index_of(r, LEN(x->clauses));
        if (ci < 0)
            goto done;
        PyObject *lits = ITEMS(x->clauses)[ci];
        if (lits == Py_None)
            continue;
        if (!PyList_CheckExact(lits)) {
            PyErr_SetString(PyExc_TypeError, "malformed clause");
            goto done;
        }
        for (Py_ssize_t k = 0; k < LEN(lits); k++) {
            Py_ssize_t q = index_of(ITEMS(lits)[k], 2 * x->nvar);
            if (q < 0)
                goto done;
            if (q >> 1 != v && push(&stack, q >> 1) < 0)
                goto done;
        }
    }
    if (PyErr_Occurred())
        goto done;
    out = PySequence_Tuple(result);
    if (out != NULL && PyDict_SetItem(x->memo, key, out) < 0)
        Py_CLEAR(out);
done:
    clear(x->marks, &visited, 0, VISITED);
    drop(&stack);
    drop(&visited);
    Py_XDECREF(result);
    Py_DECREF(key);
    return out;
}

/* Append the level-0 unit chain of `var` to `used`. */
static int
explain_into(actx *x, Py_ssize_t var, PyObject *used)
{
    PyObject *t = explain(x, var);
    if (t == NULL)
        return -1;
    int err = !PyTuple_CheckExact(t);
    if (err)
        PyErr_SetString(PyExc_TypeError, "level-0 explanation is not a tuple");
    for (Py_ssize_t i = 0; !err && i < PyTuple_GET_SIZE(t); i++)
        err = PyList_Append(used, PyTuple_GET_ITEM(t, i)) < 0;
    Py_DECREF(t);
    return err ? -1 : 0;
}

/* Solver._bump_var: bump `var`'s activity (rescaling every activity and
 * *inc past 1e100) and sift it up the order heap. */
static int
bump_var(actx *x, Py_ssize_t var, double *inc)
{
    PyObject *act = x->act, *heap = x->heap, *pos = x->pos;
    double a = act_of(ITEMS(act)[var]) + *inc;
    PyObject *f = PyFloat_FromDouble(a);
    if (f == NULL || PyErr_Occurred()) {
        Py_XDECREF(f);
        return -1;
    }
    set_item(act, var, f);
    Py_DECREF(f);
    if (a > 1e100) {
        for (Py_ssize_t u = 1; u < LEN(act); u++) {
            f = PyFloat_FromDouble(act_of(ITEMS(act)[u]) * 1e-100);
            if (f == NULL)
                return -1;
            set_item(act, u, f);
            Py_DECREF(f);
        }
        *inc *= 1e-100;
        a = act_of(ITEMS(act)[var]);
    }
    Py_ssize_t i = PyLong_AsSsize_t(ITEMS(pos)[var]);
    if (i == -1)
        return PyErr_Occurred() ? -1 : 0;
    if (i < 0 || i >= LEN(heap)) {
        PyErr_SetString(PyExc_IndexError, "heap position out of range");
        return -1;
    }
    PyObject *vo = ITEMS(heap)[i];
    Py_INCREF(vo);
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        PyObject *po = ITEMS(heap)[parent];
        Py_ssize_t pv = index_of(po, x->nvar);
        if (pv < 0 || act_of(ITEMS(act)[pv]) >= a)
            break;
        set_item(heap, i, po);
        if (set_index(pos, pv, i) < 0)
            break;
        i = parent;
    }
    set_item(heap, i, vo);
    Py_DECREF(vo);
    if (PyErr_Occurred() || set_index(pos, var, i) < 0)
        return -1;
    return 0;
}

/* Solver._redundant: 1 when literal `lit` of the learnt clause is implied
 * by the other marked literals, 0 when not, -1 on error.  Its reasons
 * and newly marked variables go straight to `used` and x->cleanup, and
 * are taken back when the literal turns out not redundant. */
static int
redundant(actx *x, Py_ssize_t lit, PyObject *used)
{
    int none = no_reason(ITEMS(x->reasons)[lit >> 1]);
    if (none)
        return none < 0 ? -1 : 0;
    Py_ssize_t umark = LEN(used), cmark = x->cleanup->n;
    int res = -1;
    ivec stack;
    IVEC_INIT(stack);
    if (push(&stack, lit) < 0)
        goto done;
    while (stack.n) {
        Py_ssize_t lt = stack.a[--stack.n];
        PyObject *r = ITEMS(x->reasons)[lt >> 1];
        if ((none = no_reason(r)))
            goto not_redundant;
        PyObject *lits = clause_at(x->clauses, r);
        if (lits == NULL || PyList_Append(used, r) < 0)
            goto done;
        for (Py_ssize_t k = 0; k < LEN(lits); k++) {
            Py_ssize_t q = index_of(ITEMS(lits)[k], 2 * x->nvar);
            if (q < 0)
                goto done;
            Py_ssize_t v = q >> 1;
            if (v == lt >> 1 || x->marks[v] & SEEN)
                continue;
            if (val_of(ITEMS(x->levels)[v]) == 0) {
                if (x->proof && explain_into(x, v, used) < 0)
                    goto done;
                continue;
            }
            if ((none = no_reason(ITEMS(x->reasons)[v])))
                goto not_redundant;
            if (push(x->cleanup, v) < 0 || push(&stack, q) < 0)
                goto done;
            x->marks[v] |= SEEN;
        }
    }
    res = PyErr_Occurred() ? -1 : 1;
    goto done;

not_redundant:
    if (none > 0) {
        clear(x->marks, x->cleanup, cmark, SEEN);
        x->cleanup->n = cmark;
        res = PyList_SetSlice(used, umark, LEN(used), NULL) < 0 ? -1 : 0;
    }
done:
    drop(&stack);
    return res;
}

static int
cmp_index(const void *a, const void *b)
{
    Py_ssize_t x = *(const Py_ssize_t *)a, y = *(const Py_ssize_t *)b;
    return (x > y) - (x < y);
}

static PyObject *
k_analyze(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[10];
    if (unpack(args, nargs, 5, "lllllllbdd", c) < 0)
        return NULL;
    ivec learnt, cleanup, levels;
    actx x = {c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[8], c[9], NULL,
              &cleanup, LEN(c[2]), PyObject_IsTrue(args[4])};
    PyObject *confl = args[1];
    Py_ssize_t level = PyLong_AsSsize_t(args[2]);
    double var_inc = PyFloat_AsDouble(args[3]);
    if (x.proof < 0 || PyErr_Occurred())
        return NULL;
    Py_ssize_t nvar = x.nvar, nlit = 2 * nvar;
    if (LEN(x.reasons) < nvar || LEN(x.act) < nvar || LEN(x.pos) < nvar) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    if ((x.marks = marks_of(c[7], nvar)) == NULL)
        return NULL;
    /* The learnt clause as literal indices, and in `out` as the literal
     * objects of the clauses it came from, as the Python loop keeps
     * them (slot 0 is filled in last). */
    PyObject *used = PyList_New(0), *bumps = PyList_New(0),
             *out = untracked_list(0), *res = NULL;
    IVEC_INIT(learnt);
    IVEC_INIT(cleanup);
    IVEC_INIT(levels);
    if (used == NULL || bumps == NULL || out == NULL
            || PyList_Append(used, confl) < 0 || push(&learnt, 0) < 0
            || PyList_Append(out, Py_None) < 0)
        goto done;
    /* The 1UIP walk back along the trail. */
    Py_ssize_t path = 0, p = -1, index = LEN(x.trail), i, k;
    PyObject *reason = confl;
    for (;;) {
        PyObject *lits = clause_at(x.clauses, reason);
        if (lits == NULL)
            goto done;
        int learned = PyDict_Contains(x.clause_act, reason);
        if (learned < 0 || (learned && PyList_Append(bumps, reason) < 0))
            goto done;
        for (k = p == -1 ? 0 : 1; k < LEN(lits); k++) {
            Py_ssize_t q = index_of(ITEMS(lits)[k], nlit);
            if (q < 0)
                goto done;
            Py_ssize_t v = q >> 1;
            if (x.marks[v] & SEEN)
                continue;
            long lv = val_of(ITEMS(x.levels)[v]);
            if (lv > 0) {
                if (push(&cleanup, v) < 0)
                    goto done;
                x.marks[v] |= SEEN;
                if (bump_var(&x, v, &var_inc) < 0)
                    goto done;
                if (lv >= level)
                    path++;
                else if (push(&learnt, q) < 0
                         || PyList_Append(out, ITEMS(lits)[k]) < 0)
                    goto done;
            }
            else if (x.proof && explain_into(&x, v, used) < 0)
                goto done;
        }
        if (PyErr_Occurred())
            goto done;
        do {
            if (--index < 0) {
                PyErr_SetString(PyExc_RuntimeError, "conflict walk ran off the trail");
                goto done;
            }
            p = index_of(ITEMS(x.trail)[index], nlit);
            if (p < 0)
                goto done;
        } while (!(x.marks[p >> 1] & SEEN));
        path--;
        x.marks[p >> 1] &= ~SEEN;
        if (path == 0)
            break;
        reason = ITEMS(x.reasons)[p >> 1];
        int none = no_reason(reason);
        if (none) {
            if (none > 0)
                PyErr_SetString(PyExc_RuntimeError, "implied literal without a reason");
            goto done;
        }
        if (PyList_Append(used, reason) < 0)
            goto done;
        /* The implied literal moves to the front of its reason. */
        PyObject *rl = clause_at(x.clauses, reason);
        if (rl == NULL)
            goto done;
        for (k = 0; k < LEN(rl); k++) {
            Py_ssize_t q = index_of(ITEMS(rl)[k], nlit);
            if (q < 0)
                goto done;
            if (q == p)
                break;
        }
        if (k == LEN(rl)) {
            PyErr_SetString(PyExc_ValueError, "implied literal not in its reason");
            goto done;
        }
        swap_items(rl, 0, k);
    }
    learnt.a[0] = p ^ 1;
    PyObject *asserting = PyLong_FromSsize_t(p ^ 1);
    if (asserting == NULL)
        goto done;
    set_item(out, 0, asserting);
    Py_DECREF(asserting);
    /* Recursive minimisation (self-subsumption through reasons). */
    Py_ssize_t n = 1;
    for (i = 1; i < learnt.n; i++) {
        int red = redundant(&x, learnt.a[i], used);
        if (red < 0)
            goto done;
        if (!red) {
            learnt.a[n] = learnt.a[i];
            swap_items(out, n++, i);
        }
    }
    learnt.n = n;
    if (PyList_SetSlice(out, n, LEN(out), NULL) < 0)
        goto done;
    /* Glue: the number of distinct levels, counted over sorted levels. */
    Py_ssize_t lbd = 0, bt;
    if (n > 1) {
        for (i = 0; i < n; i++)
            if (push(&levels, val_of(ITEMS(x.levels)[learnt.a[i] >> 1])) < 0)
                goto done;
        qsort(levels.a, (size_t)n, sizeof *levels.a, cmp_index);
        for (i = 0; i < n; i++)
            lbd += i == 0 || levels.a[i] != levels.a[i - 1];
    }
    if (n == 1) {
        /* The unit is asserted at the root (see Solver._enqueue_root). */
        bt = level - 1;
    }
    else {
        Py_ssize_t max_i = 1;
        long best = val_of(ITEMS(x.levels)[learnt.a[1] >> 1]);
        for (i = 2; i < n; i++) {
            long li = val_of(ITEMS(x.levels)[learnt.a[i] >> 1]);
            if (li > best) {
                best = li;
                max_i = i;
            }
        }
        swap_items(out, 1, max_i);
        bt = best;
    }
    if (!PyErr_Occurred())
        res = Py_BuildValue("(OnOnOd)", out, bt, used, lbd, bumps, var_inc);
done:
    clear(x.marks, &cleanup, 0, SEEN);
    drop(&learnt);
    drop(&cleanup);
    drop(&levels);
    Py_XDECREF(used);
    Py_XDECREF(bumps);
    Py_XDECREF(out);
    return res;
}

static PyObject *
k_analyze_final(PyObject *Py_UNUSED(mod), PyObject *const *args,
                Py_ssize_t nargs)
{
    PyObject *c[5];
    if (unpack(args, nargs, 3, "llllb", c) < 0)
        return NULL;
    PyObject *clauses = c[0], *levels = c[1], *reasons = c[2], *vals = c[3];
    Py_ssize_t nvar = LEN(levels);
    int proof = PyObject_IsTrue(args[2]);
    if (proof < 0)
        return NULL;
    if (LEN(reasons) < nvar || LEN(vals) < 2 * nvar) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    unsigned char *marks = marks_of(c[4], nvar);
    Py_ssize_t p = marks == NULL ? -1 : index_of(args[1], 2 * nvar);
    if (p < 0)
        return NULL;
    PyObject *failed = PyList_New(0), *cids = PySet_New(NULL), *res = NULL;
    long min_level = proof ? 0 : 1;
    ivec stack, visited;
    IVEC_INIT(stack);
    IVEC_INIT(visited);
    if (failed == NULL || cids == NULL || PyList_Append(failed, args[1]) < 0
            || push(&visited, p >> 1) < 0 || push(&stack, p >> 1) < 0)
        goto done;
    marks[p >> 1] |= VISITED;
    while (stack.n) {
        Py_ssize_t v = stack.a[--stack.n];
        PyObject *r = ITEMS(reasons)[v];
        int none = no_reason(r);
        if (none < 0)
            goto done;
        if (none) {
            if (val_of(ITEMS(levels)[v]) > 0) {
                /* A decision: the assumption literal actually decided. */
                PyObject *lit = PyLong_FromSsize_t(
                    v << 1 | (val_of(ITEMS(vals)[v << 1]) == 1 ? 0 : 1));
                int err = lit == NULL || PyList_Append(failed, lit) < 0;
                Py_XDECREF(lit);
                if (err)
                    goto done;
            }
            continue;
        }
        if (proof && PySet_Add(cids, r) < 0)
            goto done;
        PyObject *lits = clause_at(clauses, r);
        if (lits == NULL)
            goto done;
        for (Py_ssize_t k = 0; k < LEN(lits); k++) {
            Py_ssize_t q = index_of(ITEMS(lits)[k], 2 * nvar);
            if (q < 0)
                goto done;
            Py_ssize_t w = q >> 1;
            if (marks[w] & VISITED)
                continue;
            if (push(&visited, w) < 0)
                goto done;
            marks[w] |= VISITED;
            if (val_of(ITEMS(levels)[w]) >= min_level && push(&stack, w) < 0)
                goto done;
        }
    }
    if (!PyErr_Occurred())
        res = PyTuple_Pack(2, failed, cids);
done:
    clear(marks, &visited, 0, VISITED);
    drop(&stack);
    drop(&visited);
    Py_XDECREF(failed);
    Py_XDECREF(cids);
    return res;
}

static PyObject *
k_new_var(PyObject *Py_UNUSED(mod), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[11];
    if (unpack(args, nargs, 1, "lllllllllbl", c) < 0)
        return NULL;
    PyObject *vals = c[0], *levels = c[1], *reasons = c[2], *act = c[3],
             *saved = c[4], *watches = c[5], *bins = c[6], *heap = c[7],
             *pos = c[8], *seen = c[9], *lit_objs = c[10];
    Py_ssize_t nvar = LEN(levels);
    if (LEN(vals) != 2 * nvar || LEN(reasons) != nvar || LEN(act) != nvar
            || LEN(saved) != nvar || LEN(watches) != 2 * nvar
            || LEN(bins) != 2 * nvar || LEN(pos) != nvar
            || PyByteArray_GET_SIZE(seen) != nvar
            || LEN(lit_objs) != 2 * nvar) {
        PyErr_SetString(PyExc_ValueError, "solver lists out of step");
        return NULL;
    }
    PyObject *var = PyLong_FromSsize_t(nvar);
    PyObject *at = PyLong_FromSsize_t(LEN(heap));
    PyObject *pos_lit = PyLong_FromSsize_t(2 * nvar);
    PyObject *neg_lit = PyLong_FromSsize_t(2 * nvar + 1);
    /* The four watch slots hold None until a watch creates the list. */
    int err = var == NULL || at == NULL || pos_lit == NULL || neg_lit == NULL
        || PyList_Append(lit_objs, pos_lit) < 0
        || PyList_Append(lit_objs, neg_lit) < 0
        || PyList_Append(vals, V_UNDEF) < 0 || PyList_Append(vals, V_UNDEF) < 0
        || PyList_Append(levels, V_FALSE) < 0
        || PyList_Append(reasons, V_UNDEF) < 0
        || PyList_Append(act, ZERO_ACT) < 0
        || PyList_Append(saved, V_TRUE) < 0
        || PyList_Append(watches, Py_None) < 0
        || PyList_Append(watches, Py_None) < 0
        || PyList_Append(bins, Py_None) < 0 || PyList_Append(bins, Py_None) < 0
        || PyByteArray_Resize(seen, nvar + 1) < 0;
    if (!err) {
        PyByteArray_AS_STRING(seen)[nvar] = 0;
        /* Activity 0.0 never outranks a parent: the new leaf stays put. */
        err = PyList_Append(pos, at) < 0 || PyList_Append(heap, var) < 0;
    }
    Py_XDECREF(pos_lit);
    Py_XDECREF(neg_lit);
    Py_XDECREF(at);
    if (err) {
        Py_XDECREF(var);
        return NULL;
    }
    return var;
}

static PyObject *
k_untrack(PyObject *Py_UNUSED(mod), PyObject *obj)
{
    if (!PyList_CheckExact(obj)) {
        PyErr_SetString(PyExc_TypeError, "untrack takes a list");
        return NULL;
    }
    PyObject_GC_UnTrack(obj);
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)(void (*)(void))k_propagate, METH_FASTCALL,
     "Unit propagation over the solver's lists; (confl, qhead, props)."},
    {"unassign", (PyCFunction)(void (*)(void))k_unassign, METH_FASTCALL,
     "Unassign the trail above bound, re-inserting variables in the heap."},
    {"pick", (PyCFunction)(void (*)(void))k_pick, METH_FASTCALL,
     "Pop the most active unassigned variable; its decision literal or -1."},
    {"intake", (PyCFunction)(void (*)(void))k_intake, METH_FASTCALL,
     "Simplify and attach a new clause; its id, -1 if absorbed, None to defer."},
    {"analyze", (PyCFunction)(void (*)(void))k_analyze, METH_FASTCALL,
     "First-UIP conflict analysis; (learnt, bt, used, lbd, bumps, var_inc)."},
    {"analyze_final", (PyCFunction)(void (*)(void))k_analyze_final,
     METH_FASTCALL, "Walk back from a failed assumption; (failed, cids)."},
    {"new_var", (PyCFunction)(void (*)(void))k_new_var, METH_FASTCALL,
     "Allocate a variable in the solver's lists; the new variable."},
    {"untrack", k_untrack, METH_O,
     "Stop the cycle collector tracking a list."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled CDCL hot loops of repro.sat.solver.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    V_TRUE = PyLong_FromLong(1);
    V_FALSE = PyLong_FromLong(0);
    V_UNDEF = PyLong_FromLong(-1);
    ZERO_ACT = PyFloat_FromDouble(0.0);
    if (V_TRUE == NULL || V_FALSE == NULL || V_UNDEF == NULL
            || ZERO_ACT == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
