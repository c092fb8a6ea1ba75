/* Compiled CDCL hot loops for repro.sat.solver.
 *
 * Three functions, each the same algorithm as the pure-Python loop it
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
 *       activity, vals, saved_phase).
 *
 * They read and write the solver's own lists in place through the list
 * item arrays, with the reference counting the Python statements they
 * replace would do, so either implementation can continue the other's
 * search.  Every index read from a list is range-checked against the
 * list it indexes; a bad value raises instead of reading out of bounds.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* The solver's truth values _TRUE, _FALSE and UNASSIGNED. */
static PyObject *V_TRUE, *V_FALSE, *V_UNDEF;

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

static inline double
act_of(PyObject *o)
{
    return PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
}

/* Unpack a context tuple of n lists into out[]. */
static int
unpack(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want_args,
       Py_ssize_t n, PyObject **out)
{
    if (nargs != want_args || !PyTuple_Check(args[0])
            || PyTuple_GET_SIZE(args[0]) != n) {
        PyErr_SetString(PyExc_TypeError, "bad solver kernel arguments");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyTuple_GET_ITEM(args[0], i);
        if (!PyList_CheckExact(out[i])) {
            PyErr_SetString(PyExc_TypeError, "solver context holds a non-list");
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
k_propagate(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[7];
    if (unpack(args, nargs, 3, 7, c) < 0)
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
        /* Binary implications: no clause-object access at all. */
        PyObject *bl = ITEMS(bins)[false_lit];
        if (!PyList_CheckExact(bl))
            goto bad_watch;
        for (Py_ssize_t b = 0; b < LEN(bl); b++) {
            PyObject *pair = ITEMS(bl)[b];
            if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2)
                goto bad_watch;
            PyObject *cid = PyTuple_GET_ITEM(pair, 0);
            PyObject *oo = PyTuple_GET_ITEM(pair, 1);
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
                        PyObject *w = ITEMS(watches)[lk];
                        if (!PyList_CheckExact(w))
                            goto bad_watch;
                        if (PyList_Append(w, cid) < 0
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
k_unassign(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[8];
    if (unpack(args, nargs, 2, 8, c) < 0)
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
k_pick(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *c[5];
    if (unpack(args, nargs, 1, 5, c) < 0)
        return NULL;
    PyObject *heap = c[0], *pos = c[1], *act = c[2], *vals = c[3],
             *saved = c[4];
    Py_ssize_t nvar = LEN(pos);
    if (LEN(act) < nvar || LEN(vals) < 2 * nvar || LEN(saved) < nvar) {
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
            Py_ssize_t sign = PyLong_AsSsize_t(ITEMS(saved)[var]);
            if (sign == -1 && PyErr_Occurred())
                return NULL;
            return PyLong_FromSsize_t(var << 1 | sign);
        }
    }
    return PyLong_FromLong(-1);
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)(void (*)(void))k_propagate, METH_FASTCALL,
     "Unit propagation over the solver's lists; (confl, qhead, props)."},
    {"unassign", (PyCFunction)(void (*)(void))k_unassign, METH_FASTCALL,
     "Unassign the trail above bound, re-inserting variables in the heap."},
    {"pick", (PyCFunction)(void (*)(void))k_pick, METH_FASTCALL,
     "Pop the most active unassigned variable; its decision literal or -1."},
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
    if (V_TRUE == NULL || V_FALSE == NULL || V_UNDEF == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
