/* The two exhaustive loops of intervalcolor, in C: the per-t search of
 * solver._search_py and the canonical encoding of catalog._min_code_py.
 *
 * search(n, ends, deg, t, budget, after) -> (status, nodes, picked)
 *
 * ends lists the two endpoints of each edge in search order, deg the degree
 * of each of the n vertices; budget caps the nodes (0 = unlimited); edge k's
 * color must exceed that of the earlier edge after[k], or -1 for none (the
 * twin cut). status is 0 infeasible, 1 found, 2 aborted; picked holds the
 * color of each edge in search order when found. Edge order, color order,
 * node counting and the prune rules (distinct, spread, surjectivity, the
 * first edge's reversal cut, the twin cut) are those of _search_py, so
 * status, nodes and picked agree with it on every input; solver._plan
 * builds the input, and the proofs are in solver.py's docstring.
 *
 * A vertex's colors are a bitmask of (t + 1) / 64 + 1 words, bit c for
 * color c, so every t runs here.
 *
 * min_code(masks) -> int
 *
 * masks holds the adjacency bitmask of each of n <= 64 vertices. The result
 * is the minimum over all vertex orderings of the column-order upper-triangle
 * bits, read as one integer MSB-first. Candidate order, the prune and the
 * twin cut are those of _min_code_py; the proofs are in catalog.py's
 * docstring. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Once per 2^20 placements the loop lets Python handle signals, so that
 * Ctrl-C stops a long search as it stops the Python loop. */
#define SIGNAL_CHECK_MASK 0xFFFFF

static inline long long min(long long x, long long y) { return x < y ? x : y; }
static inline long long max(long long x, long long y) { return x > y ? x : y; }

/* Lowest set bit of a mask, or empty if there is none. */
static long long lowest(const uint64_t *mask, long long words, long long empty)
{
    for (long long w = 0; w < words; w++)
        if (mask[w])
            return 64 * w + __builtin_ctzll(mask[w]);
    return empty;
}

/* Highest set bit of a mask plus one, 0 if it is empty (Python's bit_length). */
static long long bit_length(const uint64_t *mask, long long words)
{
    for (long long w = words - 1; w >= 0; w--)
        if (mask[w])
            return 64 * w + 64 - __builtin_clzll(mask[w]);
    return 0;
}

/* Copies a list or tuple of len ints in [low, bound) into out; -1 with an
 * exception set otherwise. */
static int read_ints(PyObject *seq, Py_ssize_t len, long long low, long long bound, long long *out)
{
    PyObject *fast = PySequence_Fast(seq, "search: expected a list or tuple");
    if (!fast)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(fast) == len;
    if (!ok)
        PyErr_SetString(PyExc_ValueError, "search: sequence of the wrong length");
    for (Py_ssize_t i = 0; ok && i < len; i++) {
        out[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1 && PyErr_Occurred())
            ok = 0;
        else if (out[i] < low || out[i] >= bound) {
            PyErr_SetString(PyExc_ValueError, "search: value out of range");
            ok = 0;
        }
    }
    Py_DECREF(fast);
    return ok ? 0 : -1;
}

static PyObject *search(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    long long t, budget;
    PyObject *ends_obj, *deg_obj, *after_obj;
    if (!PyArg_ParseTuple(args, "nOOLLO", &n, &ends_obj, &deg_obj, &t, &budget, &after_obj))
        return NULL;
    Py_ssize_t m = PyObject_Length(ends_obj) / 2;
    if (m < 0)
        return NULL;
    if (n < 1 || m < 1 || t < 1 || t >= PY_SSIZE_T_MAX / 2 || budget < 0) {
        PyErr_SetString(PyExc_ValueError, "search: n, edges, t or budget out of range");
        return NULL;
    }
    long long words = (t + 1) / 64 + 1;
    if ((size_t)n > SIZE_MAX / sizeof(uint64_t) / (size_t)words)
        return PyErr_NoMemory();
    long long *ends = PyMem_Calloc(2 * m, sizeof(long long));
    long long *deg = PyMem_Calloc(n, sizeof(long long));
    long long *after = PyMem_Calloc(m, sizeof(long long));
    /* picked[-1] stays 0: the floor of an edge whose after is -1. */
    long long *slots = PyMem_Calloc(m + 1, sizeof(long long)), *picked = slots + 1;
    long long *color_count = PyMem_Calloc(t + 1, sizeof(long long));
    uint64_t *mask = PyMem_Calloc((size_t)n * words, sizeof(uint64_t));
    PyObject *result = NULL;
    if (!ends || !deg || !after || !slots || !color_count || !mask) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_ints(ends_obj, 2 * m, 0, n, ends) || read_ints(deg_obj, n, 0, n, deg) ||
        read_ints(after_obj, m, -1, m, after))
        goto done;
    for (Py_ssize_t k = 0; k < m; k++)
        if (after[k] >= k) {
            PyErr_SetString(PyExc_ValueError, "search: after[k] must be an earlier edge");
            goto done;
        }

    long long unused = t; /* colors on no edge yet */
    long long nodes = 0;
    long long first_top = (t + 1) / 2;
    Py_ssize_t k = 0;
    while (k >= 0 && k < m) {
        long long a = ends[2 * k], b = ends[2 * k + 1];
        uint64_t *mask_a = mask + a * words, *mask_b = mask + b * words;
        long long c = picked[k];
        if (c) {
            uint64_t bit = (uint64_t)1 << (c & 63);
            mask_a[c >> 6] ^= bit;
            mask_b[c >> 6] ^= bit;
            if (!--color_count[c])
                unused++;
        }
        /* Spread: a new color at v lies in [hi - deg(v) + 1, lo + deg(v) - 1],
         * lo and hi being v's least and greatest color (hi + 1 = bit_length).
         * Twin cut: it lies above the color of edge after[k]. */
        long long from = max(max(c + 1, picked[after[k]] + 1),
                             max(bit_length(mask_a, words) - deg[a],
                                 bit_length(mask_b, words) - deg[b]));
        long long top = min(k ? t : first_top, min(lowest(mask_a, words, t) + deg[a] - 1,
                                                   lowest(mask_b, words, t) + deg[b] - 1));
        long long spare = m - k - 1 - unused; /* surjectivity: uncolored edges left over */
        c = 0;
        for (long long x = from; spare >= -1 && x <= top; x++) {
            if (!(((mask_a[x >> 6] | mask_b[x >> 6]) >> (x & 63)) & 1) &&
                (spare >= 0 || !color_count[x])) {
                c = x;
                break;
            }
        }
        if (!c) {
            picked[k] = 0;
            k--;
            continue;
        }
        if (budget && nodes >= budget)
            break;
        if (!(nodes & SIGNAL_CHECK_MASK) && PyErr_CheckSignals())
            goto done;
        nodes++;
        uint64_t bit = (uint64_t)1 << (c & 63);
        mask_a[c >> 6] |= bit;
        mask_b[c >> 6] |= bit;
        if (!color_count[c]++)
            unused--;
        picked[k] = c;
        k++;
    }
    int status = k < 0 ? 0 : k == m ? 1 : 2;
    PyObject *colors = PyList_New(status == 1 ? m : 0);
    if (!colors)
        goto done;
    for (Py_ssize_t i = 0; status == 1 && i < m; i++) {
        PyObject *v = PyLong_FromLongLong(picked[i]);
        if (!v) {
            Py_DECREF(colors);
            goto done;
        }
        PyList_SET_ITEM(colors, i, v);
    }
    result = Py_BuildValue("iLN", status, nodes, colors);
done:
    PyMem_Free(ends);
    PyMem_Free(deg);
    PyMem_Free(after);
    PyMem_Free(slots);
    PyMem_Free(color_count);
    PyMem_Free(mask);
    return result;
}

/* The depth-first search of min_code. prefix[k] holds the k bits
 * (0,k),(1,k),...,(k-1,k) of the ordering being built, MSB-first, so segments
 * compare as the bits do; best holds the least complete prefix found, or all
 * ones, more than any segment, until the first is. */
typedef struct {
    int n;
    uint64_t adj[64];
    uint64_t lower_twins[64]; /* the twins y < x of each vertex x */
    int chosen[64];
    uint64_t prefix[64];
    uint64_t best[64];
    unsigned long long nodes;
} Canon;

/* Places vertex k given the used vertices and each one's segment so far;
 * below is true while the prefix is less than best's, so that nothing under
 * it can be pruned. -1 with an exception set if a signal interrupts. */
static int place(Canon *c, int k, uint64_t used, int below, const uint64_t *parent_seg)
{
    if (k == c->n) {
        if (below)
            memcpy(c->best, c->prefix, sizeof c->best);
        return 0;
    }
    if (!(++c->nodes & SIGNAL_CHECK_MASK) && PyErr_CheckSignals())
        return -1;
    uint64_t seg[64];
    int order[64], count = 0;
    for (int x = 0; x < c->n; x++) {
        if ((used >> x) & 1)
            continue;
        seg[x] = k ? (parent_seg[x] << 1) | ((c->adj[x] >> c->chosen[k - 1]) & 1) : 0;
        if (c->lower_twins[x] & ~used)
            continue;
        int i = count++; /* insertion sort by (segment, x): x rises, so stable */
        for (; i > 0 && seg[order[i - 1]] > seg[x]; i--)
            order[i] = order[i - 1];
        order[i] = x;
    }
    for (int i = 0; i < count; i++) {
        int x = order[i];
        if (!below && seg[x] > c->best[k])
            break; /* candidates are sorted; the rest only get larger */
        c->chosen[k] = x;
        c->prefix[k] = seg[x];
        if (place(c, k + 1, used | (uint64_t)1 << x, below || seg[x] < c->best[k], seg))
            return -1;
        if (below && !memcmp(c->best, c->prefix, k * sizeof *c->prefix))
            below = 0; /* best now extends this prefix */
    }
    return 0;
}

static PyObject *min_code(PyObject *self, PyObject *masks)
{
    Canon *c = PyMem_Calloc(1, sizeof(Canon));
    if (!c)
        return PyErr_NoMemory();
    PyObject *code = NULL;
    PyObject *fast = PySequence_Fast(masks, "min_code: expected a list or tuple");
    if (!fast)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n < 1 || n > 64) {
        PyErr_SetString(PyExc_ValueError, "min_code: n out of range");
        goto done;
    }
    c->n = (int)n;
    for (int v = 0; v < n; v++) {
        c->adj[v] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(fast, v));
        if (PyErr_Occurred())
            goto done;
        if ((n < 64 && c->adj[v] >> n) || ((c->adj[v] >> v) & 1)) {
            PyErr_SetString(PyExc_ValueError, "min_code: mask out of range");
            goto done;
        }
    }
    for (int x = 0; x < n; x++)
        for (int y = 0; y < x; y++)
            if ((c->adj[x] & ~((uint64_t)1 << y)) == (c->adj[y] & ~((uint64_t)1 << x)))
                c->lower_twins[x] |= (uint64_t)1 << y;
    memset(c->best, 0xFF, sizeof c->best);
    if (place(c, 0, 0, 0, NULL))
        goto done;
    /* code = (code << k) | best[k] for k = 1 .. n - 1, in Python integers:
     * n(n - 1)/2 bits do not fit one C integer. */
    code = PyLong_FromLong(0);
    for (int k = 1; code && k < n; k++) {
        PyObject *shift = PyLong_FromLong(k);
        PyObject *segment = PyLong_FromUnsignedLongLong(c->best[k]);
        PyObject *shifted = shift && segment ? PyNumber_Lshift(code, shift) : NULL;
        Py_SETREF(code, shifted ? PyNumber_Or(shifted, segment) : NULL);
        Py_XDECREF(shift);
        Py_XDECREF(segment);
        Py_XDECREF(shifted);
    }
done:
    Py_XDECREF(fast);
    PyMem_Free(c);
    return code;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(n, ends, deg, t, budget, after) -> (status, nodes, picked)"},
    {"min_code", min_code, METH_O, "min_code(masks) -> int"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_search", NULL, -1, methods};

PyMODINIT_FUNC PyInit__search(void)
{
    return PyModule_Create(&module);
}
