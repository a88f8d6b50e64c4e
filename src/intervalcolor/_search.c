/* The per-t search loop of intervalcolor.solver._search_py, in C.
 *
 * search(n, ends, deg, t, budget) -> (status, nodes, picked)
 *
 * ends lists the two endpoints of each edge in search order, deg the degree
 * of each of the n vertices; budget caps the nodes (0 = unlimited). status
 * is 0 infeasible, 1 found, 2 aborted; picked holds the color of each edge
 * in search order when found. Edge order, color order, node counting and
 * the prune rules (distinct, spread, surjectivity, the first edge's
 * reversal cut) are those of _search_py, so status, nodes and picked agree
 * with it on every input; the proofs are in solver.py's docstring.
 *
 * A vertex's colors are a bitmask of (t + 1) / 64 + 1 words, bit c for
 * color c, so every t runs here. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

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

/* Copies a list or tuple of len ints in [0, bound) into out; -1 with an
 * exception set otherwise. */
static int read_ints(PyObject *seq, Py_ssize_t len, long long bound, long long *out)
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
        else if (out[i] < 0 || out[i] >= bound) {
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
    PyObject *ends_obj, *deg_obj;
    if (!PyArg_ParseTuple(args, "nOOLL", &n, &ends_obj, &deg_obj, &t, &budget))
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
    long long *picked = PyMem_Calloc(m, sizeof(long long));
    long long *color_count = PyMem_Calloc(t + 1, sizeof(long long));
    uint64_t *mask = PyMem_Calloc((size_t)n * words, sizeof(uint64_t));
    PyObject *result = NULL;
    if (!ends || !deg || !picked || !color_count || !mask) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_ints(ends_obj, 2 * m, n, ends) || read_ints(deg_obj, n, n, deg))
        goto done;

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
         * lo and hi being v's least and greatest color (hi + 1 = bit_length). */
        long long from = max(c + 1, max(bit_length(mask_a, words) - deg[a],
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
    PyMem_Free(picked);
    PyMem_Free(color_count);
    PyMem_Free(mask);
    return result;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS, "search(n, ends, deg, t, budget) -> (status, nodes, picked)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_search", NULL, -1, methods};

PyMODINIT_FUNC PyInit__search(void)
{
    return PyModule_Create(&module);
}
