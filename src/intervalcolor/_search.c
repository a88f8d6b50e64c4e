/* The exhaustive loops of intervalcolor, in C: the descent of
 * _reference._search_py, the search plan of _reference._plan_py, the
 * verdict of coloring._report, the doubling certificate of doubling's
 * Python path, the canonical edges of graph.Graph (graph._index_py), the
 * color range check of coloring.EdgeColoring (coloring._check_colors_py),
 * the structural classification of graph.classify
 * (_reference._classify_py) and the catalog level of
 * _reference.extend. _reference is this module's Python twin, with the
 * same eight entries and arguments, which solver._native returns where
 * this module cannot be built or loaded.
 *
 * search(n, edges, max_m, top, bottom, budget) -> (status, nodes, last, colors)
 *
 * The descent of _reference._search_py over the palette sizes t = top,
 * top - 1, ..., bottom, 1 <= bottom <= top, of the connected graph on n
 * vertices with edges Graph.edges: an exact list or tuple of exact pairs
 * (a, b) of exact ints, a < b, strictly increasing. One plan is built and
 * one set of buffers allocated, and the layers are searched in turn.
 *
 * The plan holds what _reference._Plan holds, each field equal to
 * _reference._plan_py's, which the tests check through this entry's results.
 * order is the BFS edge order from the lowest-indexed vertex of maximum
 * degree, each vertex's edges taken in increasing neighbour order; ends the
 * endpoints of each edge in that order; deg the degrees; floors the orbit
 * rule: edge j's color is at least c(i) + step for each of its floors
 * (i, step), i < j, kept as 2 i + step; orbit the reversal rule: edge j != 0
 * of edge 0's orbit holds at most t + 1 - c(0). Each floor comes from an
 * automorphism: i is the first edge it moves and j the edge it sends onto i,
 * step 1 where they share a vertex. Twins x, y have equal open
 * neighbourhoods N(x) = N(y) or equal closed ones N[x] = N[y]: the 2n
 * neighbourhoods are sorted by their entries, each read in place from the
 * adjacency, and each run of equal ones is a class, so memory stays linear
 * in n + m. Each twin after the first of its class in BFS order is swapped
 * with the twin before it and with the first, 2c - 3 swaps in a class of
 * c; a swap's first moved edge k, the earliest edge at x or y other than
 * xy, gives the edge j that receives it the floor (k, 1). For m <= max_m, dist holds D(e, f) at e * m + f in BFS
 * positions and longest is its largest entry; otherwise there is no matrix.
 * D(e, f) is the cheapest path from edge e to edge f, a step between two
 * edges that share a vertex v costing deg(v) - 1, and D(e, e) = 0. A
 * Dijkstra from vertex u gives walk(u, v), the cheapest walk from u to v
 * with each vertex on it (ends included) costing deg - 1, and D(e, f) for
 * e != f is the least walk from an end of e to an end of f. With the
 * matrix, the harvest of _reference._harvest adds the automorphisms it
 * finds level by level down the BFS vertex order, pruned by degree, walk
 * total and walk, within HARVEST_WORK walk comparisons, letting Python
 * handle signals every HARVEST_POLL; edge 0's orbit is taken under them and
 * the twin swaps together.
 *
 * top is then capped at m and at the ceiling 1 + max D, above which no layer
 * has an interval coloring, and a range the caps leave empty gives
 * (0, 0, bottom, []). With the matrix, max D is longest. Without it, the
 * distance rule is off and D is read one row at a time, in BFS order, each
 * from one Dijkstra seeded at both ends of its edge, until the ceiling
 * reaches top, so that the cap is exact below top; above INT32_MAX / 3 edges,
 * where a walk could leave int32, the cap is m alone. Ctrl-C (a signal
 * handler that raises) stops either pass after its current walk. budget caps
 * the nodes of all layers together (0 = unlimited), and a layer whose turn
 * comes once it is spent aborts with no node. status is 1 when a layer is
 * feasible, 0 when every layer is infeasible and 2 when the budget ran out;
 * last is the last t decided (the feasible one, bottom, or one above the
 * aborted layer); colors holds each edge's color, by edge index, 0 for none:
 * the witness, the partial coloring of an aborted layer when the budget ran
 * out (in a sweep, its run's), or nothing when status is 0. Edge order,
 * color order, node counting, the anchor sweep below and the prune rules
 * (distinct, spread, surjectivity, the orbit and reversal rules, the
 * distance rule) are those of _search_py, so its four results
 * agree with this one given _plan_py's plan and the capped top; the proofs
 * are in solver.py's docstring. Malformed input raises
 * ValueError (TypeError for edges that are not a sequence).
 *
 * A vertex's colors are a bitmask of (top + 1) / 64 + 1 words, bit c for
 * color c, of which layer t reads the first (t + 1) / 64 + 1, so every t
 * runs here. A mask of as many words, used, marks the
 * colors on some edge, so that the least candidate is found a word at a
 * time: the lowest bit of the complement of both ends' masks, and of used
 * too when each edge left must take a color not yet used.
 *
 * The distance rule: every uncolored edge f keeps a range [lo_f, hi_f] of
 * colors, and once edge k holds c, f's range is cut to within D(k, f) of
 * c. A candidate x for edge k empties f's range exactly when
 * x < lo_f - D(k, f) or x > hi_f + D(k, f), and as D is a metric these
 * bounds lie within edge k's own range. Color 1, while no edge holds it,
 * must stay in some range after x is placed: x = 1, or x <= 1 + D(k, f)
 * for some f with lo_f = 1; color t likewise. All of these are bounds on x,
 * so the first entry into depth k narrows the ranges by edge k - 1's color
 * and computes edge k's candidate interval in one pass over the uncolored
 * edges; a row of ranges per depth lets a backtrack reuse both. The pass
 * runs only when the cheap bounds (spread, the floors and caps, the cap
 * below best, surjectivity and edge k's own range, from row k - 1 in O(1))
 * leave a candidate, and least and most keep edge k's bounds for its
 * backtracks. The ranges
 * are int32: t <= m, and D <= 2m - n, since a cheapest path passes a vertex
 * at most once and the vertices' deg - 1 sum to 2m - n, so every sum in
 * that pass stays below 3m, and no plan has a matrix of more than
 * INT32_MAX / 3 edges.
 *
 * The anchor sweep: with the matrix, a layer t whose anchor pairs, the
 * ordered pairs of edges (e, f) with D(e, f) >= t - 1 (for t = 1, the pairs
 * (e, e)), number at most 2m is decided by one run of the loop per pair, e
 * ascending and f descending in BFS positions, instead of one run over all
 * edges. A run for a pair is the loop with other first ranges: edge g's is
 * [t - D(f, g), 1 + D(e, g)] within [1, t], at least 2 for g < e and at
 * most t - 1 for g < f, which holds e at 1 and f at t, forced placements
 * that count no node. Once a run has found a coloring, best, each later
 * run searches only below it: where its positions so far match best, a
 * candidate is at most best's color. The layer's witness is the least
 * coloring found, and the node budget runs on across the runs. far,
 * counted while the matrix is filled, gives each layer's pair count at
 * once. The sweep skips the pairs the symmetry rules rule out: every e with
 * a floor, and every (e, f) with f in edge 0's orbit and e != 0. The proof
 * is in solver.py's docstring.
 *
 * automorphisms(n, edges, max_m) -> [images, ...]
 *
 * The automorphisms that search's plan harvests for the same n, edges and
 * max_m, each as a tuple of the n vertices' images, in the order found:
 * _reference.automorphisms's list. Malformed input raises ValueError as for
 * search, naming this entry.
 *
 * interval_ok(n, edges, colors, t) -> bool
 *
 * Whether colors, one per edge in 1..t, is an interval t-coloring of the
 * graph on n vertices with edges as for search(), 1 <= t <= len(edges): at
 * each vertex of positive degree, with lo and hi its least and greatest
 * color, hi - lo + 1 equals the degree and no color repeats, and every
 * color in 1..t is used. This is the verdict of coloring._report, which the
 * caller runs for a t above the edge count. colors is an exact list or
 * tuple; an entry that is not an exact int (a float, a bool) gives False,
 * so that _report decides.
 *
 * double(n, edges, colors, t, pairs, provenance)
 *     -> (h_edges, provenance, beta, i0, final) or None
 *
 * The doubling certificate of alpha, the interval t-coloring colors of the
 * graph G on n vertices with edges as for search(), 1 <= t <= len(edges):
 * what doubling.double_graph, lift_coloring and finalize_recolor build. H
 * has u_i = i and w_i = n + i, and h_edges lists its edges in canonical
 * order: for each i, the pairs (i, n + j) for the neighbours j of v_i and
 * for j = i, in increasing j. Each pair (a, b) with b < 64 is the shared
 * tuple pairs[b][a], pairs being graph._PAIRS as for index_graph, and each
 * other pair a new tuple. Each edge's provenance is the object
 * provenance[code], provenance being a list of at least 3 max(m, n)
 * entries (doubling._PROVENANCE), and its code 3 idx for
 * the cover edge of source edge idx, 3 idx + 1 for its flipped copy
 * (i > j) and 3 i + 2 for the matching edge u_i w_i. beta gives a cover
 * edge alpha + 1 and the matching edge at i max S(v_i) + 2; final is beta
 * with the matching edge at i0, the least i with min S(u_i) = 2, colored
 * 1. The result is None, and no field may be used, unless every check of
 * the Python path holds: G is connected, alpha is an interval t-coloring
 * of exact ints (interval_ok's test), H's edges cross U/W and number
 * 2m + n, H is connected, an r-regular G gives an (r + 1)-regular H,
 * min S(u_i) = min S(w_i) for every i, some i has min S(u_i) = 2, and final
 * is an interval (t + 2)-coloring. The caller then runs the Python path,
 * which raises its own error or accepts the input itself. Malformed input
 * raises ValueError.
 *
 * index_graph(n, edges, pairs) -> edges or None
 *
 * The canonical edges of graph.Graph for n vertices and edges, any list or
 * tuple of pairs, pairs being graph._PAIRS: each pair oriented as (a, b),
 * a < b, then sorted and deduplicated, as graph._index_py builds them. An
 * edge with b < 64 is the shared tuple pairs[b][a]; the others share one
 * int per vertex. Graph builds its adjacency and incidence from these edges
 * on first use, in Python on either path. The result is None for an input
 * that _index_py would treat otherwise: n not an int in 1 .. 2^32 - 1,
 * edges or a pair not an exact list or tuple, a pair of other than two
 * entries, an entry not an exact int, a loop or an endpoint out of range.
 * The caller then runs _index_py, which raises its own error or accepts the
 * input itself. A malformed pairs raises ValueError.
 *
 * in_palette(t, colors) -> bool
 *
 * Whether t is an int in 1 .. 2^63 - 1 and every entry of colors, a list
 * or tuple, is an int in 1..t, ints being exact (no bool, no subclass). When
 * false, the caller runs coloring._check_colors_py, which raises its own
 * error or accepts the colors itself.
 *
 * classify(n, edges) -> (connected, bipartition, regular_degree,
 *                        triangle_free, biregular_degrees, max_degree,
 *                        min_degree)
 *
 * The fields of graph.GraphClass for the graph on n >= 1 vertices with
 * edges as for search(), as _reference._classify_py gives them. One BFS
 * over every component, roots in index order and each root on side 0,
 * gives connectivity and the 2-coloring; bipartition is None unless it is
 * proper, and otherwise the increasing vertex tuples of sides 0 and 1. An
 * edge lies on a triangle exactly when the sorted neighbour lists of its
 * ends share a vertex, found by a merge that binary-searches the longer
 * list.
 * biregular_degrees is the sorted pair of the parts' degrees when each part
 * has a single degree, an empty part taking the other's. Malformed input
 * raises ValueError.
 *
 * extend(size, parents) -> {code: masks}
 *
 * One level of _reference.extend: parents, any iterable, gives each
 * parent as a tuple or list of its size - 1 adjacency masks, exact ints
 * below 1 << (size - 1) without their own bit, 2 <= size <= 64. For each
 * parent in turn and each nonempty subset S of its vertices in increasing
 * order, the child joins a new vertex size - 1 to S. A child is kept only
 * when no vertex whose removal leaves it connected (one bitmask BFS each)
 * has a smaller (degree, -sum of its neighbours' degrees) than the new
 * vertex, and is then canonicalised: its code is the minimum over all
 * vertex orderings of the column-order upper-triangle bits, read as one
 * integer MSB-first, found by the search of _reference._min_code_py with
 * its candidate order, prune and twin cut (the proofs are in catalog.py's
 * docstring). Only one child per orbit of the parent's automorphisms is
 * canonicalised: the canonical search runs on the parent first, and
 * each of its later leaves with the parent's code gives an automorphism
 * (PARENT_AUTS of them are kept), as does the swap of each vertex with its
 * least lower twin. The subsets are marked orbit by orbit under the group
 * these generate, in 2^(size - 1) bits and a queue of as many entries, and
 * a subset is skipped when an earlier one has marked it; for size - 1 above
 * ORBIT_MAX_OLD no marks are kept and every child is canonicalised. The
 * result maps each code to the masks of the first child with it, in the
 * order found, equal item for item to _reference.extend's (the proof is in
 * catalog.py's docstring). Malformed input raises ValueError.
 *
 * Each entry carves its buffers from one Scratch, a chain of zeroed chunks,
 * so that a small call allocates once, and frees them all with one release
 * on every exit. Out of memory raises MemoryError and leaves nothing
 * allocated, which tests/test_kernel_memory.py checks at every failing
 * allocation. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Once per 2^20 placements the loop lets Python handle signals, so that
 * Ctrl-C stops a long search as it stops the Python loop. */
#define SIGNAL_CHECK_MASK 0xFFFFF

static inline long long min(long long x, long long y) { return x < y ? x : y; }
static inline long long max(long long x, long long y) { return x > y ? x : y; }
static inline int32_t min32(int32_t x, int32_t y) { return x < y ? x : y; }
static inline int32_t max32(int32_t x, int32_t y) { return x > y ? x : y; }

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

/* The buffers of one kernel call, carved from zeroed chunks. take hands out
 * rows * cols items of size bytes at the next ALIGN boundary of the newest
 * chunk, a place of its own even for no items; a request that does not fit
 * gets a new chunk of max(request, CHUNK) bytes, whose first word points to
 * the chunk before it. take raises MemoryError and returns NULL when the
 * size overflows a size_t or memory runs out, and takes nothing more once
 * failed, so a caller tests failed once after its takes. release frees
 * every chunk. CHUNK, one page, holds every buffer of a search with the
 * matrix on up to 11 edges, and of the other entries on small graphs, so
 * such a call allocates once. 16 KiB would hold a search on 30 edges, but
 * zeroing it costs the small calls more than it saves the searches: in
 * paired benchmark runs a page was faster on survey6 and doubled. */
#define CHUNK 4096
#define ALIGN _Alignof(max_align_t)

typedef struct {
    void **chunk; /* the newest, or NULL */
    size_t used, size;
    int failed;
} Scratch;

static void *take(Scratch *s, size_t rows, size_t cols, size_t size)
{
    if (s->failed)
        return NULL;
    /* The place in whole ALIGN units, at least one; with the chunk's header
     * it stays within a size_t. */
    int fits = !cols || rows <= (SIZE_MAX - 2 * ALIGN) / cols / size;
    size_t bytes = fits ? (rows * cols * size + ALIGN - 1) / ALIGN * ALIGN : 0;
    bytes = bytes ? bytes : ALIGN;
    if (fits && s->size - s->used < bytes) { /* a new chunk; the first has size 0 */
        size_t whole = bytes + ALIGN > CHUNK ? bytes + ALIGN : CHUNK;
        void **chunk = PyMem_Calloc(1, whole);
        if ((fits = chunk != NULL)) {
            *chunk = s->chunk;
            *s = (Scratch){chunk, ALIGN, whole, 0};
        }
    }
    if (!fits) {
        s->failed = 1;
        PyErr_NoMemory();
        return NULL;
    }
    s->used += bytes;
    return (char *)s->chunk + s->used - bytes;
}

static void release(Scratch *s)
{
    while (s->chunk) {
        void **before = *s->chunk;
        PyMem_Free(s->chunk);
        s->chunk = before;
    }
}

/* The value of an exact int in [0, most], or -1 for any other object. */
static long long exact_index(PyObject *obj, long long most)
{
    if (!PyLong_CheckExact(obj))
        return -1;
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    return overflow || value < 0 || value > most ? -1 : value;
}

/* Whether seq is an exact tuple or list, and then its items and their
 * count; any other object's iteration could run code or be used up. */
static int exact_items(PyObject *seq, PyObject ***items, Py_ssize_t *size)
{
    if (!PyTuple_CheckExact(seq) && !PyList_CheckExact(seq))
        return 0;
    *items = PySequence_Fast_ITEMS(seq);
    *size = PySequence_Fast_GET_SIZE(seq);
    return 1;
}

/* Copies colors, an exact list or tuple of one color per each of the m
 * edges, into out: 1 if all are exact ints, 0 if one is not (the caller then
 * leaves them to the Python reference, as in_palette does), -1 with a
 * ValueError naming entry if colors is malformed or one lies outside 1..t. */
static int read_colors(PyObject *colors, Py_ssize_t m, long long t, long long *out,
                       const char *entry)
{
    PyObject **items;
    Py_ssize_t size;
    if (!exact_items(colors, &items, &size) || size != m) {
        PyErr_Format(PyExc_ValueError, "%s: colors must be a list or tuple, one per edge", entry);
        return -1;
    }
    for (Py_ssize_t e = 0; e < m; e++) {
        if (!PyLong_CheckExact(items[e]))
            return 0;
        if ((out[e] = exact_index(items[e], t)) < 1) {
            PyErr_Format(PyExc_ValueError, "%s: edge %zd has color %R outside 1..%lld", entry, e,
                         items[e], t);
            return -1;
        }
    }
    return 1;
}

/* A new tuple of the len values; NULL with an exception set on failure. */
static PyObject *ints_of(const long long *values, Py_ssize_t len)
{
    PyObject *seq = PyTuple_New(len);
    for (Py_ssize_t i = 0; seq && i < len; i++) {
        PyObject *v = PyLong_FromLongLong(values[i]);
        if (!v)
            Py_CLEAR(seq);
        else
            PyTuple_SET_ITEM(seq, i, v);
    }
    return seq;
}

/* Rows of graph._PAIRS: pairs[b][a] is the shared tuple (a, b), a < b < 64. */
#define SHARED_PAIRS 64

/* Whether pairs has the shape of graph._PAIRS, 64 exact tuples, row b of b
 * entries; 0 with ValueError naming entry otherwise. */
static int pairs_ok(PyObject *pairs, const char *entry)
{
    int ok = PyTuple_CheckExact(pairs) && PyTuple_GET_SIZE(pairs) == SHARED_PAIRS;
    for (Py_ssize_t b = 0; ok && b < SHARED_PAIRS; b++) {
        PyObject *row = PyTuple_GET_ITEM(pairs, b);
        ok = PyTuple_CheckExact(row) && PyTuple_GET_SIZE(row) == b;
    }
    if (!ok)
        PyErr_Format(PyExc_ValueError, "%s: pairs must be graph._PAIRS", entry);
    return ok;
}

/* A new reference to pairs[b][a], a < b < 64, of a pairs that passed
 * pairs_ok, checked to be the tuple (a, b); NULL with ValueError naming
 * entry otherwise. */
static PyObject *shared_pair(PyObject *pairs, long long a, long long b, const char *entry)
{
    PyObject *pair = PyTuple_GET_ITEM(PyTuple_GET_ITEM(pairs, b), a);
    if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2 ||
        exact_index(PyTuple_GET_ITEM(pair, 0), b) != a ||
        exact_index(PyTuple_GET_ITEM(pair, 1), b) != b) {
        PyErr_Format(PyExc_ValueError, "%s: pairs must be graph._PAIRS", entry);
        return NULL;
    }
    return Py_NewRef(pair);
}

/* Pops the least (cost << 32 | vertex) key of a binary min-heap of size *size. */
static uint64_t heap_pop(uint64_t *heap, Py_ssize_t *size)
{
    uint64_t top = heap[0], last = heap[--*size];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= *size)
            break;
        if (child + 1 < *size && heap[child + 1] < heap[child])
            child++;
        if (heap[child] >= last)
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

static void heap_push(uint64_t *heap, Py_ssize_t *size, uint64_t key)
{
    Py_ssize_t i = (*size)++;
    for (; i > 0 && heap[(i - 1) / 2] > key; i = (i - 1) / 2)
        heap[i] = heap[(i - 1) / 2];
    heap[i] = key;
}

/* Copies Graph.edges, an exact list or tuple of m exact pairs (a, b) of
 * exact ints in [0, n), a < b, strictly increasing, into edges, flat, as
 * index_graph reads them; -1 otherwise, with a ValueError that names the
 * entry and, where one edge is at fault, its index. No Python code runs. */
static int read_edges(PyObject *seq, Py_ssize_t n, Py_ssize_t m, long long *edges,
                      const char *entry)
{
    PyObject **items, **ends;
    Py_ssize_t size, arity;
    if (!exact_items(seq, &items, &size) || size != m) {
        PyErr_Format(PyExc_ValueError, "%s: edges must be a list or tuple", entry);
        return -1;
    }
    for (Py_ssize_t e = 0; e < m; e++) {
        if (!exact_items(items[e], &ends, &arity) || arity != 2) {
            PyErr_Format(PyExc_ValueError, "%s: edge %zd is not a pair (a, b)", entry, e);
            return -1;
        }
        for (int i = 0; i < 2; i++) {
            if (!PyLong_CheckExact(ends[i])) {
                PyErr_Format(PyExc_ValueError, "%s: edge %zd has an end that is not an int",
                             entry, e);
                return -1;
            }
            if ((edges[2 * e + i] = exact_index(ends[i], n - 1)) < 0) {
                PyErr_Format(PyExc_ValueError, "%s: edge %zd has an end outside [0, %zd)", entry,
                             e, n);
                return -1;
            }
        }
        long long a = edges[2 * e], b = edges[2 * e + 1];
        if (a >= b || (e && (a < edges[2 * e - 2] ||
                             (a == edges[2 * e - 2] && b <= edges[2 * e - 1])))) {
            PyErr_Format(PyExc_ValueError, "%s: edges must be increasing pairs (a, b), a < b", entry);
            return -1;
        }
    }
    return 0;
}

/* The adjacency of the graph with the m sorted edges: deg, zeroed on entry,
 * gets the degrees, and nbr[start[v] .. start[v + 1]) lists v's neighbours
 * in increasing order, inc the edge to each. */
static void adjacency(Py_ssize_t n, Py_ssize_t m, const long long *edges, long long *deg,
                      Py_ssize_t *start, Py_ssize_t *nbr, Py_ssize_t *inc)
{
    for (Py_ssize_t i = 0; i < 2 * m; i++)
        deg[edges[i]]++;
    start[0] = 0;
    for (Py_ssize_t v = 0; v < n; v++)
        start[v + 1] = start[v] + deg[v];
    /* Edges are sorted, so each vertex's neighbours arrive in increasing
     * order; the fill moves each start one list on, and the loop after it
     * moves them back. */
    for (Py_ssize_t e = 0; e < m; e++) {
        long long a = edges[2 * e], b = edges[2 * e + 1];
        nbr[start[a]] = b;
        inc[start[a]++] = e;
        nbr[start[b]] = a;
        inc[start[b]++] = e;
    }
    for (Py_ssize_t v = n; v > 0; v--)
        start[v] = start[v - 1];
    start[0] = 0;
}

/* cost[v] = min(walk(a, v), walk(b, v)) for every vertex v (search()), on
 * the adjacency (start, nbr); heap holds 2m + 2 keys, one push per end and
 * per relaxation. Python then handles signals: -1 with an exception set if
 * a handler raises, as Ctrl-C's does. */
static int walk_from(Py_ssize_t a, Py_ssize_t b, Py_ssize_t n, const long long *deg,
                     const Py_ssize_t *start, const Py_ssize_t *nbr, uint64_t *heap, int32_t *cost)
{
    for (Py_ssize_t v = 0; v < n; v++)
        cost[v] = INT32_MAX;
    Py_ssize_t size = 0;
    cost[a] = (int32_t)(deg[a] - 1), cost[b] = (int32_t)(deg[b] - 1);
    heap_push(heap, &size, (uint64_t)cost[a] << 32 | (uint64_t)a);
    heap_push(heap, &size, (uint64_t)cost[b] << 32 | (uint64_t)b);
    while (size) {
        uint64_t key = heap_pop(heap, &size);
        long long c = (long long)(key >> 32), u = (long long)(key & 0xFFFFFFFF);
        if (c > cost[u])
            continue;
        for (Py_ssize_t i = start[u]; i < start[u + 1]; i++) {
            Py_ssize_t v = nbr[i];
            if (c + deg[v] - 1 < cost[v]) {
                cost[v] = (int32_t)(c + deg[v] - 1);
                heap_push(heap, &size, (uint64_t)cost[v] << 32 | (uint64_t)v);
            }
        }
    }
    return PyErr_CheckSignals();
}

/* The ceiling search() caps top at, for the ends in BFS order, filling d
 * when given, and counting in far[min(D, m)] the ordered pairs at each
 * distance, with the walk rows and heap make_plan takes for it; -1 with an
 * exception set if a signal handler raises after a walk. */
static long long path_ceiling(Py_ssize_t n, Py_ssize_t m, const long long *ends,
                              const long long *deg, const Py_ssize_t *start, const Py_ssize_t *nbr,
                              int32_t *walk, uint64_t *heap, int32_t *d, long long *far,
                              long long top)
{
    for (Py_ssize_t v = 0; d && v < n; v++)
        if (walk_from(v, v, n, deg, start, nbr, heap, walk + v * n))
            return -1;
    long long longest = 0;
    for (Py_ssize_t e = 0; e < m; e++) {
        long long a = ends[2 * e], b = ends[2 * e + 1];
        if (!d) { /* one walk from both of e's ends, in row 0 */
            if (walk_from(a, b, n, deg, start, nbr, heap, walk))
                return -1;
            a = b = 0;
        }
        const int32_t *from_a = walk + a * n, *from_b = walk + b * n;
        for (Py_ssize_t f = 0; f < m; f++) {
            long long x = ends[2 * f], y = ends[2 * f + 1];
            long long value = e == f ? 0 : min(min(from_a[x], from_a[y]), min(from_b[x], from_b[y]));
            if (d) {
                d[e * m + f] = (int32_t)value;
                far[min(value, m)]++;
            }
            longest = max(longest, value);
        }
        if (!d && longest + 1 >= top)
            break;
    }
    return 1 + longest;
}

/* A vertex v's open or closed neighbourhood of size entries, read in place
 * from v's increasing neighbours nbr with v itself at slot: entry i is
 * nbr[i] below slot, v at slot and nbr[i - 1] above it. N(v) has slot
 * size, past its last entry. */
typedef struct {
    const Py_ssize_t *nbr;
    Py_ssize_t size, slot, v;
} Hood;

static Py_ssize_t entry(const Hood *h, Py_ssize_t i)
{
    return i < h->slot ? h->nbr[i] : i == h->slot ? h->v : h->nbr[i - 1];
}

/* Neighbourhoods by size and entries: 0 for equal ones. */
static int by_entries(const Hood *p, const Hood *q)
{
    if (p->size != q->size)
        return p->size < q->size ? -1 : 1;
    for (Py_ssize_t i = 0; i < p->size; i++) {
        Py_ssize_t a = entry(p, i), b = entry(q, i);
        if (a != b)
            return a < b ? -1 : 1;
    }
    return 0;
}

static int by_hood(const void *x, const void *y)
{
    const Hood *p = x, *q = y;
    int order = by_entries(p, q);
    return order ? order : (p->v > q->v) - (p->v < q->v);
}

/* The root of v's tree in a union-find forest, halving the path to it. */
static Py_ssize_t root_of(Py_ssize_t *parent, Py_ssize_t v)
{
    while (parent[v] != v)
        v = parent[v] = parent[parent[v]];
    return v;
}

static void join(Py_ssize_t *parent, Py_ssize_t x, Py_ssize_t y)
{
    parent[root_of(parent, x)] = root_of(parent, y);
}

/* The symmetry rules as make_plan collects them: the orbit rule's floors,
 * each as its edge j and code 2 i + step (c(j) >= c(i) + step), in the
 * order found, and a union-find over the edges' BFS positions whose class
 * of 0 is edge 0's orbit. found, when not NULL, gets each harvested
 * automorphism as a tuple of images (automorphisms()). */
typedef struct {
    Py_ssize_t m, floors;
    const long long *ends;
    const Py_ssize_t *start, *nbr, *inc, *position;
    Py_ssize_t *orbit, *image;
    long long *floor_at, *floor_code;
    PyObject *found;
} Symmetry;

/* The BFS position of edge vu, u one of v's increasing neighbours. */
static Py_ssize_t edge_at(const Symmetry *y, Py_ssize_t v, Py_ssize_t u)
{
    Py_ssize_t at = y->start[v], end = y->start[v + 1];
    while (at < end) {
        Py_ssize_t mid = at + (end - at) / 2;
        if (y->nbr[mid] < u)
            at = mid + 1;
        else
            end = mid;
    }
    return y->position[y->inc[at]];
}

/* Adds the floor of the swap of twins x and v: it moves the edges at x or v
 * other than xv, and the first moved edge, (x, u) at position k, receives
 * (v, u), which joins the partner v to u, so the floor (k, 1) on it. K2's
 * swap moves no edge. */
static void twin_swap(Symmetry *y, Py_ssize_t x, Py_ssize_t v)
{
    Py_ssize_t k = PY_SSIZE_T_MAX, partner = -1, u = -1;
    for (int side = 0; side < 2; side++) {
        Py_ssize_t a = side ? v : x, b = side ? x : v;
        for (Py_ssize_t j = y->start[a]; j < y->start[a + 1]; j++) {
            if (y->nbr[j] != b && y->position[y->inc[j]] < k) {
                k = y->position[y->inc[j]];
                partner = b;
                u = y->nbr[j];
            }
        }
    }
    if (partner >= 0) {
        y->floor_at[y->floors] = edge_at(y, partner, u);
        y->floor_code[y->floors++] = 2 * k + 1;
    }
}

/* Takes the automorphism sigma, of n vertices: joins each edge to its image
 * and adds the orbit rule's floor on the edge that the first moved edge
 * receives (only K2's swap moves no edge); -1 with an exception set. */
static int record(Symmetry *y, const Py_ssize_t *sigma, Py_ssize_t n)
{
    const long long *ends = y->ends;
    Py_ssize_t first = -1, j = 0;
    for (Py_ssize_t k = 0; k < y->m; k++) {
        y->image[k] = edge_at(y, sigma[ends[2 * k]], sigma[ends[2 * k + 1]]);
        join(y->orbit, k, y->image[k]);
        if (first < 0 && y->image[k] != k)
            first = k;
    }
    if (first >= 0) {
        while (y->image[j] != first)
            j++;
        long long a = ends[2 * first], b = ends[2 * first + 1];
        int share = ends[2 * j] == a || ends[2 * j] == b || ends[2 * j + 1] == a ||
                    ends[2 * j + 1] == b;
        y->floor_at[y->floors] = j;
        y->floor_code[y->floors++] = 2 * first + share;
    }
    if (!y->found)
        return 0;
    PyObject *tuple = PyTuple_New(n);
    for (Py_ssize_t v = 0; tuple && v < n; v++) {
        PyObject *image = PyLong_FromSsize_t(sigma[v]);
        if (!image)
            Py_CLEAR(tuple);
        else
            PyTuple_SET_ITEM(tuple, v, image);
    }
    int failed = !tuple || PyList_Append(y->found, tuple);
    Py_XDECREF(tuple);
    return -failed;
}

/* The harvest's bound on its work, walk comparisons, as
 * _reference.HARVEST_WORK, and how often it lets Python handle signals. */
#define HARVEST_WORK (1LL << 22)
#define HARVEST_POLL (1LL << 16)

/* The automorphisms of _reference._harvest, each given to record as found,
 * for the graph with the adjacency (start, nbr) and the walk rows of
 * path_ceiling, in the BFS vertex order visit with BFS parents parent, and
 * next[x] the twin after x in that order, or -1. The rest are buffers of n.
 * -1 with an exception set, as when a signal handler raises. */
static int harvest(Symmetry *y, Py_ssize_t n, const long long *deg, const Py_ssize_t *visit,
                   const Py_ssize_t *parent, const Py_ssize_t *next, const int32_t *walk,
                   long long *total, Py_ssize_t *at, Py_ssize_t *root, Py_ssize_t *sigma,
                   char *taken, Py_ssize_t *choice)
{
    const Py_ssize_t *start = y->start, *nbr = y->nbr;
    for (Py_ssize_t k = 0; k < n; k++) {
        at[visit[k]] = k;
        root[k] = k;
        total[k] = 0;
        for (Py_ssize_t v = 0; v < n; v++)
            total[k] += walk[k * n + v];
    }
    long long work = 0, poll = HARVEST_POLL;
#define SPEND(units)                                                                               \
    do {                                                                                           \
        if ((work += (units)) > HARVEST_WORK)                                                      \
            return 0;                                                                              \
        if (work >= poll) {                                                                        \
            poll += HARVEST_POLL;                                                                  \
            if (PyErr_CheckSignals())                                                              \
                return -1;                                                                         \
        }                                                                                          \
    } while (0)
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        Py_ssize_t u = visit[i];
        if (next[u] >= 0)
            join(root, u, next[u]);
        /* Images of u: any vertex at the root, else a neighbour of its
         * parent, which stays fixed. */
        Py_ssize_t from = i ? start[parent[u]] : 0, to = i ? start[parent[u] + 1] : n;
        for (Py_ssize_t q = from; q < to; q++) {
            Py_ssize_t w = i ? nbr[q] : q, k;
            if (at[w] <= i || deg[w] != deg[u] || total[w] != total[u] ||
                root_of(root, w) == root_of(root, u))
                continue;
            SPEND(i);
            const int32_t *row_u = walk + u * n, *row_w = walk + w * n;
            for (k = 0; k < i && row_u[visit[k]] == row_w[visit[k]]; k++)
                ;
            if (k < i)
                continue;
            for (k = 0; k < n; k++) {
                sigma[visit[k]] = k < i ? visit[k] : -1;
                taken[visit[k]] = k < i;
            }
            sigma[u] = w;
            taken[w] = 1;
            for (k = i + 1; i < k && k < n;) {
                Py_ssize_t x = visit[k], image = sigma[parent[x]];
                Py_ssize_t base = start[image], size = start[image + 1] - base;
                if (sigma[x] >= 0) { /* backtracked to: the next option */
                    taken[sigma[x]] = 0;
                    sigma[x] = -1;
                    choice[k]++;
                } else {
                    choice[k] = 0;
                }
                for (; choice[k] < size; choice[k]++) {
                    Py_ssize_t v = nbr[base + choice[k]], j;
                    if (taken[v] || deg[v] != deg[x] || total[v] != total[x])
                        continue;
                    SPEND(k);
                    const int32_t *row_x = walk + x * n, *row_v = walk + v * n;
                    for (j = 0; j < k && row_x[visit[j]] == row_v[sigma[visit[j]]]; j++)
                        ;
                    if (j == k)
                        break;
                }
                if (choice[k] == size) {
                    k--;
                    continue;
                }
                sigma[x] = nbr[base + choice[k]];
                taken[sigma[x]] = 1;
                k++;
            }
            if (k < n)
                continue;
            if (record(y, sigma, n))
                return -1;
            for (Py_ssize_t v = 0; v < n; v++)
                join(root, v, sigma[v]);
        }
    }
#undef SPEND
    return 0;
}

/* The search plan of the connected graph on n vertices with the edges of
 * edges_obj (search()), in buffers from one Scratch: dist is the m x m matrix
 * or NULL when m > max_m, far[d] for 0 <= d <= m the ordered pairs of edges
 * with D(e, f) >= d, with dist, and ceiling what path_ceiling returns for
 * top. floor_code[floor_start[j] .. floor_start[j + 1]) holds edge j's
 * floors, 2 i + step each, and orbit[j] is 1 for the edges of edge 0's
 * orbit. */
typedef struct {
    Py_ssize_t m;
    long long *order, *ends, *deg, *floor_start, *floor_code, *far, ceiling;
    char *orbit;
    int32_t *dist;
} Plan;

/* Builds out for search(), with the harvested automorphisms appended to
 * found when it is not NULL; -1 with an exception set, whose message names
 * entry. */
static int make_plan(Scratch *s, const char *entry, Py_ssize_t n, PyObject *edges_obj,
                     Py_ssize_t max_m, long long top, Plan *out, PyObject *found)
{
    Py_ssize_t m = PyObject_Length(edges_obj);
    if (m < 0)
        return -1;
    if (n < 1 || m < 1 || max_m < 0) {
        PyErr_Format(PyExc_ValueError, "%s: n, edges or max_m out of range", entry);
        return -1;
    }
    /* A larger matrix would take over 2^60 bytes; this bound also keeps the
     * sums of search's range pass within int32. */
    if (m <= max_m && m > INT32_MAX / 3) {
        PyErr_NoMemory();
        return -1;
    }
    long long *edges = take(s, m, 2, sizeof(long long)); /* in Graph.edges order */
    long long *ends = take(s, m, 2, sizeof(long long));  /* in BFS order */
    long long *deg = take(s, n, 1, sizeof(long long));
    long long *order = take(s, m, 1, sizeof(long long));
    long long *floor_start = take(s, m + 1, 1, sizeof(long long));
    char *orbit = take(s, m, 1, 1);
    int32_t *dist = m <= max_m ? take(s, m, m, sizeof(int32_t)) : NULL;
    long long *far = dist ? take(s, m + 1, 1, sizeof(long long)) : NULL;
    /* Adjacency: nbr[start[v] .. start[v + 1]) in increasing order, inc the
     * edge to each. */
    Py_ssize_t *start = take(s, n + 1, 1, sizeof(Py_ssize_t));
    Py_ssize_t *nbr = take(s, m, 2, sizeof(Py_ssize_t));
    Py_ssize_t *inc = take(s, m, 2, sizeof(Py_ssize_t));
    Py_ssize_t *position = take(s, m, 1, sizeof(Py_ssize_t));
    Py_ssize_t *visit = take(s, n, 1, sizeof(Py_ssize_t)); /* the BFS queue */
    Py_ssize_t *parent = take(s, n, 1, sizeof(Py_ssize_t));
    Py_ssize_t *next = take(s, n, 1, sizeof(Py_ssize_t)); /* the next twin in BFS order */
    Py_ssize_t *group = take(s, n, 3, sizeof(Py_ssize_t)); /* each vertex's class, -1 for none */
    Py_ssize_t *latest = group + n, *lead = group + 2 * n;
    Py_ssize_t *edge_root = take(s, m, 1, sizeof(Py_ssize_t));
    Py_ssize_t *image = take(s, m, 1, sizeof(Py_ssize_t));
    Hood *hood = take(s, n, 2, sizeof(Hood)); /* each vertex's two */
    /* The floors, at most one per twin swap (2n of them) and n - 1
     * harvested, as edge and code in the order found, then the codes sorted
     * by edge. */
    long long *floor_at = take(s, n, 3, sizeof(long long));
    long long *floor_code = take(s, n, 6, sizeof(long long));
    /* path_ceiling's walks (a row per vertex, or one row, from both ends of
     * an edge, without dist) and heap, unless a walk cost could leave int32;
     * with dist, the harvest's buffers. */
    int walks = m <= INT32_MAX / 3;
    int32_t *walk = walks ? take(s, dist ? n : 1, n, sizeof(int32_t)) : NULL;
    uint64_t *heap = walks ? take(s, 2 * m + 2, 1, sizeof(uint64_t)) : NULL;
    long long *total = dist ? take(s, n, 1, sizeof(long long)) : NULL;
    Py_ssize_t *at = dist ? take(s, n, 3, sizeof(Py_ssize_t)) : NULL;
    char *taken = dist ? take(s, n, 1, 1) : NULL;
    if (s->failed)
        return -1;
    if (read_edges(edges_obj, n, m, edges, entry))
        return -1;
    adjacency(n, m, edges, deg, start, nbr, inc);
    Py_ssize_t root = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        if (deg[v] > deg[root])
            root = v;
        parent[v] = next[v] = group[v] = latest[v] = -1;
    }

    for (Py_ssize_t e = 0; e < m; e++)
        position[e] = -1;
    Py_ssize_t placed = 0, head = 0, tail = 0;
    parent[root] = root;
    visit[tail++] = root;
    while (head < tail) {
        Py_ssize_t u = visit[head++];
        for (Py_ssize_t i = start[u]; i < start[u + 1]; i++) {
            if (position[inc[i]] < 0) {
                position[inc[i]] = placed;
                order[placed++] = inc[i];
            }
            if (parent[nbr[i]] < 0) {
                parent[nbr[i]] = u;
                visit[tail++] = nbr[i];
            }
        }
    }
    if (tail < n) {
        PyErr_Format(PyExc_ValueError, "%s: the graph must be connected", entry);
        return -1;
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        ends[2 * k] = edges[2 * order[k]];
        ends[2 * k + 1] = edges[2 * order[k] + 1];
        edge_root[k] = k;
    }

    /* Twins: vertices with equal open or equal closed neighbourhoods. No
     * open one equals a closed one (_reference._plan_py), so each run of
     * equal neighbourhoods in sorted order is one class, named here by its
     * least vertex, the run's first. */
    for (Py_ssize_t v = 0; v < n; v++) {
        Py_ssize_t size = start[v + 1] - start[v], slot = 0;
        while (slot < size && nbr[start[v] + slot] < v)
            slot++;
        hood[2 * v] = (Hood){nbr + start[v], size, size, v};
        hood[2 * v + 1] = (Hood){nbr + start[v], size + 1, slot, v};
    }
    qsort(hood, 2 * n, sizeof(Hood), by_hood);
    for (Py_ssize_t lo = 0, hi; lo < 2 * n; lo = hi)
        for (hi = lo + 1; hi < 2 * n && !by_entries(&hood[hi], &hood[lo]); hi++)
            group[hood[hi].v] = group[hood[lo].v] = hood[lo].v;
    /* The twin swaps: each twin after the first of its class in BFS order,
     * with the twin just before it and with the first (_reference._plan_py),
     * lead[c] being class c's first and latest[c] its last so far. The
     * swaps with the twin before generate every swap of a class, so they
     * join edge 0's orbit as all of them would, and next links them for the
     * harvest. */
    Symmetry y = {m, 0, ends, start, nbr, inc, position, edge_root, image, floor_at, floor_code,
                  found};
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t v = visit[i], c = group[v], before = c >= 0 ? latest[c] : -1;
        if (c >= 0)
            latest[c] = v;
        if (c >= 0 && before < 0)
            lead[c] = v;
        if (before < 0)
            continue;
        next[before] = v;
        twin_swap(&y, before, v);
        if (lead[c] != before)
            twin_swap(&y, lead[c], v);
        for (Py_ssize_t j = start[before]; j < start[before + 1]; j++)
            if (nbr[j] != v)
                join(edge_root, position[inc[j]], edge_at(&y, v, nbr[j]));
    }

    long long ceiling =
        walks ? path_ceiling(n, m, ends, deg, start, nbr, walk, heap, dist, far, top) : m;
    if (ceiling < 0 || (dist && harvest(&y, n, deg, visit, parent, next, walk, total, at,
                                        at + n, at + 2 * n, taken, group /* spent */)))
        return -1;
    for (Py_ssize_t d = m - 1; dist && d >= 0; d--)
        far[d] += far[d + 1];
    /* Each edge's floors together, in the order found; image[j] is where
     * edge j's next one goes. */
    long long *code = floor_code + 3 * n;
    for (Py_ssize_t q = 0; q < y.floors; q++)
        floor_start[floor_at[q] + 1]++;
    for (Py_ssize_t j = 0; j < m; j++) {
        floor_start[j + 1] += floor_start[j];
        image[j] = floor_start[j];
        orbit[j] = root_of(edge_root, j) == root_of(edge_root, 0);
    }
    for (Py_ssize_t q = 0; q < y.floors; q++)
        code[image[floor_at[q]]++] = floor_code[q];
    *out = (Plan){m, order, ends, deg, floor_start, code, far, ceiling, orbit, dist};
    return 0;
}

/* The buffers and counts that the runs of one search() call share. A run
 * that finds no coloring has taken every color off again, and a sweep takes
 * a found one off (clear_colors), so each run starts from empty masks and
 * counts. */
typedef struct {
    Py_ssize_t m;
    const long long *ends, *deg, *floor_start, *floor_code;
    const char *orbit;
    const int32_t *dist;
    long long stride, budget, nodes;
    /* picked[k]: the color of the k-th edge in BFS order, 0 for none. best:
     * the least coloring a layer's sweep has found. least[k] and most[k]:
     * the bounds on edge k's candidates that its first entry finds, which
     * hold until a depth before it changes its color. */
    long long *picked, *best, *color_count, *least, *most;
    /* n vertex masks, then used: bit c set while some edge holds color c. */
    uint64_t *mask, *used;
    /* Row k of lo and hi: the ranges at depth k, for edges k + 1 .. m - 1. */
    int32_t *lo, *hi;
} Layer;

/* Takes the color off the edge at position k. */
static void take_off(Layer *L, Py_ssize_t k)
{
    long long c = L->picked[k];
    uint64_t bit = (uint64_t)1 << (c & 63);
    L->mask[L->ends[2 * k] * L->stride + (c >> 6)] ^= bit;
    L->mask[L->ends[2 * k + 1] * L->stride + (c >> 6)] ^= bit;
    if (!--L->color_count[c])
        L->used[c >> 6] ^= bit;
    L->picked[k] = 0;
}

/* Takes every color off again. */
static void clear_colors(Layer *L)
{
    for (Py_ssize_t k = 0; k < L->m; k++)
        if (L->picked[k])
            take_off(L, k);
}

/* One run of the loop at palette size t: for an anchor pair (e, f), its
 * first ranges hold e at 1 and f at t, which it places at no node (no pair
 * when e is -1; e = f when t = 1), and, when bounded, it searches below best.
 * 1 when it colors every edge, 0 when it cannot, with every color taken off
 * again, 2 when the budget runs out (picked then holds the partial
 * coloring), -1 with an exception set. Inlined, so that the run without a
 * pair compiles with e = f = -1 folded in: as a function of its own it cost
 * the benchmark's search calls about 5% (paired runs, 2-core Xeon). */
static inline __attribute__((always_inline)) int run(Layer *L, long long t, Py_ssize_t e,
                                                     Py_ssize_t f, int bounded)
{
    const Py_ssize_t m = L->m;
    const long long *ends = L->ends, *deg = L->deg, *best = L->best;
    const long long *floor_start = L->floor_start, *floor_code = L->floor_code;
    const char *orbit = L->orbit;
    const int32_t *dist = L->dist, t32 = (int32_t)t;
    long long *picked = L->picked, *color_count = L->color_count;
    long long *least = L->least, *most = L->most;
    uint64_t *mask = L->mask, *used = L->used;
    int32_t *lo = L->lo, *hi = L->hi;
    const long long stride = L->stride, budget = L->budget;
    const long long words = (t + 1) / 64 + 1; /* the words colors 0..t lie in */
    long long nodes = L->nodes, unused = t;   /* colors on no edge yet */
    Py_ssize_t tie = bounded ? 0 : -1;        /* the positions before tie match best */
    int result;
    Py_ssize_t k = 0;
    while (k >= 0 && k < m) {
        long long a = ends[2 * k], b = ends[2 * k + 1];
        uint64_t *mask_a = mask + a * stride, *mask_b = mask + b * stride;
        long long c = picked[k];
        if (c) {
            uint64_t bit = (uint64_t)1 << (c & 63);
            mask_a[c >> 6] ^= bit;
            mask_b[c >> 6] ^= bit;
            if (!--color_count[c]) {
                used[c >> 6] ^= bit;
                unused++;
            }
        } else {
            /* First entry. Spread: a new color at v lies in
             * [hi - deg(v) + 1, lo + deg(v) - 1], lo and hi being v's least
             * and greatest color (hi + 1 = bit_length). Orbit rule: at least
             * c(i) + step for each floor. Reversal rule: edge 0 holds at
             * most (t + 1) / 2, and each other edge of its orbit at most
             * t + 1 - c(0). Below best: where the run matches best before
             * k, at most best's color. Surjectivity: no more colors unused
             * than edges left. */
            long long low = max(bit_length(mask_a, words) - deg[a],
                                bit_length(mask_b, words) - deg[b]);
            for (long long q = floor_start[k]; q < floor_start[k + 1]; q++)
                low = max(low, picked[floor_code[q] >> 1] + (floor_code[q] & 1));
            long long high = min(lowest(mask_a, words, t) + deg[a] - 1,
                                 lowest(mask_b, words, t) + deg[b] - 1);
            high = min(high, !k ? (t + 1) / 2 : orbit[k] ? t + 1 - picked[0] : t);
            if (tie >= k)
                high = min(high, best[k]);
            if (unused > m - k)
                high = 0;
            if (dist) {
                /* The distance rule: edge k's own range, from the ranges of
                 * depth k - 1 narrowed by its color x, or from row 0: [1, t],
                 * or the pair's (solver.py). Only when that leaves a
                 * candidate does the pass narrow the later ranges, and bound
                 * edge k's candidates by where colors 1 and t can still go;
                 * each later range's bounds lo_f - D(k, f) and
                 * hi_f + D(k, f) lie within edge k's own. Two loops, each
                 * reading D before it writes a range: one loop over both
                 * cases ran the static loop's feasible layers about 40%
                 * slower (GCC 12 -O2, 2-core Xeon). */
                const int32_t *near = dist + k * m;
                int32_t *lo_k = lo + k * m, *hi_k = hi + k * m;
                int32_t reach_one = 1, reach_top = t32, l = 1, h = t32;
                if (k) {
                    const int32_t *prev = near - m, *lo_prev = lo_k - m, *hi_prev = hi_k - m;
                    const int32_t x = (int32_t)picked[k - 1];
                    l = max32(lo_prev[k], x - prev[k]);
                    h = min32(hi_prev[k], x + prev[k]);
                    if (max(low, l) <= min(high, h)) {
                        for (Py_ssize_t g = k + 1; g < m; g++) {
                            int32_t d = near[g];
                            int32_t lg = max32(lo_prev[g], x - prev[g]);
                            int32_t hg = min32(hi_prev[g], x + prev[g]);
                            lo_k[g] = lg;
                            hi_k[g] = hg;
                            reach_one = max32(reach_one, lg == 1 ? 1 + d : 1);
                            reach_top = min32(reach_top, hg == t32 ? t32 - d : t32);
                        }
                    }
                } else {
                    if (e >= 0) {
                        l = max32(0 < e ? 2 : 1, t32 - dist[f * m]);
                        h = min32(0 < f ? t32 - 1 : t32, 1 + dist[e * m]);
                    }
                    if (max(low, l) <= min(high, h)) {
                        for (Py_ssize_t g = 1; g < m; g++) {
                            int32_t d = near[g], lg = 1, hg = t32;
                            if (e >= 0) {
                                lg = max32(g < e ? 2 : 1, t32 - dist[f * m + g]);
                                hg = min32(g < f ? t32 - 1 : t32, 1 + dist[e * m + g]);
                            }
                            lo_k[g] = lg;
                            hi_k[g] = hg;
                            reach_one = max32(reach_one, lg == 1 ? 1 + d : 1);
                            reach_top = min32(reach_top, hg == t32 ? t32 - d : t32);
                        }
                    }
                }
                low = max(low, color_count[t] ? l : max32(l, reach_top));
                high = min(high, color_count[1] ? h : min32(h, reach_one));
            }
            least[k] = low;
            most[k] = high;
        }
        /* The least color in [max(c + 1, least), most] on neither end, and
         * on no edge at all when exactly as many edges as unused colors
         * remain (surjectivity), taken a word at a time. */
        long long from = max(c + 1, least[k]), to = most[k];
        c = 0;
        if (from <= to) {
            uint64_t shun = unused == m - k ? ~(uint64_t)0 : 0;
            long long w = from >> 6, end = to >> 6;
            uint64_t avail = ~(uint64_t)0 << (from & 63);
            for (;; w++, avail = ~(uint64_t)0) {
                avail &= ~(mask_a[w] | mask_b[w] | (used[w] & shun));
                if (w == end)
                    avail &= ~(uint64_t)0 >> (63 - (to & 63));
                if (avail || w == end)
                    break;
            }
            if (avail)
                c = 64 * w + __builtin_ctzll(avail);
        }
        if (!c) {
            picked[k--] = 0;
            continue;
        }
        /* The pair's placements are forced: they count no node. */
        if (k != e && k != f) {
            if (budget && nodes >= budget) {
                picked[k] = 0; /* its color is off: the run's edges before k stay colored */
                result = 2;
                goto out;
            }
            if (!(nodes & SIGNAL_CHECK_MASK) && PyErr_CheckSignals()) {
                result = -1;
                goto out;
            }
            nodes++;
        }
        uint64_t bit = (uint64_t)1 << (c & 63);
        mask_a[c >> 6] |= bit;
        mask_b[c >> 6] |= bit;
        if (!color_count[c]++) {
            used[c >> 6] |= bit;
            unused--;
        }
        picked[k] = c;
        if (tie >= k)
            tie = c == best[k] ? k + 1 : k;
        k++;
    }
    result = k >= 0;
out:
    L->nodes = nodes;
    return result;
}

static PyObject *search(PyObject *self, PyObject *args)
{
    Py_ssize_t n, max_m;
    long long top, bottom, budget;
    PyObject *edges_obj;
    if (!PyArg_ParseTuple(args, "nOnLLL", &n, &edges_obj, &max_m, &top, &bottom, &budget))
        return NULL;
    if (bottom < 1 || bottom > top || budget < 0) {
        PyErr_SetString(PyExc_ValueError, "search: palette range or budget out of range");
        return NULL;
    }
    PyObject *result = NULL;
    Scratch s = {0};
    Plan p;
    if (make_plan(&s, "search", n, edges_obj, max_m, top, &p, NULL))
        goto done;
    const Py_ssize_t m = p.m;
    const int32_t *dist = p.dist;
    /* No layer above m (surjectivity) or above the ceiling 1 + max D has
     * an interval coloring, so these caps change no result, and they bound
     * every buffer below by m. */
    top = min(top, min(m, p.ceiling));
    if (top < bottom) {
        result = Py_BuildValue("iiL[]", 0, 0, bottom);
        goto done;
    }
    /* Mask words per vertex: enough for the largest palette, top. */
    long long stride = (top + 1) / 64 + 1;
    long long *picked = take(&s, m, 4, sizeof(long long)); /* then best, least and most */
    long long *color_count = take(&s, top + 1, 1, sizeof(long long));
    uint64_t *mask = take(&s, (size_t)n + 1, stride, sizeof(uint64_t));
    int32_t *lo = dist ? take(&s, m, m, sizeof(int32_t)) : NULL;
    int32_t *hi = dist ? take(&s, m, m, sizeof(int32_t)) : NULL;
    if (s.failed)
        goto done;
    long long *best = picked + m;
    Layer L = {m, p.ends, p.deg, p.floor_start, p.floor_code, p.orbit, dist, stride, budget, 0,
               picked, best, color_count, best + m, best + 2 * m, mask,
               mask + (size_t)n * stride, lo, hi};
    long long t = top;
    int status = 0;
    /* One layer per palette size t, from top down: one run, or the anchor
     * sweep when its pairs number at most 2m. */
    for (; t >= bottom; t--) {
        if (budget && L.nodes >= budget) {
            status = 2; /* the budget ran out at the end of the layer above */
            break;
        }
        if (!dist || (t == 1 ? m : p.far[t - 1]) > 2 * m) {
            status = run(&L, t, -1, -1, 0);
        } else {
            /* The symmetry rules, as plain constraints on the pair
             * (solver.py): an edge with a floor holds more than some earlier
             * edge, so not the first 1, and the first t lies in edge 0's
             * orbit only where edge 0 holds 1. */
            int found = 0;
            for (Py_ssize_t e = 0; e < m && status == 0; e++) {
                if (p.floor_start[e] < p.floor_start[e + 1])
                    continue;
                for (Py_ssize_t f = m - 1; f >= 0 && status == 0; f--) {
                    if ((t == 1 ? e != f : dist[e * m + f] < t - 1) || (e && p.orbit[f]))
                        continue;
                    status = run(&L, t, e, f, found);
                    if (status == 1) {
                        memcpy(best, L.picked, m * sizeof(long long));
                        clear_colors(&L);
                        found = 1;
                        status = 0;
                    }
                }
            }
            if (status == 0 && found) {
                memcpy(L.picked, best, m * sizeof(long long));
                status = 1;
            }
        }
        if (status < 0)
            goto done;
        if (status)
            break;
    }
    /* The last palette size decided: the witness's, bottom's, or the one
     * above the aborted layer. */
    long long last_t = status == 1 ? t : t + 1;
    PyObject *colors = PyList_New(status ? m : 0);
    for (Py_ssize_t i = 0; colors && status && i < m; i++) {
        PyObject *v = PyLong_FromLongLong(L.picked[i]);
        if (!v)
            Py_CLEAR(colors);
        else
            PyList_SET_ITEM(colors, p.order[i], v);
    }
    if (colors)
        result = Py_BuildValue("iLLN", status, L.nodes, last_t, colors);
done:
    release(&s);
    return result;
}

static PyObject *automorphisms(PyObject *self, PyObject *args)
{
    Py_ssize_t n, max_m;
    PyObject *edges_obj;
    if (!PyArg_ParseTuple(args, "nOn", &n, &edges_obj, &max_m))
        return NULL;
    PyObject *found = PyList_New(0);
    Scratch s = {0};
    Plan p;
    if (found && make_plan(&s, "automorphisms", n, edges_obj, max_m, LLONG_MAX, &p, found))
        Py_CLEAR(found);
    release(&s);
    return found;
}

/* Whether colors, one per edge in 1..t, is an interval t-coloring of the
 * graph on n vertices with the m edges in ends, flat (interval_ok), in
 * buffers taken from s; -1 with an exception set if memory runs out. */
static int is_interval(Scratch *s, Py_ssize_t n, Py_ssize_t m, const long long *ends,
                       const long long *colors, long long t)
{
    /* Per vertex: least and greatest color, degree, and where its row of
     * seen starts; seen[base[v] + c - lo[v]] marks color c at v. */
    long long *lo = take(s, n, 1, sizeof(long long));
    long long *hi = take(s, n, 1, sizeof(long long));
    long long *count = take(s, n, 1, sizeof(long long));
    long long *base = take(s, n, 1, sizeof(long long));
    char *seen = take(s, m, 2, 1);
    char *used = take(s, t + 1, 1, 1);
    if (s->failed)
        return -1;
    for (Py_ssize_t v = 0; v < n; v++)
        lo[v] = t + 1;
    for (Py_ssize_t i = 0; i < 2 * m; i++) {
        long long v = ends[i], c = colors[i / 2];
        lo[v] = min(lo[v], c);
        hi[v] = max(hi[v], c);
        count[v]++;
    }
    int ok = 1;
    for (Py_ssize_t v = 0; v < n; v++) {
        ok = ok && (!count[v] || hi[v] - lo[v] + 1 == count[v]);
        base[v] = v ? base[v - 1] + count[v - 1] : 0;
    }
    /* With each vertex's span equal to its degree, its colors are
     * consecutive exactly when none repeats. */
    for (Py_ssize_t i = 0; ok && i < 2 * m; i++) {
        char *mark = seen + base[ends[i]] + colors[i / 2] - lo[ends[i]];
        ok = !*mark;
        *mark = 1;
    }
    long long distinct = 0;
    for (Py_ssize_t e = 0; ok && e < m; e++) {
        distinct += !used[colors[e]];
        used[colors[e]] = 1;
    }
    return ok && distinct == t;
}

static PyObject *interval_ok(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    long long t;
    PyObject *edges_obj, *colors_obj;
    if (!PyArg_ParseTuple(args, "nOOL", &n, &edges_obj, &colors_obj, &t))
        return NULL;
    Py_ssize_t m = PyObject_Length(edges_obj);
    if (m < 0)
        return NULL;
    if (n < 1 || t < 1 || t > m) {
        PyErr_SetString(PyExc_ValueError, "interval_ok: n or t out of range");
        return NULL;
    }
    PyObject *result = NULL;
    Scratch s = {0};
    long long *ends = take(&s, m, 2, sizeof(long long));
    long long *colors = take(&s, m, 1, sizeof(long long));
    if (s.failed)
        goto done;
    if (read_edges(edges_obj, n, m, ends, "interval_ok"))
        goto done;
    int ok = read_colors(colors_obj, m, t, colors, "interval_ok");
    if (ok > 0)
        ok = is_interval(&s, n, m, ends, colors, t);
    if (ok >= 0)
        result = PyBool_FromLong(ok);
done:
    release(&s);
    return result;
}

/* Whether the graph on n vertices with the m edges in ends, flat, is
 * connected; parent is scratch for n vertices. */
static int connected(Py_ssize_t n, Py_ssize_t m, const long long *ends, Py_ssize_t *parent)
{
    Py_ssize_t parts = n;
    for (Py_ssize_t v = 0; v < n; v++)
        parent[v] = v;
    for (Py_ssize_t e = 0; e < m; e++) {
        Py_ssize_t a = root_of(parent, ends[2 * e]), b = root_of(parent, ends[2 * e + 1]);
        if (a != b) {
            parent[a] = b;
            parts--;
        }
    }
    return parts == 1;
}

static PyObject *double_cover(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    long long t;
    PyObject *edges_obj, *colors_obj, *pairs, *provenance;
    if (!PyArg_ParseTuple(args, "nOOLOO", &n, &edges_obj, &colors_obj, &t, &pairs, &provenance))
        return NULL;
    Py_ssize_t m = PyObject_Length(edges_obj);
    if (m < 0)
        return NULL;
    if (n < 1 || m < 1 || t < 1 || t > m) {
        PyErr_SetString(PyExc_ValueError, "double: n, edges or t out of range");
        return NULL;
    }
    if (m > (PY_SSIZE_T_MAX / 4 - n) / 2)
        return PyErr_NoMemory();
    if (!pairs_ok(pairs, "double"))
        return NULL;
    if (!PyList_CheckExact(provenance) || PyList_GET_SIZE(provenance) / 3 < max(m, n)) {
        PyErr_SetString(PyExc_ValueError, "double: provenance must be a list of 3 max(m, n) codes");
        return NULL;
    }
    Py_ssize_t hn = 2 * n, hm = 2 * m + n; /* H's vertices and edges */
    PyObject *result = NULL;
    Scratch s = {0};
    long long *edges = take(&s, m, 2, sizeof(long long));
    long long *colors = take(&s, m, 1, sizeof(long long));
    long long *deg = take(&s, hn, 1, sizeof(long long)); /* G's, then H's */
    long long *top = take(&s, n, 1, sizeof(long long));  /* max S(v_i, alpha) */
    long long *low = take(&s, hn, 1, sizeof(long long)); /* min S(x, beta) */
    long long *h_ends = take(&s, hm, 2, sizeof(long long));
    long long *code = take(&s, hm, 1, sizeof(long long));
    long long *beta = take(&s, hm, 1, sizeof(long long));
    long long *final = take(&s, hm, 1, sizeof(long long));
    Py_ssize_t *start = take(&s, n + 1, 1, sizeof(Py_ssize_t));
    Py_ssize_t *nbr = take(&s, m, 2, sizeof(Py_ssize_t));
    Py_ssize_t *inc = take(&s, m, 2, sizeof(Py_ssize_t));
    Py_ssize_t *match = take(&s, n, 1, sizeof(Py_ssize_t)); /* position of u_i w_i in H */
    Py_ssize_t *parent = take(&s, hn, 1, sizeof(Py_ssize_t));
    if (s.failed)
        goto done;
    if (read_edges(edges_obj, n, m, edges, "double"))
        goto done;
    /* From here every failed check returns None: the caller then runs the
     * Python path, which raises its own error or accepts the input itself. */
    int ok = read_colors(colors_obj, m, t, colors, "double");
    if (ok > 0)
        ok = connected(n, m, edges, parent) ? is_interval(&s, n, m, edges, colors, t) : 0;
    if (ok < 0)
        goto done;
    if (!ok)
        goto fallback;
    adjacency(n, m, edges, deg, start, nbr, inc);
    for (Py_ssize_t i = 0; i < 2 * m; i++)
        top[edges[i]] = max(top[edges[i]], colors[i / 2]);
    int regular = 1;
    for (Py_ssize_t v = 1; v < n; v++)
        regular = regular && deg[v] == deg[0];
    long long r = deg[0];

    /* H's edges in canonical order: row i holds u_i w_j for the neighbours
     * j of v_i and for j = i, in increasing j, so H has 2m + n edges. The
     * cover edge u_i w_j of source edge idx has code 3 idx, or 3 idx + 1
     * when flipped (i > j), and color alpha + 1; the matching edge u_i w_i
     * has code 3 i + 2 and color max S(v_i) + 2. */
    if (start[n] + n != hm)
        goto fallback;
    Py_ssize_t k = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int matched = 0;
        for (Py_ssize_t p = start[i]; p < start[i + 1] || !matched; k++) {
            h_ends[2 * k] = i;
            if (!matched && (p == start[i + 1] || nbr[p] > i)) {
                matched = 1;
                match[i] = k;
                h_ends[2 * k + 1] = n + i;
                code[k] = 3 * i + 2;
                beta[k] = top[i] + 2;
            } else {
                h_ends[2 * k + 1] = n + nbr[p];
                code[k] = 3 * inc[p] + (i > nbr[p]);
                beta[k] = colors[inc[p]] + 1;
                p++;
            }
        }
    }

    /* The checks of doubling._check_structure and finalize_recolor. */
    ok = 1;
    for (Py_ssize_t e = 0; ok && e < hm; e++) {
        long long a = h_ends[2 * e], b = h_ends[2 * e + 1];
        ok = a < n && n <= b && b < hn &&
             (!e || a > h_ends[2 * e - 2] || (a == h_ends[2 * e - 2] && b > h_ends[2 * e - 1]));
    }
    ok = ok && connected(hn, hm, h_ends, parent);
    memset(deg, 0, hn * sizeof(long long));
    for (Py_ssize_t x = 0; x < hn; x++)
        low[x] = t + 3;
    for (Py_ssize_t i = 0; ok && i < 2 * hm; i++) {
        deg[h_ends[i]]++;
        low[h_ends[i]] = min(low[h_ends[i]], beta[i / 2]);
    }
    for (Py_ssize_t x = 0; ok && regular && x < hn; x++)
        ok = deg[x] == r + 1;
    Py_ssize_t i0 = -1;
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        ok = low[i] == low[n + i];
        if (i0 < 0 && low[i] == 2)
            i0 = i;
    }
    if (!ok || i0 < 0)
        goto fallback;
    memcpy(final, beta, hm * sizeof(long long));
    final[match[i0]] = 1;
    ok = is_interval(&s, hn, hm, h_ends, final, t + 2);
    if (ok < 0)
        goto done;
    if (!ok)
        goto fallback;

    /* H's pairs and provenance are the caller's shared objects where they
     * exist: pairs[b][a] for b < 64, provenance[code] for every edge. */
    PyObject *h_edges = PyTuple_New(hm), *origin = PyTuple_New(hm);
    for (Py_ssize_t e = 0; h_edges && origin && e < hm; e++) {
        long long a = h_ends[2 * e], b = h_ends[2 * e + 1];
        PyObject *pair = b < SHARED_PAIRS ? shared_pair(pairs, a, b, "double")
                                          : ints_of(h_ends + 2 * e, 2);
        if (!pair) {
            Py_CLEAR(h_edges);
            break;
        }
        PyTuple_SET_ITEM(h_edges, e, pair);
        if (code[e] >= PyList_GET_SIZE(provenance)) { /* a finalizer shrank it */
            PyErr_SetString(PyExc_ValueError, "double: provenance changed size");
            Py_CLEAR(origin);
            break;
        }
        PyTuple_SET_ITEM(origin, e, Py_NewRef(PyList_GET_ITEM(provenance, code[e])));
    }
    /* N hands each field to the tuple, and frees them all if one is NULL. */
    result = Py_BuildValue("(NNNNN)", h_edges, origin, ints_of(beta, hm), PyLong_FromSsize_t(i0),
                           ints_of(final, hm));
    goto done;
fallback:
    result = Py_NewRef(Py_None);
done:
    release(&s);
    return result;
}

static int by_key(const void *x, const void *y)
{
    uint64_t p = *(const uint64_t *)x, q = *(const uint64_t *)y;
    return (p > q) - (p < q);
}

static PyObject *index_graph(PyObject *self, PyObject *args)
{
    PyObject *n_obj, *edges_obj, *pairs;
    if (!PyArg_ParseTuple(args, "OOO!", &n_obj, &edges_obj, &PyTuple_Type, &pairs))
        return NULL;
    if (!pairs_ok(pairs, "index_graph"))
        return NULL;
    /* Vertices are 32-bit halves of a sort key. */
    long long n = exact_index(n_obj, UINT32_MAX);
    PyObject **items;
    Py_ssize_t given;
    if (n < 1 || !exact_items(edges_obj, &items, &given))
        Py_RETURN_NONE;
    PyObject *result = NULL, **vertex = NULL;
    long long most = 0; /* the largest endpoint */
    Scratch s = {0};
    uint64_t *keys = take(&s, given, 1, sizeof(uint64_t)); /* a << 32 | b per edge */
    /* From here any input the Python path would treat otherwise returns
     * None: it then raises its own error or accepts the input itself. */
    int sorted = 1;
    for (Py_ssize_t e = 0; !s.failed && e < given; e++) {
        PyObject **ends;
        Py_ssize_t arity;
        int is_pair = exact_items(items[e], &ends, &arity) && arity == 2;
        long long i = is_pair ? exact_index(ends[0], n - 1) : -1;
        long long j = is_pair ? exact_index(ends[1], n - 1) : -1;
        if (i < 0 || j < 0 || i == j) {
            result = Py_NewRef(Py_None);
            goto done;
        }
        keys[e] = (uint64_t)min(i, j) << 32 | (uint64_t)max(i, j);
        sorted = sorted && (!e || keys[e] > keys[e - 1]);
        most = max(most, max(i, j));
    }
    /* One int per vertex, shared by the pairs of endpoints past _PAIRS. */
    vertex = take(&s, most + 1, 1, sizeof(PyObject *));
    if (s.failed)
        goto done;
    Py_ssize_t m = given;
    if (!sorted) {
        qsort(keys, given, sizeof(uint64_t), by_key);
        m = 0;
        for (Py_ssize_t e = 0; e < given; e++)
            if (!m || keys[e] != keys[m - 1])
                keys[m++] = keys[e];
    }
    PyObject *edges = PyTuple_New(m);
    for (Py_ssize_t e = 0; edges && e < m; e++) {
        long long end[2] = {(long long)(keys[e] >> 32), (long long)(keys[e] & 0xFFFFFFFF)};
        PyObject *pair;
        if (end[1] < SHARED_PAIRS) {
            if (!(pair = shared_pair(pairs, end[0], end[1], "index_graph"))) {
                Py_CLEAR(edges);
                break;
            }
        } else {
            for (int k = 0; k < 2; k++)
                if (!vertex[end[k]] && !(vertex[end[k]] = PyLong_FromLongLong(end[k])))
                    break;
            pair = vertex[end[0]] && vertex[end[1]] ? PyTuple_Pack(2, vertex[end[0]], vertex[end[1]])
                                                   : NULL;
            if (!pair) {
                Py_CLEAR(edges);
                break;
            }
        }
        PyTuple_SET_ITEM(edges, e, pair);
    }
    result = edges;
done:
    for (Py_ssize_t v = 0; vertex && v <= most; v++)
        Py_XDECREF(vertex[v]);
    release(&s);
    return result;
}

static PyObject *in_palette(PyObject *self, PyObject *args)
{
    PyObject *t_obj, *colors_obj;
    if (!PyArg_ParseTuple(args, "OO", &t_obj, &colors_obj))
        return NULL;
    PyObject **colors;
    Py_ssize_t m;
    if (!exact_items(colors_obj, &colors, &m)) {
        PyErr_SetString(PyExc_TypeError, "in_palette: colors must be a tuple or list");
        return NULL;
    }
    long long t = exact_index(t_obj, LLONG_MAX);
    for (Py_ssize_t k = 0; t > 0 && k < m; k++)
        if (exact_index(colors[k], t) < 1)
            Py_RETURN_FALSE;
    return PyBool_FromLong(t > 0);
}

/* Whether the increasing lists x[0 .. lx) and y[0 .. ly) share an entry: a
 * merge that walks the shorter list and finds each of its entries in the
 * rest of the longer one by binary search, so that an edge at a hub costs
 * O(log deg) per neighbour of its other end, not O(deg). */
static int share(const Py_ssize_t *x, Py_ssize_t lx, const Py_ssize_t *y, Py_ssize_t ly)
{
    if (lx > ly)
        return share(y, ly, x, lx);
    Py_ssize_t lo = 0;
    for (Py_ssize_t i = 0; i < lx; i++) {
        Py_ssize_t hi = ly;
        while (lo < hi) {
            Py_ssize_t mid = lo + (hi - lo) / 2;
            if (y[mid] < x[i])
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == ly)
            return 0;
        if (y[lo] == x[i])
            return 1;
    }
    return 0;
}

static PyObject *classify(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *edges_obj;
    if (!PyArg_ParseTuple(args, "nO", &n, &edges_obj))
        return NULL;
    Py_ssize_t m = PyObject_Length(edges_obj);
    if (m < 0)
        return NULL;
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "classify: n out of range");
        return NULL;
    }
    PyObject *result = NULL;
    Scratch s = {0};
    long long *edges = take(&s, m, 2, sizeof(long long));
    long long *deg = take(&s, n, 1, sizeof(long long));
    Py_ssize_t *start = take(&s, n + 1, 1, sizeof(Py_ssize_t));
    Py_ssize_t *nbr = take(&s, m, 2, sizeof(Py_ssize_t));
    Py_ssize_t *inc = take(&s, m, 2, sizeof(Py_ssize_t));
    Py_ssize_t *queue = take(&s, n, 1, sizeof(Py_ssize_t));
    signed char *side = take(&s, n, 1, 1);
    if (s.failed)
        goto done;
    if (read_edges(edges_obj, n, m, edges, "classify"))
        goto done;
    adjacency(n, m, edges, deg, start, nbr, inc);

    /* One BFS over every component, roots in index order, each root on
     * side 0; the queue holds every vertex once, so one array serves all
     * components. */
    memset(side, -1, n);
    Py_ssize_t components = 0, head = 0, tail = 0, in_part0 = 0;
    int proper = 1;
    for (Py_ssize_t root = 0; root < n; root++) {
        if (side[root] >= 0)
            continue;
        components++;
        side[root] = 0;
        queue[tail++] = root;
        while (head < tail) {
            Py_ssize_t u = queue[head++];
            for (Py_ssize_t i = start[u]; i < start[u + 1]; i++) {
                Py_ssize_t v = nbr[i];
                if (side[v] < 0) {
                    side[v] = 1 - side[u];
                    queue[tail++] = v;
                } else if (side[v] == side[u]) {
                    proper = 0;
                }
            }
        }
    }
    long long most = deg[0], least = deg[0];
    for (Py_ssize_t v = 0; v < n; v++) {
        most = max(most, deg[v]);
        least = min(least, deg[v]);
        in_part0 += side[v] == 0;
    }
    int triangle_free = 1;
    for (Py_ssize_t e = 0; triangle_free && e < m; e++) {
        long long a = edges[2 * e], b = edges[2 * e + 1];
        triangle_free = !share(nbr + start[a], deg[a], nbr + start[b], deg[b]);
    }

    PyObject *bipartition, *biregular;
    if (proper) {
        /* Each part's single degree, or -1 once two differ; vertex 0 is in
         * part 0, and an empty part 1 takes part 0's degree. */
        long long part_deg[2] = {deg[0], in_part0 < n ? -2 : deg[0]};
        PyObject *parts[2] = {PyTuple_New(in_part0), PyTuple_New(n - in_part0)};
        Py_ssize_t filled[2] = {0, 0};
        for (Py_ssize_t v = 0; parts[0] && parts[1] && v < n; v++) {
            int s = side[v];
            if (part_deg[s] == -2)
                part_deg[s] = deg[v];
            else if (part_deg[s] != deg[v])
                part_deg[s] = -1;
            PyObject *vertex = PyLong_FromSsize_t(v);
            if (!vertex) {
                Py_CLEAR(parts[0]);
                break;
            }
            PyTuple_SET_ITEM(parts[s], filled[s]++, vertex);
        }
        bipartition = parts[0] && parts[1] ? PyTuple_Pack(2, parts[0], parts[1]) : NULL;
        Py_XDECREF(parts[0]);
        Py_XDECREF(parts[1]);
        if (part_deg[0] >= 0 && part_deg[1] >= 0)
            biregular = Py_BuildValue("(LL)", min(part_deg[0], part_deg[1]),
                                      max(part_deg[0], part_deg[1]));
        else
            biregular = Py_NewRef(Py_None);
    } else {
        bipartition = Py_NewRef(Py_None);
        biregular = Py_NewRef(Py_None);
    }
    result = Py_BuildValue("(NNNNNNN)", PyBool_FromLong(components == 1), bipartition,
                           most == least ? PyLong_FromLongLong(most) : Py_NewRef(Py_None),
                           PyBool_FromLong(triangle_free), biregular, PyLong_FromLongLong(most),
                           PyLong_FromLongLong(least));
done:
    release(&s);
    return result;
}

/* The canonical search of extend. prefix[k] holds the k bits
 * (0,k),(1,k),...,(k-1,k) of the ordering being built, MSB-first, so segments
 * compare as the bits do; best holds the least complete prefix found, or all
 * ones, more than any segment, until the first is, and order its ordering.
 * While record is nonzero, each later leaf with best's code adds the
 * automorphism order[i] -> chosen[i] to auts, up to record of them. */
typedef struct {
    int n;
    uint64_t adj[64];
    uint64_t lower_twins[64]; /* the twins y < x of each vertex x */
    int chosen[64];
    uint64_t prefix[64];
    uint64_t best[64];
    int order[64];
    uint8_t (*auts)[64];
    int naut, record;
    unsigned long long nodes;
} Canon;

/* Places vertex k given the used vertices and each one's segment so far;
 * below is true while the prefix is less than best's, so that nothing under
 * it can be pruned. -1 with an exception set if a signal interrupts. */
static int place(Canon *c, int k, uint64_t used, int below, const uint64_t *parent_seg)
{
    if (k == c->n) {
        if (below) {
            memcpy(c->best, c->prefix, sizeof c->best);
            memcpy(c->order, c->chosen, sizeof c->order);
        } else if (c->naut < c->record) { /* a second ordering with best's code */
            for (int i = 0; i < c->n; i++)
                c->auts[c->naut][c->order[i]] = (uint8_t)c->chosen[i];
            c->naut++;
        }
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

/* Fills c->best with the least ordering's segments of the graph on c->n
 * vertices with adjacency c->adj. -1 with an exception set if a signal
 * interrupts. */
static int canonical(Canon *c)
{
    for (int x = 0; x < c->n; x++) {
        c->lower_twins[x] = 0;
        for (int y = 0; y < x; y++)
            if ((c->adj[x] & ~((uint64_t)1 << y)) == (c->adj[y] & ~((uint64_t)1 << x)))
                c->lower_twins[x] |= (uint64_t)1 << y;
    }
    memset(c->best, 0xFF, sizeof c->best);
    return place(c, 0, 0, 0, NULL);
}

/* code = (code << k) | best[k] for k = 1 .. n - 1, as a Python int: in one
 * C integer while the n(n - 1)/2 bits fit, in Python integers beyond. */
static PyObject *code_of(const Canon *c)
{
    if (c->n * (c->n - 1) / 2 <= 64) {
        uint64_t code = 0;
        for (int k = 1; k < c->n; k++)
            code = (code << k) | c->best[k];
        return PyLong_FromUnsignedLongLong(code);
    }
    PyObject *code = PyLong_FromLong(0);
    for (int k = 1; code && k < c->n; k++) {
        PyObject *shift = PyLong_FromLong(k);
        PyObject *segment = PyLong_FromUnsignedLongLong(c->best[k]);
        PyObject *shifted = shift && segment ? PyNumber_Lshift(code, shift) : NULL;
        Py_SETREF(code, shifted ? PyNumber_Or(shifted, segment) : NULL);
        Py_XDECREF(shift);
        Py_XDECREF(segment);
        Py_XDECREF(shifted);
    }
    return code;
}

/* Whether the graph with adjacency adj on the vertices of all stays
 * connected when vertex u is removed: one bitmask BFS. */
static int connected_without(const uint64_t *adj, uint64_t all, int u)
{
    uint64_t rest = all & ~((uint64_t)1 << u);
    uint64_t seen = rest & -rest, frontier = seen;
    while (frontier) {
        int x = __builtin_ctzll(frontier);
        frontier &= frontier - 1;
        uint64_t fresh = adj[x] & rest & ~seen;
        seen |= fresh;
        frontier |= fresh;
    }
    return seen == rest;
}

/* Whether the vertex n - 1 of the graph in c minimises f(v) = (deg v,
 * -sum of its neighbours' degrees) over the vertices whose removal keeps
 * the graph connected; the proof is in catalog.py's docstring. */
static int lowest_non_cut_last(const Canon *c)
{
    int n = c->n, deg[64];
    long long key[64];
    for (int x = 0; x < n; x++)
        deg[x] = __builtin_popcountll(c->adj[x]);
    for (int x = 0; x < n; x++) {
        long long around = 0;
        for (uint64_t rest = c->adj[x]; rest; rest &= rest - 1)
            around += deg[__builtin_ctzll(rest)];
        key[x] = 64 * 64 * (long long)deg[x] - around; /* around < 64 * 64 */
    }
    uint64_t all = n == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
    for (int u = 0; u < n - 1; u++)
        if (key[u] < key[n - 1] && connected_without(c->adj, all, u))
            return 0;
    return 1;
}

/* The most automorphisms kept from one parent's canonical search. */
#define PARENT_AUTS 64
/* Orbits are marked for parents of at most this many vertices: the marks
 * take 2^ORBIT_MAX_OLD bits and the queue as many 32-bit entries. */
#define ORBIT_MAX_OLD 20

/* The subsets of a parent's vertices, marked orbit by orbit under the group
 * that the parent's kept automorphisms and twin swaps generate. */
typedef struct {
    uint64_t *marks; /* bit S: S lies in an orbit already met */
    uint32_t *queue;
    int twins, twin_x[64], twin_y[64]; /* the swaps (x y) */
} Orbits;

static int marked(const Orbits *o, uint64_t subset)
{
    return (o->marks[subset >> 6] >> (subset & 63)) & 1;
}

/* Marks the orbit of subset: the subsets that the swaps and the
 * automorphisms of c, applied in turn, reach from it. */
static void mark_orbit(Orbits *o, const Canon *c, uint64_t subset)
{
    Py_ssize_t head = 0, tail = 0;
    o->marks[subset >> 6] |= (uint64_t)1 << (subset & 63);
    o->queue[tail++] = (uint32_t)subset;
    while (head < tail) {
        uint64_t from = o->queue[head++];
        for (int g = 0; g < o->twins + c->naut; g++) {
            uint64_t image = 0;
            if (g < o->twins) {
                uint64_t swap = (uint64_t)1 << o->twin_x[g] | (uint64_t)1 << o->twin_y[g];
                uint64_t both = from & swap;
                image = both && both != swap ? from ^ swap : from;
            } else {
                for (uint64_t rest = from; rest; rest &= rest - 1)
                    image |= (uint64_t)1 << c->auts[g - o->twins][__builtin_ctzll(rest)];
            }
            if (!marked(o, image)) {
                o->marks[image >> 6] |= (uint64_t)1 << (image & 63);
                o->queue[tail++] = (uint32_t)image;
            }
        }
    }
}

static PyObject *extend(PyObject *self, PyObject *args)
{
    int size;
    PyObject *parents_obj;
    if (!PyArg_ParseTuple(args, "iO", &size, &parents_obj))
        return NULL;
    if (size < 2 || size > 64) {
        PyErr_SetString(PyExc_ValueError, "extend: size out of range");
        return NULL;
    }
    PyObject *parents = PySequence_Fast(parents_obj, "extend: parents must be iterable");
    if (!parents)
        return NULL;
    int old = size - 1;
    uint64_t bit = (uint64_t)1 << old;
    Scratch s = {0};
    Canon *c = take(&s, 1, 1, sizeof(Canon));
    uint8_t(*auts)[64] = take(&s, PARENT_AUTS, 64, sizeof(uint8_t));
    Orbits *o = take(&s, 1, 1, sizeof(Orbits));
    uint64_t *marks = NULL;
    uint32_t *queue = NULL;
    if (old <= ORBIT_MAX_OLD) {
        marks = take(&s, bit / 64 + 1, 1, sizeof(uint64_t));
        queue = take(&s, bit, 1, sizeof(uint32_t));
    }
    PyObject *grown = s.failed ? NULL : PyDict_New();
    if (!grown)
        goto done;
    c->auts = auts;
    o->marks = marks;
    o->queue = queue;
    for (Py_ssize_t p = 0; p < PySequence_Fast_GET_SIZE(parents); p++) {
        PyObject **masks;
        Py_ssize_t len;
        if (!exact_items(PySequence_Fast_GET_ITEM(parents, p), &masks, &len) || len != old) {
            PyErr_SetString(PyExc_ValueError, "extend: each parent must hold size - 1 masks");
            goto fail;
        }
        uint64_t parent[64];
        for (int v = 0; v < old; v++) {
            long long mask = exact_index(masks[v], (long long)(bit - 1));
            if (mask < 0 || (mask >> v) & 1) {
                PyErr_SetString(PyExc_ValueError, "extend: mask out of range");
                goto fail;
            }
            parent[v] = (uint64_t)mask;
        }
        /* The parent's automorphisms: the other leaves with its code in its
         * canonical search, and the swap of each vertex with its least
         * lower twin. */
        c->naut = o->twins = 0;
        if (o->marks) {
            c->n = old;
            memcpy(c->adj, parent, old * sizeof *parent);
            c->record = PARENT_AUTS;
            if (canonical(c))
                goto fail;
            c->record = 0;
            for (int x = 0; x < old; x++)
                if (c->lower_twins[x]) {
                    o->twin_x[o->twins] = x;
                    o->twin_y[o->twins++] = __builtin_ctzll(c->lower_twins[x]);
                }
            if (o->twins + c->naut)
                memset(o->marks, 0, (bit / 64 + 1) * sizeof(uint64_t));
        }
        c->n = size;
        for (uint64_t subset = 1; subset < bit; subset++) {
            if (!(subset & SIGNAL_CHECK_MASK) && PyErr_CheckSignals())
                goto fail;
            if (o->twins + c->naut) { /* one subset per orbit, the least */
                if (marked(o, subset))
                    continue;
                mark_orbit(o, c, subset);
            }
            for (int v = 0; v < old; v++)
                c->adj[v] = parent[v] | ((subset >> v) & 1 ? bit : 0);
            c->adj[old] = subset;
            if (!lowest_non_cut_last(c))
                continue;
            if (canonical(c))
                goto fail;
            PyObject *code = code_of(c);
            int seen = code ? PyDict_Contains(grown, code) : -1;
            PyObject *child = seen ? NULL : PyTuple_New(size);
            for (int v = 0; child && v < size; v++) {
                PyObject *mask = PyLong_FromUnsignedLongLong(c->adj[v]);
                if (!mask)
                    Py_CLEAR(child);
                else
                    PyTuple_SET_ITEM(child, v, mask);
            }
            int failed = seen < 0 || (!seen && (!child || PyDict_SetItem(grown, code, child)));
            Py_XDECREF(code);
            Py_XDECREF(child);
            if (failed)
                goto fail;
        }
    }
    goto done;
fail:
    Py_CLEAR(grown);
done:
    release(&s);
    Py_DECREF(parents);
    return grown;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(n, edges, max_m, top, bottom, budget) -> (status, nodes, last, colors)"},
    {"automorphisms", automorphisms, METH_VARARGS,
     "automorphisms(n, edges, max_m) -> [images, ...]"},
    {"interval_ok", interval_ok, METH_VARARGS, "interval_ok(n, edges, colors, t) -> bool"},
    {"double", double_cover, METH_VARARGS,
     "double(n, edges, colors, t, pairs, provenance) -> (h_edges, provenance, beta, i0, final) "
     "or None"},
    {"index_graph", index_graph, METH_VARARGS, "index_graph(n, edges, pairs) -> edges or None"},
    {"in_palette", in_palette, METH_VARARGS, "in_palette(t, colors) -> bool"},
    {"classify", classify, METH_VARARGS,
     "classify(n, edges) -> (connected, bipartition, regular_degree, triangle_free, "
     "biregular_degrees, max_degree, min_degree)"},
    {"extend", extend, METH_VARARGS, "extend(size, parents) -> {code: masks}"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_search", NULL, -1, methods};

PyMODINIT_FUNC PyInit__search(void)
{
    return PyModule_Create(&module);
}
