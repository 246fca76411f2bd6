"""Independent reference implementations used to check the real ones.

Everything here favors clarity over speed: plain loops, textbook
definitions, no shared code with the package under test.
"""
import math

import numpy as np

NOISE = -1


def dbscan_reference(distances, epsilon, min_pts):
    """Textbook DBSCAN on a precomputed distance matrix.

    Cores are points with at least min_pts neighbors within epsilon
    (self included). Clusters are the connected components of the
    core-to-core reachability graph, numbered by their smallest core index.
    A non-core point within epsilon of some core joins the lowest-numbered
    such cluster; everything else is noise.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    within = d <= epsilon
    cores = [i for i in range(n) if int(within[i].sum()) >= min_pts]
    core_set = set(cores)

    # components of the core subgraph by repeated expansion
    comp_of = {}
    components = []
    for c in cores:
        if c in comp_of:
            continue
        member = {c}
        frontier = {c}
        while frontier:
            nxt = set()
            for p in frontier:
                for q in cores:
                    if q not in member and within[p, q]:
                        nxt.add(q)
            member |= nxt
            frontier = nxt
        cid = len(components)
        components.append(sorted(member))
        for m in member:
            comp_of[m] = cid

    # components numbered by smallest core index
    order = sorted(range(len(components)), key=lambda cid: components[cid][0])
    renumber = {old: new for new, old in enumerate(order)}

    labels = [NOISE] * n
    for c in cores:
        labels[c] = renumber[comp_of[c]]
    for i in range(n):
        if i in core_set:
            continue
        touching = sorted(renumber[comp_of[c]] for c in cores if within[i, c])
        if touching:
            labels[i] = touching[0]
    return np.asarray(labels), np.asarray([i in core_set for i in range(n)])


def partition_signature(labels):
    """Clusters as a set of frozensets plus the noise set; id-free."""
    clusters = {}
    noise = set()
    for i, lab in enumerate(labels):
        if lab == NOISE:
            noise.add(i)
        else:
            clusters.setdefault(int(lab), set()).add(i)
    return frozenset(frozenset(v) for v in clusters.values()), frozenset(noise)


def abs_cosine(a, b):
    """|cos| of two flat vectors via compensated sums."""
    a = [float(x) for x in np.asarray(a).reshape(-1)]
    b = [float(x) for x in np.asarray(b).reshape(-1)]
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(abs(dot) / (na * nb), 1.0)


def similarity_loop(maps):
    """Absolute-cosine similarity of (c, H, W) channel maps, one pair at a
    time: each entry computed once for i < j and mirrored; a zero-norm
    channel scores 0 against every other channel and 1 against itself."""
    c = maps.shape[0]
    flat = np.asarray(maps, dtype=np.float64).reshape(c, -1)
    norms = np.sqrt((flat * flat).sum(axis=1))
    out = np.eye(c, dtype=np.float64)
    for i in range(c):
        if norms[i] == 0.0:
            continue
        for j in range(i + 1, c):
            if norms[j] == 0.0:
                continue
            cos = float(flat[i] @ flat[j]) / (norms[i] * norms[j])
            val = min(abs(cos), 1.0)
            out[i, j] = val
            out[j, i] = val
    return out


def conv2d_naive(x, weight, bias, stride, padding):
    """Direct convolution with quadruple loops; shapes as the package uses."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=float)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=float)
    for ni in range(n):
        for oc in range(cout):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ic in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (weight[oc, ic, ky, kx]
                                        * xp[ni, ic, yi * stride + ky, xi * stride + kx])
                    if bias is not None:
                        acc += bias[oc]
                    out[ni, oc, yi, xi] = acc
    return out


def maxpool_naive(x, kernel, stride):
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=float)
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    patch = x[ni, ci, yi * stride:yi * stride + kernel,
                              xi * stride:xi * stride + kernel]
                    out[ni, ci, yi, xi] = patch.max()
    return out


def conv2d_backward_naive(x, weight, dout, stride, padding):
    """Gradients (dx, d_weight, d_bias) of conv2d_naive for an output
    gradient ``dout``, accumulated one multiply at a time."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=float)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros(weight.shape, dtype=float)
    db = np.zeros(cout, dtype=float)
    _, _, oh, ow = dout.shape
    for ni in range(n):
        for oc in range(cout):
            for yi in range(oh):
                for xi in range(ow):
                    g = dout[ni, oc, yi, xi]
                    db[oc] += g
                    for ic in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                py, px = yi * stride + ky, xi * stride + kx
                                dw[oc, ic, ky, kx] += g * xp[ni, ic, py, px]
                                dxp[ni, ic, py, px] += g * weight[oc, ic, ky, kx]
    return dxp[:, :, padding:padding + h, padding:padding + w], dw, db


def maxpool_backward_naive(x, dout, kernel, stride):
    """Route each output gradient to the first maximum of its window, in
    row-major order; overlapping windows accumulate."""
    n, c, _, _ = x.shape
    _, _, oh, ow = dout.shape
    dx = np.zeros(x.shape, dtype=float)
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    best = None
                    for ky in range(kernel):
                        for kx in range(kernel):
                            py, px = yi * stride + ky, xi * stride + kx
                            if best is None or x[ni, ci, py, px] > x[ni, ci, best[0], best[1]]:
                                best = (py, px)
                    dx[ni, ci, best[0], best[1]] += dout[ni, ci, yi, xi]
    return dx


def random_distance_matrix(rng, size):
    """Symmetric matrix in [0,1] with a zero diagonal."""
    raw = rng.random((size, size))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return sym
