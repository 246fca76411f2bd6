"""Layer forward/backward kernels.

Layers take and return (N, C, H, W) arrays. Between layers each activation
and gradient is held batch-innermost: a C-contiguous (C, H, W, N) buffer,
passed on as its (N, C, H, W) view ``buf.transpose(3, 0, 1, 2)``. A layer
works on ``x.transpose(1, 2, 3, 0)``, which is free for such a view, so
every window copy and per-channel reduction moves runs of whole batches. A
C-contiguous (N, C, H, W) input gives the same values at the cost of a copy.

Importing this module, and so importing prunekit, sets the process's
OpenBLAS to one thread through the library's own setter, whatever its
thread variables say; large products and per-channel ops are then split
across the usable CPUs on a shared pool instead. Where no OpenBLAS
setter is found, nothing splits and BLAS threads as it likes.
"""
from __future__ import annotations

import contextvars
import os

import numpy as np

# A product of at least this many multiply-adds is split across the usable
# CPUs. One BLAS thread on a 2-vCPU Xeon (OpenBLAS 0.3.31) ran halves of
# 64x576xN and 512x4608xN no faster than the whole below 2^24 and 25-30%
# faster from 2^25. Every tiny4 product stays below it (the largest, conv2 in
# evaluation at batch 256, is 16x72x16384, about 2^24.2).
_SPLIT_MACS = 1 << 25

# A per-channel op (a window copy, a BatchNorm, a ReLU, a pooling, an SGD
# update) on at least this many elements is cut into channel bands of at
# least _BAND_CHANNELS channels each, one per usable CPU. See ``by_channel``.
_SPLIT_ELEMENTS = 1 << 19
_BAND_CHANNELS = 16


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin_openblas():
    """Set the OpenBLAS NumPy loaded to one thread through its own setter,
    as threadpoolctl does; whether its getter then reads 1.

    The library is found among the files mapped into the process, so False
    means another BLAS, or no ``/proc``, and BLAS threads as it likes.
    """
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return False
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            set_threads = getattr(lib, setter, None)
            get_threads = getattr(lib, setter.replace("_set_", "_get_"), None)
            if set_threads is None or get_threads is None:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(1)
            return get_threads() == 1
    return False


# The most pieces an op is split into, and the pool's size plus the caller:
# the usable CPUs once OpenBLAS runs one thread, else 1, which splits nothing.
# OpenBLAS is set to one thread once, here, at import.
_SPLIT_CPUS = _usable_cpus() if _pin_openblas() else 1

# helper threads, made on the first split and shared, like WORKSPACE, by
# every op in the process
_POOL = None


def _drop_pool():
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads
    os.register_at_fork(after_in_child=_drop_pool)


def _band(context, fn, *args):
    """What a helper thread runs: ``fn(*args)`` in a copy of the caller's
    context, so the caller's ``np.errstate`` holds there too."""
    return context.run(fn, *args)


def _run_split(fn, pieces):
    """``fn(*piece)`` for every piece, each writing only its own slices.

    The calling thread runs the first piece and the shared pool the rest, in
    copies of the caller's context. Helpers take pieces first to last; the
    caller then takes back, last first, those no helper has started. Every
    piece a helper took is finished before this returns or raises, and a
    helper's exception is raised here.
    """
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(_SPLIT_CPUS - 1, thread_name_prefix="prunekit-split")
    futures = [_POOL.submit(_band, contextvars.copy_context(), fn, *piece)
               for piece in pieces[1:]]
    try:
        fn(*pieces[0])
        for future, piece in zip(reversed(futures), reversed(pieces[1:])):
            if future.cancel():
                fn(*piece)
    finally:
        errors = [future.exception() for future in futures if not future.cancel()]
    for error in errors:
        if error is not None:
            raise error


def _matmul(a, b, out):
    """``np.matmul(a, b, out=out)`` for 2-D operands, with a large product
    split across the usable CPUs once OpenBLAS runs one thread.

    The wider output dimension (columns, else rows) is cut into contiguous
    pieces, one per CPU, each of about half ``_SPLIT_MACS`` multiply-adds or
    more, and ``_run_split`` computes them, each into its own slice of
    ``out``. The inner dimension is never cut, so every output element is the
    same BLAS sum as in the whole product. OpenBLAS summed pieces under 2^20
    multiply-adds in another order, so pieces stay far above that.
    """
    (m, k), n = a.shape, b.shape[1]
    macs, wide = m * k * n, max(m, n)
    pieces = min(_SPLIT_CPUS, macs // (_SPLIT_MACS // 2), wide // 16)
    if macs < _SPLIT_MACS or pieces < 2:
        return np.matmul(a, b, out=out)
    # every cut at a multiple of 16, so only the last piece ends in the
    # narrow tail the whole product has
    edges = [16 * round(wide * i / pieces / 16) for i in range(pieces)] + [wide]
    cuts = [np.s_[i:j] for i, j in zip(edges, edges[1:])]
    if n >= m:
        parts = [(a, b[:, cut], out[:, cut]) for cut in cuts]
    else:
        parts = [(a[cut], b, out[cut]) for cut in cuts]
    _run_split(np.matmul, parts)
    return out


def by_channel(fn, arrays, *args):
    """``fn(*arrays, *args)``, with a large op cut into contiguous channel
    bands across the usable CPUs once OpenBLAS runs one thread.

    The first axis of every array in ``arrays`` is the channel axis (a None
    entry stays None), and ``fn`` applied to channel slices of them computes
    the same channels as the whole call: it writes each channel's results
    only from that channel's inputs. Each band then does the whole op's
    arithmetic on its channels, in the same order, so the values do not
    depend on the cut. The op is cut only when ``arrays[0]`` holds at least
    ``_SPLIT_ELEMENTS`` elements and each band gets at least
    ``_BAND_CHANNELS`` channels; those tests come first, so a small op costs
    one call more than running ``fn`` itself. ``fn`` runs only NumPy calls
    on its arguments, never a function a tracer wraps, and takes no
    ``WORKSPACE`` block.
    """
    first = arrays[0]
    channels = first.shape[0]
    pieces = min(_SPLIT_CPUS, channels // _BAND_CHANNELS)
    if first.size < _SPLIT_ELEMENTS or pieces < 2:
        return fn(*arrays, *args)
    edges = [channels * i // pieces for i in range(pieces + 1)]
    _run_split(fn, [(*(a if a is None else a[i:j] for a in arrays), *args)
                    for i, j in zip(edges, edges[1:])])


def kaiming_normal(draws, dtype):
    """Kaiming fan-in weights: for each ``(rng, shape)`` of ``draws``,
    ``rng.normal(0, sqrt(2 / fan_in), shape)`` cast to ``dtype``, where
    ``fan_in`` is the product of ``shape[1:]``. Returns them in order.

    Each weight reads only its own generator, so its bits do not depend on
    where it is drawn. When the draws number two or more and total at least
    ``_SPLIT_ELEMENTS`` elements, they are dealt, largest first, each to the
    least-loaded of one group per usable CPU, and ``_run_split`` draws the
    groups; NumPy's ``Generator`` releases the GIL while it draws.
    """
    weights = [None] * len(draws)
    sizes = [int(np.prod(shape)) for _, shape in draws]
    pieces = min(_SPLIT_CPUS, len(draws))
    if sum(sizes) < _SPLIT_ELEMENTS or pieces < 2:
        _draw_normal(draws, weights, range(len(draws)), dtype)
        return weights
    groups, loads = [[] for _ in range(pieces)], [0] * pieces
    for i in sorted(range(len(draws)), key=lambda i: -sizes[i]):
        least = loads.index(min(loads))
        groups[least].append(i)
        loads[least] += sizes[i]
    _run_split(_draw_normal, [(draws, weights, group, dtype) for group in groups])
    return weights


def _draw_normal(draws, weights, indices, dtype):
    for i in indices:
        rng, shape = draws[i]
        weights[i] = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), shape).astype(dtype)


def _copy_into(dst, src):
    dst[...] = src


def _add_into(dst, src):
    dst += src


def _sum_rows(rows, out):
    out[...] = rows.sum(axis=1)


def _pad(x, padding):
    """A batch-innermost (C, H, W, N) array with ``padding`` zero cells added
    on each spatial side."""
    c, h, w, n = x.shape
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=x.dtype)
    by_channel(_copy_into, (padded[:, padding:padding + h, padding:padding + w], x))
    return padded


def _out_size(h, w, kh, kw, stride, padding=0):
    """(out_h, out_w): how many kh x kw windows, ``stride`` apart, fit an
    h x w input with ``padding`` zero cells added on each side."""
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _windows(kh, kw, stride, rows, out_w):
    """(i, j, index) for each kernel offset in row-major order, the order
    every scatter-add here sums in. ``index`` selects from a padded
    batch-innermost (C, H, W, N) array the cells that offset (i, j) of the
    window reads for output rows r0 <= y < r1 and every output column, where
    ``rows=(r0, r1)``."""
    r0, r1 = rows
    for i, j in np.ndindex(kh, kw):
        yield i, j, np.s_[:, i + stride * r0:i + stride * r1:stride, j:j + stride * out_w:stride]


def im2col(x, kh, kw, stride, padding, rows=None, out=None):
    """Unfold conv windows of a whole batch into one GEMM operand.

    (N, C, H, W) -> columns of shape (C*kh*kw, out_h*out_w*N), laid out as
    (C, kh, kw, out_h, out_w, N): row (c, i, j) holds input channel c at
    window offset (i, j) for every output position and sample.

    ``rows=(r0, r1)`` unfolds only output rows r0 <= y < r1, giving
    (C*kh*kw, (r1-r0)*out_w*N) columns. ``out``, a 1-D buffer of at least
    that many elements, receives them in place of a fresh array.
    """
    n, c, h, w = x.shape
    out_h, out_w = _out_size(h, w, kh, kw, stride, padding)
    r0, r1 = (0, out_h) if rows is None else rows
    x = x.transpose(1, 2, 3, 0)
    if padding:
        x = _pad(x, padding)
    shape = (c, kh, kw, r1 - r0, out_w, n)
    if out is None:
        cols = np.empty(shape, dtype=x.dtype)
    else:
        cols = out[:np.prod(shape)].reshape(shape)
    by_channel(_fill_windows, (cols, x), kh, kw, stride, (r0, r1), out_w)
    return cols.reshape(c * kh * kw, -1), out_h, out_w


def _fill_windows(cols, x, kh, kw, stride, rows, out_w):
    for i, j, window in _windows(kh, kw, stride, rows, out_w):
        cols[:, i, j] = x[window]


def col2im(dcols, x_shape, kh, kw, stride, padding):
    """Adjoint of im2col: scatter-add (C*kh*kw, out_h*out_w*N) columns, laid
    out as (C, kh, kw, out_h, out_w, N), back onto an (N, C, H, W) gradient
    held batch-innermost."""
    n, c, h, w = x_shape
    out_h, out_w = _out_size(h, w, kh, kw, stride, padding)
    dcols = dcols.reshape(c, kh, kw, out_h, out_w, n)
    dx = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=dcols.dtype)
    by_channel(_scatter_windows, (dcols, dx), kh, kw, stride, (0, out_h), out_w)
    if padding:
        dx = dx[:, padding:-padding, padding:-padding]
    return dx.transpose(3, 0, 1, 2)


def _scatter_windows(dcols, dx, kh, kw, stride, rows, out_w):
    for i, j, window in _windows(kh, kw, stride, rows, out_w):
        dx[window] += dcols[:, i, j]


class Workspace:
    """One scratch buffer that grows to the largest request and is freed only
    to grow, so repeated calls reuse its pages instead of faulting in fresh
    ones.

    ``take`` hands out the buffer's leading bytes as an array of the given
    shape and dtype; each call may overwrite what the previous one handed
    out, so a caller uses one block at a time and keeps nothing in it past
    its own call. The one ``WORKSPACE`` below is shared by every ``Conv`` of
    every ``Network`` in the process. Only the calling thread takes blocks;
    a split op's helper threads write into their slices of a block and are
    done before ``_run_split`` returns.
    """

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint8)

    def take(self, shape, dtype):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if self._buf.size < nbytes:
            self._buf = None  # the old buffer goes before the new one comes
            self._buf = np.empty(nbytes, dtype=np.uint8)
        return self._buf[:nbytes].view(dtype).reshape(shape)


WORKSPACE = Workspace()


class Layer:
    """Base: cache-free passthrough. Its parameters are ``weight`` and
    ``bias``, each where a subclass sets it to an array.

    Every layer has ``forward(x, train)`` and ``backward(dout, input_grad)``.
    A training forward keeps what its backward needs in ``_cache``, and the
    backward releases it once used. The backward sets the parameter
    gradients and returns the input gradient, or None when ``input_grad`` is
    false.

    Each entry ``p`` of ``params()`` and ``state()`` is the attribute ``p``,
    and parameter ``p``'s gradient is the attribute ``d_p``, so the
    bookkeeping below serves every layer.

    No layer writes into an array it was given: every forward and backward
    returns fresh arrays. A cache may therefore hold the input itself, not a
    copy, as a training ``Conv`` does when its columns are too large to keep.
    """

    _cache = None

    def params(self) -> dict:
        return {name: getattr(self, name) for name in ("weight", "bias")
                if getattr(self, name, None) is not None}

    def state(self) -> dict:
        return self.params()

    def grads(self) -> dict:
        return {name: getattr(self, f"d_{name}", None) for name in self.params()}

    def release_grads(self) -> None:
        for name in self.params():
            setattr(self, f"d_{name}", None)

    def astype(self, dtype) -> None:
        for name, arr in self.state().items():
            setattr(self, name, arr.astype(dtype))
        self._cache = None


class Conv(Layer):
    """2-D convolution as im2col + GEMM. The forward unfolds the input a band
    of output rows at a time, each band's columns taking at most BAND_BYTES
    (or one row, if that is larger). A training forward whose columns fit one
    band keeps them for backward; otherwise it keeps its input, and backward
    works from that one kernel offset at a time."""

    # The vgg16 capture forward runs as fast with 512 KiB as with 8 MiB. At
    # 8 MiB every tiny4 conv fits one band at the desk batch sizes, so desk
    # training keeps its columns: the offset backward sums tiny4's small
    # products in another order, which would change the desk run's values.
    BAND_BYTES = 1 << 23

    def __init__(self, in_channels, out_channels, kernel, stride, padding, bias, rng, dtype,
                 weight=None):
        """The weight is drawn from ``rng`` by ``kaiming_normal``, or given
        as ``weight`` when it was drawn so already: ``Network`` draws every
        layer's weight in one call."""
        if weight is None:
            weight, = kaiming_normal([(rng, (out_channels, in_channels, *kernel))], dtype)
        self.weight = weight
        self.bias = np.zeros(out_channels, dtype=dtype) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x, train):
        n, _, h, w = x.shape
        out_c, _, kh, kw = self.weight.shape
        out_h, out_w = _out_size(h, w, kh, kw, self.stride, self.padding)
        w2d = self.weight.reshape(out_c, -1)
        xpad = x
        if self.padding:
            xpad = _pad(x.transpose(1, 2, 3, 0), self.padding).transpose(3, 0, 1, 2)
        per_row = out_w * n               # output columns per output row
        row = w2d.shape[1] * per_row      # column elements per output row
        band = max(1, min(out_h, self.BAND_BYTES // (row * x.itemsize)))
        # one band's columns may become the cache, so only a block reused
        # across bands comes from the shared workspace
        if band == out_h:
            block = np.empty(band * row, dtype=x.dtype)
        else:
            block = WORKSPACE.take(band * row, x.dtype)
        # each band's GEMM writes its band of the (O, out_h*out_w*N) output
        out = np.empty((out_c, out_h * per_row), dtype=np.result_type(w2d, x))
        for r0 in range(0, out_h, band):
            r1 = min(r0 + band, out_h)
            cols, _, _ = im2col(xpad, kh, kw, self.stride, 0, rows=(r0, r1), out=block)
            _matmul(w2d, cols, out[:, r0 * per_row:r1 * per_row])
        if train:
            # columns that fit one band are kept for backward; larger ones
            # are never formed whole, and backward works from the input
            self._cache = (x.shape, None, cols) if band == out_h else (x.shape, x, None)
        if self.bias is not None:
            by_channel(_add_into, (out, self.bias[:, None]))
        return out.reshape(out_c, out_h, out_w, n).transpose(3, 0, 1, 2)

    def backward(self, dout, input_grad=True):
        x_shape, x, cols = self._cache
        self._cache = None
        out_c, _, kh, kw = self.weight.shape
        dflat = dout.transpose(1, 2, 3, 0).reshape(out_c, -1)
        if self.bias is not None:
            self.d_bias = np.empty(out_c, dtype=dflat.dtype)
            by_channel(_sum_rows, (dflat, self.d_bias))
        if cols is None:
            return self._backward_by_offset(x, dflat, input_grad)
        d_weight = np.empty((out_c, cols.shape[0]), dtype=np.result_type(dflat, cols))
        self.d_weight = _matmul(dflat, cols.T, d_weight).reshape(self.weight.shape)
        if not input_grad:
            return None
        # the weight gradient was the columns' last use
        dcols = _matmul(self.weight.reshape(out_c, -1).T, dflat, cols)
        return col2im(dcols, x_shape, kh, kw, self.stride, self.padding)

    def _backward_by_offset(self, x, dflat, input_grad):
        """Backward without kept columns, one kernel offset (i, j) at a time
        (the kn2row split). An offset's window of the padded input is one
        (C, out_h*out_w*N) row block of the im2col columns; it is copied into
        one block of the shared workspace for the weight gradient's GEMM,
        and the input gradient's GEMM then writes into the same block, which
        is added onto the padded input gradient. Every GEMM keeps the inner
        dimension of the whole-batch product, and ``_windows`` walks col2im's
        (i, j) order, so the values are the kept-columns path's."""
        n, in_c, h, w = x.shape
        out_c, _, kh, kw = self.weight.shape
        p = self.padding
        out_h, out_w = _out_size(h, w, kh, kw, self.stride, p)
        xpad = x.transpose(1, 2, 3, 0)
        if p:
            xpad = _pad(xpad, p)
        block = WORKSPACE.take((in_c, out_h, out_w, n), x.dtype)
        flat = block.reshape(in_c, -1)
        # held as (kh, kw, O, C), so each offset's GEMM fills a contiguous
        # slab; the gradient is its (O, C, kh, kw) view
        d_weight = np.empty((kh, kw, out_c, in_c), dtype=np.result_type(dflat, x))
        dx = np.zeros((in_c, h + 2 * p, w + 2 * p, n), dtype=x.dtype) if input_grad else None
        for i, j, window in _windows(kh, kw, self.stride, (0, out_h), out_w):
            by_channel(_copy_into, (block, xpad[window]))
            _matmul(dflat, flat.T, d_weight[i, j])
            if input_grad:
                _matmul(np.ascontiguousarray(self.weight[:, :, i, j]).T, dflat, flat)
                by_channel(_add_into, (dx[window], block))
        self.d_weight = d_weight.transpose(2, 3, 0, 1)
        if dx is None:
            return None
        if p:
            dx = dx[:, p:-p, p:-p]
        return dx.transpose(3, 0, 1, 2)


class BatchNorm(Layer):
    """Spatial batchnorm. Eval mode uses running statistics (momentum 0.1,
    biased batch variance, eps 1e-5)."""

    MOMENTUM = 0.1
    EPS = 1e-5

    def __init__(self, channels, dtype):
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x, train):
        n, c, h, w = x.shape
        rows = x.transpose(1, 2, 3, 0).reshape(c, -1)
        out = np.empty(rows.shape, dtype=rows.dtype)
        if train:
            mean, var, inv_std = (np.empty(c, dtype=rows.dtype) for _ in range(3))
            xhat = np.empty(rows.shape, dtype=rows.dtype)
            by_channel(_batchnorm_train, (rows, out, xhat, mean, var, inv_std,
                                          self.gamma, self.beta), self.EPS)
            m = self.MOMENTUM
            self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(x.dtype)
            self.running_var = ((1 - m) * self.running_var + m * var).astype(x.dtype)
            # training keeps xhat for backward
            self._cache = (xhat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.EPS)
            # eval forms xhat in the output buffer
            by_channel(_batchnorm_apply, (rows, out, None, self.running_mean, inv_std,
                                          self.gamma, self.beta))
        return out.reshape(c, h, w, n).transpose(3, 0, 1, 2)

    def backward(self, dout, input_grad=True):
        xhat, inv_std = self._cache
        self._cache = None
        n, c, h, w = dout.shape
        rows = dout.transpose(1, 2, 3, 0).reshape(c, -1)
        self.d_gamma = np.empty(c, dtype=rows.dtype)
        self.d_beta = np.empty(c, dtype=rows.dtype)
        dx = np.empty(rows.shape, dtype=rows.dtype) if input_grad else None
        by_channel(_batchnorm_backward, (rows, xhat, dx, self.d_gamma, self.d_beta,
                                         self.gamma * inv_std))
        return None if dx is None else dx.reshape(c, h, w, n).transpose(3, 0, 1, 2)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def state(self):
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }


def _batchnorm_train(rows, out, xhat, mean, var, inv_std, gamma, beta, eps):
    """Two-pass batch statistics per channel row, the mean corrected by the
    mean residual (the residual is scratch, held in ``out``), then the
    normalisation."""
    mean[...] = rows.mean(axis=1)
    resid = np.subtract(rows, mean[:, None], out=out)
    corr = resid.mean(axis=1)
    mean += corr
    var[...] = np.square(resid, out=resid).mean(axis=1) - corr * corr
    inv_std[...] = 1.0 / np.sqrt(var + eps)
    _batchnorm_apply(rows, out, xhat, mean, inv_std, gamma, beta)


def _batchnorm_apply(rows, out, xhat, mean, inv_std, gamma, beta):
    """``out = gamma * xhat + beta`` per channel row, ``xhat`` formed in
    ``out`` when None."""
    xhat = np.subtract(rows, mean[:, None], out=out if xhat is None else xhat)
    xhat *= inv_std[:, None]
    np.multiply(xhat, gamma[:, None], out=out)
    out += beta[:, None]


def _batchnorm_backward(rows, xhat, dx, d_gamma, d_beta, scale):
    """Batch-stat backprop per channel row, ``scale`` being gamma * inv_std:
    scale * (dout - mean(dout) - xhat * mean(dout * xhat)). No input
    gradient when ``dx`` is None."""
    m = rows.shape[1]
    d_gamma[...] = (rows * xhat).sum(axis=1)
    d_beta[...] = rows.sum(axis=1)
    if dx is None:
        return
    np.multiply(xhat, (d_gamma / m)[:, None], out=dx)
    np.subtract(rows, dx, out=dx)
    dx -= (d_beta / m)[:, None]
    dx *= scale[:, None]


def _channels_first(x):
    """An (N, C, ...) activation or gradient, or None, viewed with its
    channels first: free for one held batch-innermost."""
    if x is None:
        return None
    return x.transpose(1, 2, 3, 0) if x.ndim == 4 else x.T


def _relu_forward(x, out, mask):
    np.maximum(x, 0, out=out)
    if mask is not None:
        np.greater(x, 0, out=mask)


class ReLU(Layer):
    def forward(self, x, train):
        out = np.empty_like(x)
        mask = np.empty_like(x, dtype=bool) if train else None
        by_channel(_relu_forward, tuple(map(_channels_first, (x, out, mask))))
        if train:
            self._cache = mask
        return out

    def backward(self, dout, input_grad=True):
        mask = self._cache
        self._cache = None
        if not input_grad:
            return None
        dx = np.empty_like(dout)
        by_channel(np.multiply, tuple(map(_channels_first, (dout, mask, dx))))
        return dx


class MaxPool(Layer):
    """Max pooling; ties go to the first element of the window in row-major
    order. A window holding a NaN pools to NaN and passes back no gradient."""

    def __init__(self, kernel, stride):
        self.kernel = kernel
        self.stride = stride

    def forward(self, x, train):
        n, c, h, w = x.shape
        k = self.kernel
        out_h, out_w = _out_size(h, w, k, k, self.stride)
        out = np.empty((c, out_h, out_w, n), dtype=x.dtype)
        # one plane per kernel offset: where that offset holds its window's
        # first maximum
        first = np.empty((c, k * k, out_h, out_w, n), dtype=bool) if train else None
        by_channel(_pool_forward, (x.transpose(1, 2, 3, 0), out, first), k, self.stride)
        if train:
            self._cache = (x.shape, first)
        return out.transpose(3, 0, 1, 2)

    def backward(self, dout, input_grad=True):
        x_shape, first = self._cache
        self._cache = None
        if not input_grad:
            return None
        n, c, h, w = x_shape
        k = self.kernel
        # windows that tile the input write every cell once; others add onto
        # zeros, in col2im's order
        tiles = self.stride == k and h % k == 0 and w % k == 0
        dx = (np.empty if tiles else np.zeros)((c, h, w, n), dtype=dout.dtype)
        by_channel(_pool_backward, (first, dout.transpose(1, 2, 3, 0), dx), k, self.stride,
                   tiles)
        return dx.transpose(3, 0, 1, 2)


def _pool_forward(x, out, first, k, stride):
    """Each window's maximum of the batch-innermost input ``x`` into ``out``
    and, unless ``first`` is None, each offset's plane of first maxima into
    ``first``."""
    out_h, out_w = out.shape[1:3]
    windows = [window for _, _, window in _windows(k, k, stride, (0, out_h), out_w)]
    out[...] = x[windows[0]]
    for window in windows[1:]:
        np.maximum(out, x[window], out=out)
    if first is None:
        return
    taken = np.zeros(out.shape, dtype=bool)
    for o, window in enumerate(windows):
        hit = first[:, o]
        np.equal(x[window], out, out=hit)
        hit &= ~taken
        taken |= hit


def _pool_backward(first, dout, dx, k, stride, tiles):
    """Each offset's plane of ``first`` times ``dout``, written into its
    windows of ``dx`` when ``tiles``, else added onto them."""
    out_h, out_w = dout.shape[1:3]
    for o, (_, _, window) in enumerate(_windows(k, k, stride, (0, out_h), out_w)):
        if tiles:
            np.multiply(first[:, o], dout, out=dx[window])
        else:
            dx[window] += first[:, o] * dout


class Linear(Layer):
    def __init__(self, in_features, out_features, bias, rng, dtype, weight=None):
        """The weight is drawn or given as ``Conv``'s is."""
        if weight is None:
            weight, = kaiming_normal([(rng, (out_features, in_features))], dtype)
        self.weight = weight
        self.bias = np.zeros(out_features, dtype=dtype) if bias else None

    @staticmethod
    def _flat(x):
        """(N, F) view of the input; a 4-D input flattens in (C, H, W) feature
        order, for free when it is held batch-innermost."""
        if x.ndim == 2:
            return x
        return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).reshape(-1, x.shape[0]).T

    def forward(self, x, train):
        out = self._flat(x) @ self.weight.T
        if self.bias is not None:
            out += self.bias
        if train:
            self._cache = x
        return out

    def backward(self, dout, input_grad=True):
        x = self._cache
        self._cache = None
        self.d_weight = dout.T @ self._flat(x)
        if self.bias is not None:
            self.d_bias = dout.sum(axis=0)
        if not input_grad:
            return None
        if x.ndim == 2:
            return dout @ self.weight
        n, c, h, w = x.shape
        return (self.weight.T @ dout.T).reshape(c, h, w, n).transpose(3, 0, 1, 2)
