"""Layer forward/backward kernels.

Layers take and return (N, C, H, W) arrays. Between layers each activation
and gradient is held batch-innermost: a C-contiguous (C, H, W, N) buffer,
passed on as its (N, C, H, W) view ``buf.transpose(3, 0, 1, 2)``. A layer
works on ``x.transpose(1, 2, 3, 0)``, which is free for such a view, so
every window copy and per-channel reduction moves runs of whole batches. A
C-contiguous (N, C, H, W) input gives the same values at the cost of a copy.
"""
from __future__ import annotations

import os

import numpy as np

# A product of at least this many multiply-adds is split across the usable
# CPUs. One BLAS thread on a 2-vCPU Xeon (OpenBLAS 0.3.31) ran halves of
# 64x576xN and 512x4608xN no faster than the whole below 2^24 and 25-30%
# faster from 2^25. Every tiny4 product stays below it (the largest, conv2 in
# evaluation at batch 256, is 16x72x16384, about 2^24.2).
_SPLIT_MACS = 1 << 25

# helper threads, made on the first split and shared, like WORKSPACE, by
# every Conv in the process
_POOL = None


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_one_thread():
    """Whether BLAS is pinned to one thread: every one of the variables
    ``perfbench/run.py`` sets that is set reads 1. With none set, OpenBLAS
    threads each product itself."""
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    values = [os.environ[var] for var in pins if var in os.environ]
    return bool(values) and all(v.strip() == "1" for v in values)


def _drop_pool():
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads
    os.register_at_fork(after_in_child=_drop_pool)


def _matmul(a, b, out):
    """``np.matmul(a, b, out=out)`` for 2-D operands, with a large product
    split across the usable CPUs when BLAS runs one thread.

    The wider output dimension (columns, else rows) is cut into contiguous
    pieces, one per CPU, each of about half ``_SPLIT_MACS`` multiply-adds or
    more. The calling thread and helper threads compute the pieces, each into
    its own slice of ``out``, and the inner dimension is never cut, so every
    output element is the same BLAS sum as in the whole product. OpenBLAS
    summed pieces under 2^20 multiply-adds in another order, so pieces stay
    far above that. Helper threads run only ``np.matmul``.
    """
    (m, k), n = a.shape, b.shape[1]
    macs, wide = m * k * n, max(m, n)
    pieces = 1
    if macs >= _SPLIT_MACS and _blas_one_thread():
        pieces = min(_usable_cpus(), macs // (_SPLIT_MACS // 2), wide // 16)
    if pieces < 2:
        return np.matmul(a, b, out=out)
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="prunekit-gemm")
    # every cut at a multiple of 16, so only the last piece ends in the
    # narrow tail the whole product has
    edges = [16 * round(wide * i / pieces / 16) for i in range(pieces)] + [wide]
    cuts = [np.s_[i:j] for i, j in zip(edges, edges[1:])]
    if n >= m:
        parts = [(a, b[:, cut], out[:, cut]) for cut in cuts]
    else:
        parts = [(a[cut], b, out[cut]) for cut in cuts]
    futures = [_POOL.submit(np.matmul, x, y, out=o) for x, y, o in parts[1:]]
    try:
        x, y, o = parts[0]
        np.matmul(x, y, out=o)
        # helpers take pieces first to last; the caller takes back, last
        # first, those no helper has started
        for future, (x, y, o) in zip(reversed(futures), reversed(parts[1:])):
            if future.cancel():
                np.matmul(x, y, out=o)
    finally:
        # every piece a helper took is finished before ``out`` is handed back
        errors = [future.exception() for future in futures if not future.cancel()]
    for error in errors:
        if error is not None:
            raise error
    return out


def _pad(x, padding):
    """A batch-innermost (C, H, W, N) array with ``padding`` zero cells added
    on each spatial side."""
    c, h, w, n = x.shape
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=x.dtype)
    padded[:, padding:padding + h, padding:padding + w] = x
    return padded


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
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    r0, r1 = (0, out_h) if rows is None else rows
    x = x.transpose(1, 2, 3, 0)
    if padding:
        x = _pad(x, padding)
    shape = (c, kh, kw, r1 - r0, out_w, n)
    if out is None:
        cols = np.empty(shape, dtype=x.dtype)
    else:
        cols = out[:np.prod(shape)].reshape(shape)
    for i, j, window in _windows(kh, kw, stride, (r0, r1), out_w):
        cols[:, i, j] = x[window]
    return cols.reshape(c * kh * kw, -1), out_h, out_w


def col2im(dcols, x_shape, kh, kw, stride, padding):
    """Adjoint of im2col: scatter-add (C*kh*kw, out_h*out_w*N) columns, laid
    out as (C, kh, kw, out_h, out_w, N), back onto an (N, C, H, W) gradient
    held batch-innermost."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    dcols = dcols.reshape(c, kh, kw, out_h, out_w, n)
    dx = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=dcols.dtype)
    for i, j, window in _windows(kh, kw, stride, (0, out_h), out_w):
        dx[window] += dcols[:, i, j]
    if padding:
        dx = dx[:, padding:-padding, padding:-padding]
    return dx.transpose(3, 0, 1, 2)


class Workspace:
    """One scratch buffer that grows to the largest request and is freed only
    to grow, so repeated calls reuse its pages instead of faulting in fresh
    ones.

    ``take`` hands out the buffer's leading bytes as an array of the given
    shape and dtype; each call may overwrite what the previous one handed
    out, so a caller uses one block at a time and keeps nothing in it past
    its own call. The one ``WORKSPACE`` below is shared by every ``Conv`` of
    every ``Network`` in the process. Only the calling thread takes blocks;
    a split GEMM's helper threads write into their slices of a block and
    are done before ``_matmul`` returns.
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
    """Base: parameterless, cache-free passthrough.

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
        return {}

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

    def __init__(self, in_channels, out_channels, kernel, stride, padding, bias, rng, dtype):
        kh, kw = kernel
        fan_in = in_channels * kh * kw
        self.weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), (out_channels, in_channels, kh, kw)).astype(dtype)
        self.bias = np.zeros(out_channels, dtype=dtype) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x, train):
        n = x.shape[0]
        out_c = self.weight.shape[0]
        out, out_h, out_w, cols = self._forward_bands(x, self.weight.reshape(out_c, -1))
        if train:
            # columns that fit one band are kept for backward; larger ones
            # are never formed whole, and backward works from the input
            self._cache = (x.shape, x if cols is None else None, cols)
        if self.bias is not None:
            out += self.bias[:, None]
        return out.reshape(out_c, out_h, out_w, n).transpose(3, 0, 1, 2)

    def _out_size(self, h, w):
        kh, kw = self.weight.shape[2:]
        p, s = self.padding, self.stride
        return (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1

    def _forward_bands(self, x, w2d):
        """``w2d @ im2col(x)`` a band of output rows at a time: each band's
        columns go into one block reused across bands, and each GEMM writes
        its band of the (O, out_h*out_w*N) output in place. Returns the
        output, its height and width, and the whole batch's columns when one
        band held them all (else None)."""
        n, _, h, w = x.shape
        kh, kw = self.weight.shape[2:]
        out_h, out_w = self._out_size(h, w)
        if self.padding:
            x = _pad(x.transpose(1, 2, 3, 0), self.padding).transpose(3, 0, 1, 2)
        per_row = out_w * n               # output columns per output row
        row = w2d.shape[1] * per_row      # column elements per output row
        band = max(1, min(out_h, self.BAND_BYTES // (row * x.itemsize)))
        # one band's columns may become the cache, so only a block reused
        # across bands comes from the shared workspace
        if band == out_h:
            block = np.empty(band * row, dtype=x.dtype)
        else:
            block = WORKSPACE.take(band * row, x.dtype)
        out = np.empty((w2d.shape[0], out_h * per_row), dtype=np.result_type(w2d, x))
        for r0 in range(0, out_h, band):
            r1 = min(r0 + band, out_h)
            cols, _, _ = im2col(x, kh, kw, self.stride, 0, rows=(r0, r1), out=block)
            _matmul(w2d, cols, out[:, r0 * per_row:r1 * per_row])
        return out, out_h, out_w, (cols if band == out_h else None)

    def backward(self, dout, input_grad=True):
        x_shape, x, cols = self._cache
        self._cache = None
        out_c, _, kh, kw = self.weight.shape
        dflat = dout.transpose(1, 2, 3, 0).reshape(out_c, -1)
        if self.bias is not None:
            self.d_bias = dflat.sum(axis=1)
        if cols is None:
            dtype = x.dtype
            self._weight_grad_by_offset(x, dflat)
            del x  # the input gradient needs only the input's shape
            return self._input_grad_by_offset(x_shape, dtype, dflat) if input_grad else None
        d_weight = np.empty((out_c, cols.shape[0]), dtype=np.result_type(dflat, cols))
        self.d_weight = _matmul(dflat, cols.T, d_weight).reshape(self.weight.shape)
        if not input_grad:
            return None
        # the weight gradient was the columns' last use
        dcols = _matmul(self.weight.reshape(out_c, -1).T, dflat, cols)
        return col2im(dcols, x_shape, kh, kw, self.stride, self.padding)

    # Without kept columns, backward works one kernel offset (i, j) at a time
    # (the kn2row split). An offset's window of the padded input is one
    # (C, out_h*out_w*N) row block of the im2col columns, and it is formed in
    # one block of the shared workspace. Every GEMM keeps the inner dimension
    # of the whole-batch product, and the input gradient is scattered in
    # col2im's (i, j) order, both walked by ``_windows``, so the values are
    # the kept-columns path's.

    def _weight_grad_by_offset(self, x, dflat):
        n, in_c, h, w = x.shape
        out_c, _, kh, kw = self.weight.shape
        out_h, out_w = self._out_size(h, w)
        xpad = x.transpose(1, 2, 3, 0)
        if self.padding:
            xpad = _pad(xpad, self.padding)
        block = WORKSPACE.take((in_c, out_h, out_w, n), x.dtype)
        flat = block.reshape(in_c, -1)
        # held as (kh, kw, O, C), so each offset's GEMM fills a contiguous
        # slab; the gradient is its (O, C, kh, kw) view
        d_weight = np.empty((kh, kw, out_c, in_c), dtype=np.result_type(dflat, x))
        for i, j, window in _windows(kh, kw, self.stride, (0, out_h), out_w):
            block[...] = xpad[window]
            _matmul(dflat, flat.T, d_weight[i, j])
        self.d_weight = d_weight.transpose(2, 3, 0, 1)

    def _input_grad_by_offset(self, x_shape, dtype, dflat):
        n, in_c, h, w = x_shape
        kh, kw = self.weight.shape[2:]
        p = self.padding
        out_h, out_w = self._out_size(h, w)
        block = WORKSPACE.take((in_c, out_h, out_w, n), dtype)
        flat = block.reshape(in_c, -1)
        dx = np.zeros((in_c, h + 2 * p, w + 2 * p, n), dtype=dtype)
        for i, j, window in _windows(kh, kw, self.stride, (0, out_h), out_w):
            _matmul(np.ascontiguousarray(self.weight[:, :, i, j]).T, dflat, flat)
            dx[window] += block
        if p:
            dx = dx[:, p:-p, p:-p]
        return dx.transpose(3, 0, 1, 2)

    def params(self):
        p = {"weight": self.weight}
        if self.bias is not None:
            p["bias"] = self.bias
        return p



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
            # two-pass statistics, the mean corrected by the mean residual;
            # the residual is scratch, held in the output buffer
            mean = rows.mean(axis=1)
            resid = np.subtract(rows, mean[:, None], out=out)
            corr = resid.mean(axis=1)
            mean += corr
            var = np.square(resid, out=resid).mean(axis=1) - corr * corr
            m = self.MOMENTUM
            self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(x.dtype)
            self.running_var = ((1 - m) * self.running_var + m * var).astype(x.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        # training keeps xhat for backward; eval forms it in the output buffer
        xhat = np.subtract(rows, mean[:, None], out=None if train else out)
        xhat *= inv_std[:, None]
        np.multiply(xhat, self.gamma[:, None], out=out)
        out += self.beta[:, None]
        if train:
            self._cache = (xhat, inv_std)
        return out.reshape(c, h, w, n).transpose(3, 0, 1, 2)

    def backward(self, dout, input_grad=True):
        xhat, inv_std = self._cache
        self._cache = None
        n, c, h, w = dout.shape
        rows = dout.transpose(1, 2, 3, 0).reshape(c, -1)
        m = rows.shape[1]
        self.d_gamma = (rows * xhat).sum(axis=1)
        self.d_beta = rows.sum(axis=1)
        if not input_grad:
            return None
        # batch-stat backprop per channel row:
        # gamma * inv_std * (dout - mean(dout) - xhat * mean(dout * xhat))
        dx = xhat * (self.d_gamma / m)[:, None]
        np.subtract(rows, dx, out=dx)
        dx -= (self.d_beta / m)[:, None]
        dx *= (self.gamma * inv_std)[:, None]
        return dx.reshape(c, h, w, n).transpose(3, 0, 1, 2)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def state(self):
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }


class ReLU(Layer):
    def forward(self, x, train):
        out = np.maximum(x, 0)
        if train:
            self._cache = x > 0
        return out

    def backward(self, dout, input_grad=True):
        mask = self._cache
        self._cache = None
        return dout * mask if input_grad else None


class MaxPool(Layer):
    """Max pooling; ties go to the first element of the window in row-major
    order."""

    def __init__(self, kernel, stride):
        self.kernel = kernel
        self.stride = stride

    def _tiles(self, h, w):
        """Whether the windows tile the input exactly (kernel == stride and the
        kernel divides both sides), so pooling is a reshape."""
        k = self.kernel
        return self.stride == k and h % k == 0 and w % k == 0

    def forward(self, x, train):
        n, c, h, w = x.shape
        k = self.kernel
        if self._tiles(h, w):
            win = x.transpose(1, 2, 3, 0).reshape(c, h // k, k, w // k, k, n)
            out = win[:, :, 0, :, 0].copy()
            for i, j in np.ndindex(k, k):
                np.maximum(out, win[:, :, i, :, j], out=out)
            if train:
                # one-hot of each window's first maximum, in the input's layout
                first = np.empty(win.shape, dtype=bool)
                taken = np.zeros(out.shape, dtype=bool)
                for i, j in np.ndindex(k, k):
                    hit = win[:, :, i, :, j] == out
                    hit &= ~taken
                    first[:, :, i, :, j] = hit
                    taken |= hit
                self._cache = (x.shape, first)
            return out.transpose(3, 0, 1, 2)
        cols, out_h, out_w = im2col(x, k, k, self.stride, 0)
        cols = cols.reshape(c, k * k, -1)
        arg = cols.argmax(axis=1)[:, None]
        if train:
            self._cache = (x.shape, arg)
        out = np.take_along_axis(cols, arg, axis=1)
        return out.reshape(c, out_h, out_w, n).transpose(3, 0, 1, 2)

    def backward(self, dout, input_grad=True):
        x_shape, picked = self._cache
        self._cache = None
        if not input_grad:
            return None
        n, c, h, w = x_shape
        k = self.kernel
        dt = dout.transpose(1, 2, 3, 0)
        if self._tiles(h, w):
            dx = picked * dt[:, :, None, :, None]
            return dx.reshape(c, h, w, n).transpose(3, 0, 1, 2)
        dcols = np.zeros((c, k * k, picked.shape[2]), dtype=dout.dtype)
        np.put_along_axis(dcols, picked, dt.reshape(c, 1, -1), axis=1)
        return col2im(dcols, x_shape, k, k, self.stride, 0)


class Linear(Layer):
    def __init__(self, in_features, out_features, bias, rng, dtype):
        self.weight = rng.normal(0.0, np.sqrt(2.0 / in_features), (out_features, in_features)).astype(dtype)
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

    def params(self):
        p = {"weight": self.weight}
        if self.bias is not None:
            p["bias"] = self.bias
        return p
