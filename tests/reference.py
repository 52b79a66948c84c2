"""Reference formulas the tests check the package against, and the data
helpers they build instances with; no run uses them."""

from dataclasses import fields

import numpy as np

from qrgt import build_metropolis, make_instance, random_stiefel, workers
from qrgt.stiefel import CHOLESKY_K
from qrgt.streams import STREAM_DITHER, STREAM_INIT, stream_rng


def gram(x: np.ndarray) -> np.ndarray:
    """x^T x, batched over leading dimensions, as the package takes it: a
    GEMM of a C-contiguous copy of x^T with x, not numpy's ``syrk`` of
    ``x.T @ x``, which rounds differently at d = 784."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)) @ x


def _gram_defect(x: np.ndarray) -> np.ndarray:
    """x^T x - I, batched over leading dimensions."""
    x = np.asarray(x, dtype=float)
    return gram(x) - np.eye(x.shape[-1])


def manifold_defect(x: np.ndarray) -> float:
    """Frobenius norm of x^T x - I_r (0 exactly on the manifold)."""
    return float(np.linalg.norm(_gram_defect(x)))


def penalty(x: np.ndarray) -> float:
    """Orthogonality penalty ||x^T x - I_r||_F^2, whose gradient is ``penalty_grad``."""
    return float(np.sum(_gram_defect(x) ** 2))


def local_grad(inst, agent: int, x: np.ndarray) -> np.ndarray:
    """Agent ``agent``'s Euclidean gradient -A_i^T A_i x, from its Gram."""
    return -(inst.grams[agent] @ x)


def panel_products(grams: np.ndarray, X: np.ndarray) -> np.ndarray:
    """-(G_i @ X_i) for an (n, d, d) Gram stack, each product taken as its
    ``workers.panels`` of rows, as one stacked matmul per panel."""
    d, r = X.shape[-2:]
    return -np.concatenate([np.matmul(grams[:, lo:hi], X) for lo, hi in workers.panels(d, d * r)], axis=1)


def global_objective(inst, x: np.ndarray) -> float:
    """f(x) = -sum_i tr(x^T A_i^T A_i x) / (2n)."""
    return float(-0.5 * np.sum(x * (inst.mean_gram @ x)))


def fill_from(blocks):
    """A block producer for ``make_instance`` that copies agent i's block
    from the list ``blocks``."""

    def fill(i: int, out: np.ndarray) -> None:
        out[...] = blocks[i]

    return fill


def filled_blocks(row_counts, d: int, fill) -> list[np.ndarray]:
    """Every agent's block from the producer ``fill``, each in its own
    float64 (m_i, d) array."""
    blocks = []
    for i, m in enumerate(row_counts):
        a = np.empty((m, d))
        fill(i, a)
        blocks.append(a)
    return blocks


def wide_instance(n: int = 4, m: int = 100, d: int = 784, r: int = 5, seed: int = 0):
    """An instance at the MNIST image size d = 784: n Gaussian (m, d) blocks,
    each Gram a^T a (n = 4: about 20 MB of Grams)."""
    rng = np.random.default_rng(seed)
    return make_instance((m,) * n, d, fill_from([rng.standard_normal((m, d)) for _ in range(n)]), r)


# ---------------------------------------------------------------------------
# The SVD forms of the two distances, which the package's r x r eigenvalue
# forms replaced: the singular values of x, and orthogonal Procrustes by the
# SVD of x^T xstar. The tests hold the package to them within a tolerance.


def svd_distance_to_manifold(x):
    """sqrt(sum_i (sigma_i - 1)^2) over the singular values of x, per slice."""
    sv = np.linalg.svd(x, compute_uv=False)
    return np.sqrt(((sv - 1.0) ** 2).sum(axis=-1))


def svd_subspace_distance(x, xstar):
    """||x U V^T - xstar|| with x^T xstar = U S V^T, for one (d, r) x."""
    u, _, vt = np.linalg.svd(x.T @ xstar)
    return float(np.linalg.norm(x @ (u @ vt) - xstar))


# ---------------------------------------------------------------------------
# The epoch arithmetic of ``qrgt.run`` written out plainly: ``np.swapaxes``,
# one product and its transpose in the tangent projection, ``np.eye`` per call, the tanh
# sigmoid for the direction bit, ``np.mean``, ``np.linalg.norm`` and
# ``np.sum``, and both distances from the eigenvalues of an r x r Gram.
# Every Gram x^T x is ``gram``'s GEMM, and each product W^t Y and G_i X_i
# is cut into ``workers.panels`` as the package cuts it. ``reference_run``
# must give the same bits as ``run``; a change to the package that alters
# one rounding breaks that.


def ref_tangent_project(x, y):
    """y - x (M + M^T) / 2 with M = x^T y, one product, as the package
    takes it. A second product y^T x would not do: it need not round as
    M^T does, and under OpenBLAS's Haswell kernels the two differed in 300
    of 300 random (10, 10, 5) stacks."""
    m = np.swapaxes(x, -1, -2) @ y
    return y - 0.5 * (x @ (m + np.swapaxes(m, -1, -2)))


def ref_penalty_grad(x):
    return 4.0 * (x @ _gram_defect(x))


def ref_sv_offsets(gram, terms):
    """sigma_i - 1 for the singular values whose squares are the
    eigenvalues of ``gram``, an eigenvalue at most terms r eps times their
    sum (the Gram's rounding) read as 0."""
    lam = np.linalg.eigvalsh(gram)
    floor = lam.sum(axis=-1, keepdims=True) * (terms * gram.shape[-1] * np.finfo(float).eps)
    lam = np.where(lam <= floor, 0.0, lam)
    return (lam - 1.0) / (np.sqrt(lam) + 1.0)


def ref_distance_to_manifold(x):
    off = ref_sv_offsets(gram(x), x.shape[-2])
    return np.sqrt((off**2).sum(axis=-1))


def ref_subspace_distance(x, xstar):
    """Procrustes for an orthonormal xstar: with A = xstar^T x,
    ||x - xstar A||^2 plus the squared distance of A to the orthogonal group."""
    a = xstar.T @ x
    off = ref_sv_offsets(gram(a), a.shape[0])
    return np.sqrt(np.sum((x - xstar @ a) ** 2) + np.sum(off**2))


def ref_retract(x, xi):
    """The Q factor of x + xi from the Cholesky factor of the augmented
    matrix [[G, I], [I, c I]], G = y^T y, c = K / tr(G), one slice at a time;
    only for slices that pass its conditioning screen, as a run's do."""
    out = []
    for y in np.reshape(x + xi, (-1, *x.shape[-2:])):
        r = y.shape[1]
        g = gram(y)
        aug = np.block([[g, np.eye(r)], [np.eye(r), CHOLESKY_K / np.trace(g) * np.eye(r)]])
        out.append(y @ np.linalg.cholesky(aug)[r:, :r])
    return np.reshape(out, x.shape)


def householder_retract(x, xi):
    """The same Q factor by Householder QR, with the sign fix diag(R) > 0."""
    q, r = np.linalg.qr(x + xi)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def ref_snap(g, pgrad, levels, noise):
    gamma = 2.0 * np.abs(g).reshape(g.shape[:-2] + (-1,)).max(axis=-1)
    safe = np.where(gamma == 0.0, 1.0, gamma)[..., None, None]
    idx = g / safe
    idx += 0.5
    idx += noise
    idx *= levels
    np.floor(idx, out=idx)
    idx += np.rint(0.5 * (1.0 + np.tanh(0.5 * pgrad)))
    idx /= levels
    idx -= 0.5
    idx *= safe
    zero = np.equal(gamma, 0.0)
    if zero.any():
        idx[zero] = 0.0
    return idx


def ref_evaluate(X, inst):
    """(consensus_error, grad_norm, f_gap, ds, dist_mean) at the agent mean."""
    xbar = np.mean(X, axis=0)
    if inst.dims.d >= workers.TRANSPOSE_MIN_D:
        neg_gram_x = np.negative((xbar.T @ inst.mean_gram).T, order="C")
    else:
        neg_gram_x = -(inst.mean_gram @ xbar)
    rgrad = ref_tangent_project(xbar, neg_gram_x)
    return (
        float(np.linalg.norm(X - xbar)),
        float(np.linalg.norm(rgrad)),
        float(0.5 * np.sum(xbar * neg_gram_x)) - inst.f_star,
        float(ref_subspace_distance(xbar, inst.x_star)),
        float(ref_distance_to_manifold(xbar)),
    )


def reference_run(inst, topology, cfg):
    """The rows, stop reason and table of ``run(inst, topology, cfg,
    diagnostics=True)``, from the formulas above.

    Returns (rows, termination, columns): each row is (epoch,
    consensus_error, grad_norm, f_gap, ds, dist_mean, wire_bits_cum), one
    for each epoch 1 to K, and ``columns`` maps the name of every column of
    the run's table but the timing ``wall_ms`` to its list of entries 0 to
    K, entry 0 being the shared start. It has no divergence check, so it
    suits only runs that do not diverge. The local gradients are the stacked
    products panel by panel, which every split of the agents equals bit for
    bit.
    """
    W_t = build_metropolis(topology, cfg.t).W_t
    n, d, r = inst.n_agents, inst.dims.d, inst.dims.r
    levels = (1 << cfg.bits) - 1
    half = 0.5 / levels
    dither = stream_rng(cfg.seed, STREAM_DITHER)
    quantized = cfg.algorithm == "qrgt"

    def mix(Y):
        flat = Y.reshape(n, -1)
        cuts = workers.panels(flat.shape[1], n * n)
        return np.hstack([W_t @ flat[:, lo:hi] for lo, hi in cuts]).reshape(Y.shape)

    def local_grads(X):
        return panel_products(inst.grams, X)

    def quantize(RG, X):
        noise = dither.uniform(-half, half, size=RG.shape)
        return ref_snap(RG, ref_penalty_grad(X), levels, noise)

    names = ("consensus_error", "grad_norm", "f_gap", "ds", "dist_mean",
             "tracker_residual", "s_consensus_sq", "max_dist")
    columns = {name: [] for name in names}

    def record(x, s, g):
        """Append epoch k's entries to every column; returns its five metrics."""
        metrics = ref_evaluate(x, inst)
        sbar = s.mean(axis=0)
        gbar = g.mean(axis=0)
        residual = float(np.linalg.norm(sbar - gbar)) / max(1.0, float(np.linalg.norm(gbar)))
        s_dev = s - sbar
        entries = (*metrics, residual, float(np.vdot(s_dev, s_dev)), float(ref_distance_to_manifold(x).max()))
        for name, value in zip(names, entries):
            columns[name].append(value)
        return metrics

    x0 = random_stiefel(d, r, stream_rng(cfg.seed, STREAM_INIT))
    x = np.broadcast_to(x0, (n, d, r)).copy()
    RG = ref_tangent_project(x, local_grads(x))
    g = quantize(RG, x) if quantized else RG
    s = g.copy()
    record(x, s, g)  # the start never stops a run
    wire_per_epoch = n * (d * r * cfg.bits + 64) if quantized else 0
    wire_cum = wire_per_epoch
    rows = []
    termination = "MaxEpochs"
    for epoch in range(1, cfg.max_epochs + 1):
        if quantized:
            xn = mix(x)
            xn -= cfg.alpha * s
            gn = quantize(ref_tangent_project(xn, local_grads(xn)), xn)
            sn = mix(s)
            sn += gn
            sn -= g
        else:
            direction = mix(x) - x - cfg.alpha * s
            xn = ref_retract(x, ref_tangent_project(x, direction))
            gn = ref_tangent_project(xn, local_grads(xn))
            sn = mix(s) + gn - g
        x, s, g = xn, sn, gn
        wire_cum += wire_per_epoch
        metrics = record(x, s, g)
        rows.append((epoch, *metrics, wire_cum))
        if metrics[3] <= cfg.ds_tol:
            termination = "DsTolerance"
            break
    return rows, termination, columns


def reference_trace_csv(cfg, trace) -> str:
    """The text ``cli.write_trace_csv`` writes for ``trace``: the one-string
    writer it replaced, which formatted a ``TraceRow`` per row."""
    lines = [f"# {f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]
    lines.append("epoch,consensus_error,grad_norm,f_gap,ds,dist_mean,wall_ms,wire_bits_cum")
    for row in trace.rows:
        wall = row.wall_ms if cfg.timing else 0.0
        lines.append(
            f"{row.epoch},{row.consensus_error!r},{row.grad_norm!r},{row.f_gap!r},"
            f"{row.ds!r},{row.dist_mean!r},{wall!r},{row.wire_bits_cum}"
        )
    return "\n".join(lines) + "\n"
