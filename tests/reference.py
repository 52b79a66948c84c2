"""Reference formulas the tests check the package against, and the data
helpers they build instances with; no run uses them."""

from dataclasses import fields

import numpy as np

from qrgt import build_metropolis, make_instance, random_stiefel, workers
from qrgt.streams import STREAM_DITHER, STREAM_INIT, stream_rng


def _gram_defect(x: np.ndarray) -> np.ndarray:
    """x^T x - I, batched over leading dimensions."""
    x = np.asarray(x, dtype=float)
    return np.swapaxes(x, -1, -2) @ x - np.eye(x.shape[-1])


def manifold_defect(x: np.ndarray) -> float:
    """Frobenius norm of x^T x - I_r (0 exactly on the manifold)."""
    return float(np.linalg.norm(_gram_defect(x)))


def penalty(x: np.ndarray) -> float:
    """Orthogonality penalty ||x^T x - I_r||_F^2, whose gradient is ``penalty_grad``."""
    return float(np.sum(_gram_defect(x) ** 2))


def local_grad(inst, agent: int, x: np.ndarray) -> np.ndarray:
    """Agent ``agent``'s Euclidean gradient -A_i^T A_i x, from its Gram."""
    return -(inst.grams[agent] @ x)


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
# The epoch arithmetic of ``qrgt.run`` written out plainly: ``np.swapaxes``,
# two products in the tangent projection, ``np.eye`` per call, the tanh
# sigmoid for the direction bit, ``np.mean``, ``np.linalg.norm`` and
# ``np.sum``. ``reference_run`` must give the same bits as ``run``; a change
# to the package that alters one rounding breaks that.


def ref_tangent_project(x, y):
    xt = np.swapaxes(x, -1, -2)
    yt = np.swapaxes(y, -1, -2)
    sym = xt @ y + yt @ x
    return y - 0.5 * (x @ sym)


def ref_penalty_grad(x):
    return 4.0 * (x @ _gram_defect(x))


def ref_distance_to_manifold(x):
    sv = np.linalg.svd(x, compute_uv=False)
    return np.sqrt(((sv - 1.0) ** 2).sum(axis=-1))


def ref_retract(x, xi):
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
    u, _, vt = np.linalg.svd(xbar.T @ inst.x_star)
    return (
        float(np.linalg.norm(X - xbar)),
        float(np.linalg.norm(rgrad)),
        float(0.5 * np.sum(xbar * neg_gram_x)) - inst.f_star,
        float(np.linalg.norm(xbar @ (u @ vt) - inst.x_star)),
        float(ref_distance_to_manifold(xbar)),
    )


def reference_run(inst, topology, cfg):
    """The rows, stop reason and every diagnostic list of ``run(inst,
    topology, cfg, diagnostics=True)``, from the formulas above.

    Returns (rows, termination, diagnostics): each row is (epoch,
    consensus_error, grad_norm, f_gap, ds, dist_mean, wire_bits_cum), and
    ``diagnostics`` maps each ``RunDiagnostics`` field to its list. It has
    no divergence check, so it suits only runs that do not diverge. The local
    gradients are the stacked products, which equal every split of them bit
    for bit.
    """
    W_t = build_metropolis(topology, cfg.t).W_t
    n, d, r = inst.n_agents, inst.dims.d, inst.dims.r
    levels = (1 << cfg.bits) - 1
    half = 0.5 / levels
    dither = stream_rng(cfg.seed, STREAM_DITHER)
    quantized = cfg.algorithm == "qrgt"

    def mix(Y):
        return (W_t @ Y.reshape(n, -1)).reshape(Y.shape)

    def local_grads(X):
        return -np.matmul(inst.grams, X)

    def quantize(RG, X):
        noise = dither.uniform(-half, half, size=RG.shape)
        return ref_snap(RG, ref_penalty_grad(X), levels, noise)

    diag = {"tracker_residual": [], "x_consensus_sq": [], "s_consensus_sq": [], "max_dist": []}

    def record_diag(x, s, g, x_consensus_sq):
        sbar = s.mean(axis=0)
        gbar = g.mean(axis=0)
        diag["tracker_residual"].append(
            float(np.linalg.norm(sbar - gbar)) / max(1.0, float(np.linalg.norm(gbar)))
        )
        s_dev = s - sbar
        diag["x_consensus_sq"].append(x_consensus_sq)
        diag["s_consensus_sq"].append(float(np.vdot(s_dev, s_dev)))
        diag["max_dist"].append(float(ref_distance_to_manifold(x).max()))

    x0 = random_stiefel(d, r, stream_rng(cfg.seed, STREAM_INIT))
    x = np.broadcast_to(x0, (n, d, r)).copy()
    RG = ref_tangent_project(x, local_grads(x))
    g = quantize(RG, x) if quantized else RG
    s = g.copy()
    record_diag(x, s, g, float(np.linalg.norm(x - np.mean(x, axis=0))) ** 2)
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
        metrics = ref_evaluate(x, inst)
        rows.append((epoch, *metrics, wire_cum))
        record_diag(x, s, g, metrics[0] ** 2)
        if metrics[3] <= cfg.ds_tol:
            termination = "DsTolerance"
            break
    return rows, termination, diag


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
