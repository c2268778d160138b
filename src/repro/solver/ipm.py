"""Primal-dual interior-point QP solver (Mehrotra predictor-corrector).

Solves the same problem as :func:`repro.solver.qp.solve_qp`:

    minimize    (1/2) x' P x + q' x
    subject to  l <= A x <= u

by converting the two-sided constraints to inequality form ``G x <= h``
and running a standard Mehrotra predictor-corrector method on the
perturbed KKT conditions.  Each iteration factorizes the normal matrix

    N(w) = P + reg + G' diag(w) G

which is symmetric positive definite, with SuperLU in symmetric mode:
diagonal pivots under a fill-reducing ordering that depends only on the
sparsity pattern.  Iteration counts are nearly independent of
conditioning, which makes this backend much faster than ADMM on the
dose-map programs (whose arrival-time variables are cost-free and
create flat directions that stall first-order methods).

One convex quadratic row ``(1/2)x'Qx + g'x <= b`` may join the linear
ones (the QCP's leakage budget, see :mod:`repro.solver.qcp`): it is one
more barrier pair in the same loop, so the QCP is one solve.  The
corrector carries the row's curvature along the predictor direction
(Mehrotra's second-order correction); treated as linear, the row can
make the loop cycle.

Repeated solves of structurally identical problems (dose-map sweep
points and guard retries) share an :class:`IPMWorkspace`.  It computes
the ordering once and holds the stacked ``G``, the symbolic sparsity of
the permuted ``N`` and a precomputed scatter operator, so each
iteration assembles the permuted normal matrix with a single SpMV and
factors it in the natural order.  Pass a mutable dict as ``workspace``
to carry it across calls; a ``warm`` state (previous ``x``/``z``)
typically cuts iteration counts roughly in half on adjacent sweep
points.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs, telemetry
from repro.solver.guards import SYMMETRIC_SPLU, prevalidate
from repro.solver.result import (
    STATUS_DIVERGED,
    STATUS_ILL_CONDITIONED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    STATUS_SOLVED,
    SolveResult,
    diagnostic_result,
)

#: Mehrotra iteration cap per solve.
MAX_ITER = 60


class IPMWorkspace:
    """Pattern-dependent precomputation shared across IPM solves.

    Valid for every problem with the same ``A`` (values and pattern),
    the same bound-finiteness masks, and the same ``P`` (and quadratic
    row ``Q``) sparsity patterns -- exactly the re-solves of a
    retargeted dose-map formulation, where only bound *values* change.
    Holds:

    * the stacked one-sided ``G`` (and its transpose), so bound changes
      only re-gather ``h``;
    * a symmetric fill-reducing ordering of the normal matrix
      ``N = P + reg*I + G' diag(w) G``: ``order`` (new -> old index)
      and ``perm`` (old -> new).  Minimum degree on ``N + N'`` reads
      only the sparsity pattern, so it is computed once here and serves
      every iterate, every QCP inner solve, every bound retarget and
      the regularized retry (the quadratic row's Hessian ``lam * Q``
      joins ``P`` on the same pattern);
    * the symbolic sparsity (``N_indptr``/``N_indices``) of the
      *permuted* normal matrix ``N[order][:, order]``;
    * a scatter operator ``E`` of shape (nnz(N), m) with
      ``Np.data = E @ w + P.data + reg`` -- each constraint row ``k``
      contributes ``w_k * G[k,a] * G[k,b]`` to the (a, b) entry, and
      ``E`` hard-codes its destination in the permuted pattern,
      replacing two sparse-sparse products per iteration with one SpMV.

    SuperLU exposes no symbolic-refactorization API, so the numeric
    factorization still runs per iteration, in the natural order of the
    already-permuted matrix.
    """

    #: Skip the scatter operator when the pairwise expansion would dwarf
    #: nnz(N) (dense-ish constraint rows make E itself the bottleneck).
    MAX_EXPANSION_RATIO = 40.0

    def __init__(self, P, A, l, u, Q=None):
        self.mask_u = np.isfinite(u)
        self.mask_l = np.isfinite(l)
        if not (self.mask_u.any() or self.mask_l.any()):
            raise ValueError("problem has no finite constraints")
        A_csr = sp.csr_matrix(A)
        blocks = []
        if self.mask_u.any():
            blocks.append(A_csr[self.mask_u])
        if self.mask_l.any():
            blocks.append(-A_csr[self.mask_l])
        G = sp.vstack(blocks, format="csr")
        G.sort_indices()
        self.G = G
        self.Gcsc = G.tocsc()
        self.Gt = self.Gcsc.T.tocsc()
        self.n = A.shape[1]
        self.m = G.shape[0]
        self._A = A
        self._A_sig = (A.shape, A.nnz)
        self._P_indptr = P.indptr.copy()
        self._P_indices = P.indices.copy()
        self._Q_pattern = (
            None if Q is None else (Q.indptr.copy(), Q.indices.copy())
        )

        # symbolic pattern of N = P + I + G'G (structural union)
        absG = self.Gcsc.copy()
        absG.data = np.abs(absG.data)
        C = (absG.T @ absG).tocsc()
        ones = lambda M: sp.csc_matrix(  # noqa: E731 - pattern indicator
            (np.ones_like(M.data), M.indices, M.indptr), shape=M.shape
        )
        U = (ones(P) + ones(C) + sp.eye(self.n, format="csc")).tocsc()
        if Q is not None:
            U = (U + ones(Q)).tocsc()
        U.sort_indices()
        self.nnzN = U.nnz

        # the ordering reads only the pattern, but SuperLU returns it
        # from a factorization: give the pattern diagonally dominant
        # values so that one cannot fail
        col_counts = np.diff(U.indptr)
        U.data = np.where(
            U.indices == np.repeat(np.arange(self.n), col_counts),
            np.repeat(col_counts + 1.0, col_counts),
            1.0,
        )
        self.perm = spla.splu(
            U, permc_spec="MMD_AT_PLUS_A", **SYMMETRIC_SPLU
        ).perm_c.astype(np.int64)
        self.order = np.argsort(self.perm)

        # the permuted pattern, and its (col, row) -> data-array position
        # lookup in CSC data order
        Up = U[self.order][:, self.order].tocsc()
        Up.sort_indices()
        self.N_indptr = Up.indptr
        self.N_indices = Up.indices
        col_of = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(Up.indptr)
        )
        self._N_keys = col_of * self.n + Up.indices
        self.pos_P = self._positions(
            P.indices,
            np.repeat(np.arange(self.n, dtype=np.int64), np.diff(P.indptr)),
        )
        if Q is not None:
            self.pos_Q = self._positions(
                Q.indices,
                np.repeat(np.arange(self.n, dtype=np.int64), np.diff(Q.indptr)),
            )
        diag = np.arange(self.n, dtype=np.int64)
        self.pos_diag = self._positions(diag, diag)

        counts = np.diff(G.indptr).astype(np.int64)
        n_pairs = int((counts**2).sum())
        if n_pairs <= self.MAX_EXPANSION_RATIO * max(self.nnzN, 1):
            self.E = self._build_expansion(G, counts)
        else:
            self.E = None

    def _positions(self, rows, cols):
        """Permuted-pattern data positions of (row, col) entries of N."""
        keys = self.perm[cols]
        keys *= self.n
        keys += self.perm[rows]
        return np.searchsorted(self._N_keys, keys)

    def _build_expansion(self, G, counts):
        """E such that (G' diag(w) G).data (on the N pattern) == E @ w."""
        pos_parts, k_parts, val_parts = [], [], []
        for t in np.unique(counts):
            if t == 0:
                continue
            rows_t = np.nonzero(counts == t)[0]
            gidx = (
                G.indptr[rows_t][:, None] + np.arange(t, dtype=np.int64)
            ).ravel()
            cols_t = G.indices[gidx].reshape(rows_t.size, t)
            vals_t = G.data[gidx].reshape(rows_t.size, t)
            a = np.repeat(cols_t, t, axis=1)  # entry row index
            b = np.tile(cols_t, (1, t))  # entry col index
            va = np.repeat(vals_t, t, axis=1)
            vb = np.tile(vals_t, (1, t))
            pos_parts.append(self._positions(a.ravel(), b.ravel()))
            k_parts.append(np.repeat(rows_t, t * t))
            val_parts.append((va * vb).ravel())
        if not pos_parts:
            return sp.csr_matrix((self.nnzN, self.m))
        return sp.csr_matrix(
            (
                np.concatenate(val_parts),
                (np.concatenate(pos_parts), np.concatenate(k_parts)),
            ),
            shape=(self.nnzN, self.m),
        )

    def matches(self, P, A, l, u, Q=None) -> bool:
        """Can this workspace serve (P, A, l, u) and the row's Q?"""
        if A.shape != self._A_sig[0] or A.nnz != self._A_sig[1]:
            return False
        if not (
            np.array_equal(np.isfinite(u), self.mask_u)
            and np.array_equal(np.isfinite(l), self.mask_l)
        ):
            return False
        if A is not self._A:
            old = self._A
            if not (
                np.array_equal(A.indptr, old.indptr)
                and np.array_equal(A.indices, old.indices)
                and np.array_equal(A.data, old.data)
            ):
                return False
        if P.shape[0] != self.n:
            return False
        if (Q is None) != (self._Q_pattern is None):
            return False
        if Q is not None and not (
            np.array_equal(Q.indptr, self._Q_pattern[0])
            and np.array_equal(Q.indices, self._Q_pattern[1])
        ):
            return False
        return np.array_equal(P.indptr, self._P_indptr) and np.array_equal(
            P.indices, self._P_indices
        )

    def gather_h(self, l, u):
        return np.concatenate(
            [v for v in (u[self.mask_u], -l[self.mask_l]) if v.size]
        )

    def normal(self, P, w_inv, reg, Q=None, lam=0.0):
        """Assemble the permuted normal matrix ``N[order][:, order]``.

        ``N = P + lam*Q + reg*I + G' diag(w_inv) G``, on the cached
        pattern (``Q`` is the quadratic row's, when there is one).
        """
        if self.E is None:
            N = P + reg * sp.eye(self.n)
            if Q is not None:
                N = N + lam * Q
            N = sp.csc_matrix(N + self.Gt @ sp.diags(w_inv) @ self.Gcsc)
            return N[self.order][:, self.order].tocsc()
        data = self.E @ w_inv
        data[self.pos_P] += P.data
        if Q is not None:
            data[self.pos_Q] += lam * Q.data
        data[self.pos_diag] += reg
        return sp.csc_matrix(
            (data, self.N_indices, self.N_indptr), shape=(self.n, self.n)
        )


def _symmetric(M):
    """``(M + M')/2`` as CSC with summed duplicates and sorted indices."""
    M = sp.csc_matrix(M)
    M = 0.5 * (M + M.T)
    M.sum_duplicates()
    M.sort_indices()
    return M


def _max_step(v, dv):
    """Largest step in (0, 1] keeping ``v + step * dv`` nonnegative."""
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def solve_qp_ipm(
    P,
    q,
    A,
    l,
    u,
    tol: float = 1e-7,
    warm: dict = None,
    workspace: dict = None,
    reg: float = 1e-9,
    quad: tuple = None,
) -> SolveResult:
    """Interior-point solve of ``min (1/2)x'Px + q'x s.t. l <= Ax <= u``,
    optionally with one convex quadratic row ``(1/2)x'Qx + g'x <= b``.

    ``P``, ``q``, ``A``, ``l`` and ``u`` are as in
    :func:`repro.solver.qp.solve_qp`.

    Parameters
    ----------
    tol:
        Convergence tolerance on the scaled primal and dual residuals
        and on the complementarity ``mu``.
    warm:
        Optional previous solution state: ``{"x": ..., "z": ...}`` (the
        inequality duals ``z`` come from a previous result's
        ``info["z"]``), plus ``"lam"`` for the quadratic row.  The
        primal is shifted to the interior (slacks and duals floored
        away from the boundary), so a neighbor problem's solution is a
        safe, strictly feasible seed.
    workspace:
        Optional mutable dict; the :class:`IPMWorkspace` built for this
        problem's sparsity is stored under ``"ws"`` and reused by later
        calls whose pattern matches (retargeted formulations).
    reg:
        Diagonal regularization added to the normal matrix.  The
        default keeps it positive definite when ``P`` has a null space;
        the fallback chain retries ill-conditioned solves with a much
        larger value (see :func:`repro.solver.robust.solve_qp_robust`).
    quad:
        Optional quadratic row ``(Q, g, b)``: ``Q`` PSD (n, n), ``g``
        (n,), ``b`` finite.  Its slack ``t`` and multiplier ``lam`` are
        one more pair of the loop, counted in ``mu`` over ``m + 1``
        pairs; the Hessian gains ``lam * Q`` on the workspace's pattern.
        Without ``quad`` the loop does exactly the QP's floating-point
        work.

    Returns
    -------
    SolveResult
        ``info`` carries ``z`` (inequality duals) for warm-start
        chaining and ``mu`` (final complementarity); with ``quad`` also
        the row's multiplier ``lam``, reported as 0.0 when the last
        step identifies the row as inactive (its multiplier shrinking
        faster than its slack).  Degenerate inputs (``l > u``, no
        finite constraints) and numeric failures come back as
        diagnostic statuses (``infeasible`` / ``diverged`` /
        ``ill_conditioned``), never exceptions.
    """
    t_start = time.perf_counter()
    P = _symmetric(P)
    q = np.asarray(q, dtype=float).ravel()
    A = sp.csc_matrix(A)
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    n = q.size
    row = quad is not None
    short_circuit = prevalidate(P, q, A, l, u, t_start)
    if row and short_circuit is not None and not short_circuit.failed:
        short_circuit = diagnostic_result(
            STATUS_ILL_CONDITIONED, n, "the unconstrained shortcut would "
            "ignore the quadratic row: give a finite linear constraint")
    if short_circuit is not None:
        _emit_solve(short_circuit)
        return short_circuit
    Q = None
    if row:
        Q, g, b = quad
        Q = _symmetric(Q)
        g = np.asarray(g, dtype=float).ravel()
        b = float(b)

    ws = None
    if workspace is not None:
        cand = workspace.get("ws")
        if isinstance(cand, IPMWorkspace) and cand.matches(P, A, l, u, Q):
            ws = cand
    if ws is None:
        ws = IPMWorkspace(P, A, l, u, Q)
        if workspace is not None:
            workspace["ws"] = ws
    G, Gt = ws.G, ws.Gt
    h = ws.gather_h(l, u)
    m = h.size

    scale_obj = max(1.0, float(np.linalg.norm(q, np.inf)))
    scale_h = max(1.0, float(np.linalg.norm(h, np.inf)))
    if row:
        scale_h = max(scale_h, abs(b))

    def slack(x):
        """``h - Gx``, and the quadratic row's ``b - (1/2)x'Qx - g'x``."""
        if not row:
            return h - G @ x
        return np.append(h - G @ x, b - float(0.5 * x @ (Q @ x) + g @ x))

    # per-iteration convergence trace: always captured into a bounded
    # ring buffer (attached to info["trace"]; entries are
    # (iter, mu, r_prim, r_dual), plus (lam, t) with a quadratic row),
    # emitted only when telemetry is on
    trace = deque(maxlen=obs.TRACE_MAXLEN)

    # s and z hold the m linear pairs, then the row's slack t and
    # multiplier lam: every step-length and centering formula below
    # treats the row as one more pair
    warm_started = False
    x = np.zeros(n)
    s = np.maximum(slack(x), 1.0)
    z = np.ones(s.size)
    if warm is not None:
        wx = warm.get("x")
        wx = None if wx is None else np.asarray(wx, dtype=float).ravel()
        if wx is not None and wx.shape == (n,) and np.all(np.isfinite(wx)):
            # shift the seed strictly inside the boundary: a too-small
            # slack/dual makes the first scaling matrix explode
            floor = 1e-4 * max(1.0, scale_h * 1e-3)
            x = wx.copy()
            s = np.maximum(slack(x), floor)
            wz = warm.get("z")
            wz = None if wz is None else np.asarray(wz, dtype=float).ravel()
            if wz is not None and wz.shape == (m,) and np.all(
                np.isfinite(wz)
            ):
                z[:m] = np.maximum(wz, floor)
            wl = warm.get("lam")
            if row and wl is not None and np.isfinite(wl):
                z[m] = max(float(wl), floor)
            warm_started = True

    def residuals():
        """``(r_dual, r_prim, dual scale)``, plus the row's gradient
        ``a = Qx + g``; the dual test also scales by ``|G'z|`` and
        ``|lam a|`` with a row."""
        Gtz = Gt @ z[:m]
        r_dual = P @ x + q + Gtz
        r_prim = G @ x + s[:m] - h
        if not row:
            return r_dual, r_prim, scale_obj, None
        Qx = Q @ x
        a = Qx + g
        lam_a = z[m] * a
        r_row = float(0.5 * x @ Qx + g @ x) + s[m] - b
        scale_dual = max(
            scale_obj,
            float(np.linalg.norm(Gtz, np.inf)),
            float(np.linalg.norm(lam_a, np.inf)),
        )
        return r_dual + lam_a, np.append(r_prim, r_row), scale_dual, a

    status = STATUS_MAX_ITER
    iters_done = MAX_ITER
    s_prev = z_prev = None
    for it in range(1, MAX_ITER + 1):
        r_dual, r_prim, scale_dual, a = residuals()
        mu = float(s @ z) / s.size
        rp_norm = float(np.linalg.norm(r_prim, np.inf))
        rd_norm = float(np.linalg.norm(r_dual, np.inf))
        trace.append((it, mu, rp_norm, rd_norm) + (
            (z[m], s[m]) if row else ()
        ))

        if rp_norm <= tol * scale_h and rd_norm <= tol * scale_dual and (
            mu <= tol
        ):
            status = STATUS_SOLVED
            iters_done = it - 1
            break

        # Normal equations: eliminate dz = W^{-1} (G dx - r2), giving
        # (P + G' W^{-1} G) dx = r1 + G' W^{-1} r2 with W = diag(s/z).
        w_inv = z / s
        normal = ws.normal(P, w_inv[:m], reg, Q, z[m] if row else 0.0)
        try:
            lu = spla.splu(normal, permc_spec="NATURAL", **SYMMETRIC_SPLU)
        except RuntimeError:
            # singular normal system: stop on the best iterate so far
            # and let the fallback chain retry with stronger
            # regularization or the ADMM backend
            status = STATUS_ILL_CONDITIONED
            iters_done = it
            break

        def back(r):
            return lu.solve(r[ws.order])[ws.perm]

        if row:
            # The row's pair eliminates as dlam = (lam/t)(a'dx - r2_row)
            # with a = Qx + g, adding (lam/t) a a' to N.  Sherman-Morrison
            # on N's one factor, as block elimination of the bordered
            #   [N  a; a' -t/lam] [dx; dlam] = [r; r2_row],
            # gives dlam = (a'N^-1 r - r2_row) / (a'N^-1 a + t/lam): one
            # extra back-solve for y = N^-1 a per iteration.
            y = back(a)
            border = float(a @ y) + s[m] / z[m]

            def bordered(r, r_row):
                v = back(r)
                dlam = (float(a @ v) - r_row) / border
                return v - dlam * y, dlam

        def _solve_step(r1, r2):
            rhs = r1 + Gt @ (w_inv[:m] * r2[:m])
            if not row:
                dx = back(rhs)
                return dx, w_inv * (G @ dx - r2)
            dx, dlam = bordered(rhs, r2[m])
            # one step of iterative refinement: without it the dual
            # residual blows up once t is tiny
            ex, elam = bordered(
                rhs - (normal @ dx[ws.order])[ws.perm] - dlam * a,
                r2[m] - float(a @ dx) + s[m] / z[m] * dlam,
            )
            dx = dx + ex
            return dx, np.append(w_inv[:m] * (G @ dx - r2[:m]), dlam + elam)

        # --- affine (predictor) step
        dx_a, dz_a = _solve_step(-r_dual, -r_prim + s)
        ds_a = -s - (s / z) * dz_a

        alpha_a = min(_max_step(s, ds_a), _max_step(z, dz_a))
        mu_aff = float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / s.size
        sigma = (mu_aff / max(mu, 1e-300)) ** 3

        # --- corrector step
        rc = -s * z - ds_a * dz_a + sigma * mu
        r2 = -r_prim - rc / z
        if row:
            # second-order correction: a step along dx moves the row by
            # a'dx + (1/2)dx'Q dx, and the linearization drops the
            # curvature; take it along the affine direction instead
            r2[m] -= 0.5 * float(dx_a @ (Q @ dx_a))
        dx, dz = _solve_step(-r_dual, r2)
        ds = (rc - s * dz) / z

        eta = 0.99 if mu > 1e-6 else 0.999
        alpha = eta * min(_max_step(s, ds), _max_step(z, dz))
        x_prev, s_prev, z_prev = x, s, z
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz

        if not (
            np.all(np.isfinite(x))
            and np.all(np.isfinite(s))
            and np.all(np.isfinite(z))
        ):
            # numeric blow-up: restore the last finite iterate and stamp
            # the result so callers cannot mistake it for a solution
            x, s, z = x_prev, s_prev, z_prev
            status = STATUS_DIVERGED
            iters_done = it
            break
        if float(np.abs(z).max()) > 1e14:
            # an infeasible problem drives the duals to infinity while
            # the primal residual stalls
            status = STATUS_INFEASIBLE
            iters_done = it
            break

    r_dual, r_prim, scale_dual, _ = residuals()
    mu = float(s @ z) / s.size
    if (
        status != STATUS_SOLVED
        and np.linalg.norm(r_prim, np.inf) <= 10 * tol * scale_h
        and np.linalg.norm(r_dual, np.inf) <= 10 * tol * scale_dual
        and mu <= 10 * tol
    ):
        status = STATUS_SOLVED

    obj = float(0.5 * x @ (P @ x) + q @ x)
    info = {"mu": mu, "z": z[:m]}
    if row:
        # strict complementarity: along the central path the vanishing
        # member of the (t, lam) pair shrinks with mu, the other settles
        if s_prev is not None:
            inactive = z[m] / z_prev[m] < s[m] / s_prev[m]
        else:
            inactive = z[m] < s[m]
        info["lam"] = 0.0 if inactive else float(z[m])
    if status in (STATUS_DIVERGED, STATUS_ILL_CONDITIONED):
        info["note"] = (
            "non-finite iterate: last finite iterate returned"
            if status == STATUS_DIVERGED
            else "singular normal system: best iterate returned"
        )
        info["failed_at_iter"] = iters_done
    info["trace"] = list(trace)
    result = SolveResult(
        status=status,
        x=x,
        obj=obj,
        iterations=iters_done,
        r_prim=float(np.linalg.norm(r_prim, np.inf)),
        r_dual=float(np.linalg.norm(r_dual, np.inf)),
        solve_time=time.perf_counter() - t_start,
        info=info,
        warm_started=warm_started,
    )
    _emit_solve(result)
    return result


def _emit_solve(result: SolveResult):
    if not telemetry.enabled():
        return
    telemetry.emit(
        "solve",
        backend="ipm",
        status=result.status,
        iterations=result.iterations,
        r_prim=result.r_prim,
        r_dual=result.r_dual,
        seconds=result.solve_time,
        warm_started=result.warm_started,
        trace=result.info.get("trace"),
        note=result.info.get("note"),
    )
