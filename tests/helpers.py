"""Independent dense reference constructions for cross-checking the engine.

Everything here is built with plain dense numpy from first principles:
its own flat indexing, its own ladder matrices, its own master-equation
right-hand side.  Nothing is imported from the production operator or
generator code, so agreement is meaningful.
"""

import numpy as np


def flat_index(n, m, m_max):
    return n * (m_max + 1) + m


def dense_ladders(n_max, m_max):
    """Dense annihilation matrices (a, b) on the truncated product basis."""
    dim = (n_max + 1) * (m_max + 1)
    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros((dim, dim), dtype=complex)
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            col = flat_index(n, m, m_max)
            if n >= 1:
                a[flat_index(n - 1, m, m_max), col] = np.sqrt(n)
            if m >= 1:
                b[flat_index(n, m - 1, m_max), col] = np.sqrt(m)
    return a, b


def dense_dpo_operators(params, n_max, m_max):
    """(K, [R_1..R_8]) of the oscillator model, dense and hand-assembled.

    The action of K on a basis coefficient u_{n,m} is written out
    directly: the two g couplings move (n, m) -> (n -/+ 2, m +/- 1), the
    diagonal carries the oscillation and decay rates.  Components pushed
    past the cutoff are dropped, like the ladder matrices do.
    """
    a, b = dense_ladders(n_max, m_max)
    ad, bd = a.conj().T, b.conj().T
    al, be = params.alpha, params.beta
    R = [be[0] * b, al[0] * a, al[1] * a, be[1] * b,
         be[2] * b, al[2] * a, be[3] * bd, al[3] * ad]
    dim = (n_max + 1) * (m_max + 1)
    K = np.zeros((dim, dim), dtype=complex)
    g, wc = params.g, params.omega_c
    kap, nb, kap_p, nb_p = params.kappa, params.nbar, params.kappa_p, params.nbar_p
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            row = flat_index(n, m, m_max)
            if n >= 2 and m + 1 <= m_max:
                K[row, flat_index(n - 2, m + 1, m_max)] += \
                    0.5 * g * np.sqrt(n * (n - 1) * (m + 1))
            if m >= 1 and n + 2 <= n_max:
                K[row, flat_index(n + 2, m - 1, m_max)] -= \
                    0.5 * g * np.sqrt(m * (n + 1) * (n + 2))
            K[row, row] -= (kap * nb + kap_p * nb_p
                            + 1j * wc * n + kap * (2 * nb + 1) * n
                            + 2j * wc * m + kap_p * (2 * nb_p + 1) * m)
    return K, R


def master_equation_rhs(params, n_max, m_max, t, rho):
    """Right-hand side of the driven master equation, assembled directly:

        K rho + rho K^dag + sum_i R_i rho R_i^dag
        - i [ lam e^{-2 i omega_c t} b^dag + conj(lam) e^{2 i omega_c t} b, rho ]
    """
    K, R = dense_dpo_operators(params, n_max, m_max)
    a, b = dense_ladders(n_max, m_max)
    bd = b.conj().T
    lam = params.lambda_drive
    out = K @ rho + rho @ K.conj().T
    for Ri in R:
        out += Ri @ rho @ Ri.conj().T
    if lam != 0:
        drive = (lam * np.exp(-2j * params.omega_c * t) * bd
                 + np.conj(lam) * np.exp(2j * params.omega_c * t) * b)
        out += -1j * (drive @ rho - rho @ drive)
    return out


def dense_operand(op):
    """Dense matrix of a sparse operator given as CSR arrays
    (rows, cols, indptr, indices, data)."""
    rows, cols, indptr, indices, data = op
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for k in range(indptr[i], indptr[i + 1]):
            out[i, indices[k]] += data[k]
    return out


def per_product_act(X, left, right, sandwiches):
    """(K_L,k + s_k) X_k + X_k K_R,k + sum_g w_kg P_g X_k P_g^dag on each
    member X_k of an (n, dim, dim) stack, one sparse product at a time:
    `left[k]` is member k's K_L + s I as a scipy CSR matrix, `right[k]`
    its [K_R^T | w_1 conj P_1 | ... | w_G conj P_G], one row per row of
    the result, and `sandwiches` the P_g.  The right-hand matrix acts on
    X_k^T and every (P_g X_k)^T, stacked, which gives the transpose of
    X_k K_R + sum_g w_kg P_g X_k P_g^dag; the two products are added
    last.  This is the generator arithmetic whose bits every report is
    built on."""
    out = np.empty_like(X)
    for k, (X_k, L, R) in enumerate(zip(X, left, right, strict=True)):
        operand = np.vstack([X_k.T] + [(P @ X_k).T for P in sandwiches])
        out[k] = L @ X_k + (R @ operand).T
    return out


def random_hermitian(dim, rng):
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (X + X.conj().T)


def random_density(dim, rng):
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = X @ X.conj().T
    return rho / np.trace(rho)


def random_dpo_params(rng, omega_c=None, g=None, with_drive=True):
    """Random admissible oscillator parameters with O(1) magnitudes."""
    from contmeas import DpoParams

    def split3(total):
        w = rng.uniform(0.2, 1.0, 3)
        w = w / w.sum()
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        return tuple(np.sqrt(total * wi) * ph for wi, ph in zip(w, phases))

    kappa = rng.uniform(0.2, 1.5)
    kappa_p = rng.uniform(0.2, 1.5)
    nbar = rng.uniform(0.0, 0.4)
    nbar_p = rng.uniform(0.0, 0.4)
    alpha = split3(2 * kappa * (nbar + 1)) + (
        np.sqrt(2 * kappa * nbar) * np.exp(1j * rng.uniform(0, 2 * np.pi)),)
    beta = split3(2 * kappa_p * (nbar_p + 1)) + (
        np.sqrt(2 * kappa_p * nbar_p) * np.exp(1j * rng.uniform(0, 2 * np.pi)),)
    return DpoParams(
        omega_c=rng.uniform(0.5, 2.0) if omega_c is None else omega_c,
        g=rng.uniform(0.1, 0.8) if g is None else g,
        kappa=kappa, nbar=nbar, kappa_p=kappa_p, nbar_p=nbar_p,
        alpha=alpha, beta=beta,
        theta3=rng.uniform(0, 2 * np.pi),
        lambda_drive=(rng.uniform(0.02, 0.15)
                      * np.exp(1j * rng.uniform(0, 2 * np.pi))
                      if with_drive else 0j))


def difference(k1, k2):
    """The test function k1 - k2, piecewise constant on the union of their
    breakpoints."""
    from contmeas import TestFunction
    breaks = np.union1d(k1.breaks, k2.breaks)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    return TestFunction(breaks, k1.value(mids) - k2.value(mids))


def workload_config(name, seed):
    """The config of the benchmark workload `name` at `seed`, from
    perfbench/workloads.py, which imports nothing of the program."""
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_config(name, seed)
