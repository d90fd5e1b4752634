"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the library and prints a
single PASS/FAIL line so the suite doubles as a human-readable report:

    pytest tests/test_acceptance.py -s
"""

import json
import math
import time

import numpy as np

from atomdyn.atoms import inner, make_vector, norm, unit_atom
from atomdyn.algebra import AlgebraElement, indicator, weyl_residual
from atomdyn.trig import auto_config, cesaro_inner_numeric
from atomdyn.rand import (
    Cauchy,
    ConvolutionFamily,
    Gaussian,
    Rademacher,
    SeededRng,
    chernoff_error,
)
from atomdyn.channels import (
    NormalState,
    PureState,
    averaged_Phi,
    averaged_T,
    dephasing_kernel,
    evaluate,
    normality_witness,
    projector_value,
    semigroup_Phi,
    semigroup_T,
    yosida_hewitt_split,
)
from atomdyn.cli import main as cli_main


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_unit_vector(gen, max_atoms=5):
    k = int(gen.integers(1, max_atoms + 1))
    v = make_vector(
        list(zip(gen.uniform(-8, 8, k), gen.normal(size=k) + 1j * gen.normal(size=k)))
    )
    return (1.0 / norm(v)) * v


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_01_weyl_relation():
    gen = SeededRng(101).stream(0)
    triples = [
        (float(gen.uniform(-5, 5)), float(gen.uniform(-5, 5)), random_unit_vector(gen))
        for _ in range(1000)
    ]
    start = time.perf_counter()
    worst = max(weyl_residual(h, a, u) for h, a, u in triples)
    elapsed = time.perf_counter() - start
    report(
        "weyl relation: 1000 seeded residuals <= 1e-12 in < 1 s",
        worst <= 1e-12 and elapsed < 1.0,
        f"max residual {worst:.2e}, {elapsed:.2f} s",
    )


def test_02_fourier_isometry():
    gen = SeededRng(102).stream(0)
    exact = True
    for _ in range(1000):
        u = random_unit_vector(gen)
        v = random_unit_vector(gen)
        if sum((a.c.conjugate() * v.amplitude(a.p) for a in u), 0j) != inner(u, v):
            exact = False
            break
    report("fourier isometry: exact equality on 1000 seeded pairs", exact)


def test_03_cesaro_quadrature():
    u, v = unit_atom(0.0), unit_atom(1.0)
    errors = {}
    for X in (1e2, 1e3, 1e4):
        num = cesaro_inner_numeric(u, v, auto_config(X, u, v))
        errors[X] = abs(num - inner(u, v))
    xs = np.log10(1.0 / np.array(sorted(errors)))
    ys = np.log10([errors[X] for X in sorted(errors)])
    order = float(np.polyfit(xs, ys, 1)[0])
    ok = errors[1e4] <= 2e-4 and order >= 0.9
    report(
        "cesaro quadrature: error <= 2e-4 at X=1e4, order >= 0.9 in 1/X",
        ok,
        f"err(1e4)={errors[1e4]:.2e}, order {order:.2f}",
    )


def test_04_chernoff_convergence():
    start = time.perf_counter()
    probes = [0.5, 1.0, 2.0, 3.0]
    rad = Rademacher()
    errs = {n: chernoff_error(rad, 1.0, n, probes) for n in (100, 200, 400, 1000, 2000)}
    rates = [math.log2(errs[n] / errs[2 * n]) for n in (100, 200, 1000)]
    gauss = Gaussian(1.3)
    gauss_worst = max(
        chernoff_error(gauss, 1.0, n, probes) for n in (1, 10, 100, 1000)
    )
    elapsed = time.perf_counter() - start
    ok = (
        errs[1000] <= 5e-4
        and all(0.8 <= r <= 1.2 for r in rates)
        and gauss_worst <= 1e-14
        and elapsed < 5.0
    )
    report(
        "chernoff: Rademacher sup error <= 5e-4 at n=1000, rate in [0.8,1.2], "
        "Gaussian fixed point <= 1e-14, < 5 s",
        ok,
        f"err(1000)={errs[1000]:.2e}, rates {[f'{r:.2f}' for r in rates]}, "
        f"gauss {gauss_worst:.1e}, {elapsed:.2f} s",
    )


def test_05_averaged_channel_evaluation():
    avg = averaged_T(Gaussian(1.0), PureState(unit_atom(0.0)))
    M = AlgebraElement.mult(indicator(0.0, 1.0))
    oracle = normal_cdf(1.0) - normal_cdf(0.0)
    analytic = evaluate(avg, M, method="analytic")
    est = evaluate(
        avg, M, method="mc", mc_samples=100_000, gen=SeededRng(105).stream(0)
    )
    ok = abs(analytic - oracle) <= 1e-9 and abs(est.value - analytic) <= 4 * est.stderr
    report(
        "averaged channel: analytic = CDF oracle (1e-9), MC within 4 stderr at N=1e5",
        ok,
        f"analytic {analytic:.7f} vs oracle {oracle:.7f}, "
        f"mc dev {abs(est.value - analytic):.1e} vs band {4 * est.stderr:.1e}",
    )


def test_06_shift_evaluation_invariance():
    gen = SeededRng(106).stream(0)
    laws = [Gaussian(1.0), Cauchy(0.7), Rademacher()]
    exact = True
    for i in range(100):
        rho = PureState(random_unit_vector(gen))
        a = float(gen.uniform(-5, 5))
        d = laws[i % len(laws)]
        A = AlgebraElement.shift(a)
        if evaluate(averaged_T(d, rho), A) != evaluate(rho, A):
            exact = False
            break
    report("shift invariance: exact equality for 100 seeded (d, rho, a)", exact)


def test_07_singularity():
    gen = SeededRng(107).stream(0)
    worst = 0.0
    for i in range(100):
        rho = PureState(random_unit_vector(gen))
        v = random_unit_vector(gen)
        d = Gaussian(1.0) if i % 2 == 0 else Cauchy(0.5)
        avg = averaged_T(d, rho)
        worst = max(worst, abs(projector_value(avg, v)))
        worst = max(
            worst,
            abs(
                projector_value(
                    avg, v, method="mc", mc_samples=10_000, gen=SeededRng(207).stream(i)
                )
            ),
        )
    normal = PureState(unit_atom(0.0))
    avg = averaged_T(Gaussian(1.0), PureState(unit_atom(1.0)))
    split = yosida_hewitt_split([(0.3, normal), (0.7, avg)])
    witness = normality_witness(split, [[0.0, 1.0, 2.0]])
    ok = worst == 0.0 and abs(witness - 0.3) <= 1e-12
    report(
        "singularity: projector value 0 exactly (analytic + MC), "
        "0.3/0.7 split witness = 0.3 (1e-12)",
        ok,
        f"max |projector| {worst}, witness {witness}",
    )


def test_08_dephasing_channel():
    gen = np.random.default_rng(108)
    d = Gaussian(0.8)
    worst_herm = worst_tr = worst_eig = worst_factor = 0.0
    last = None
    for _ in range(500):
        m = int(gen.integers(2, 7))
        a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
        mat = a @ a.conj().T
        mat /= np.trace(mat).real
        rho = NormalState(tuple(np.sort(gen.uniform(-5, 5, m))), mat)
        out = averaged_Phi(d, rho).matrix
        worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
        worst_tr = max(worst_tr, abs(np.trace(out).real - 1.0))
        worst_eig = max(worst_eig, max(0.0, -float(np.linalg.eigvalsh(out).min())))
        K = dephasing_kernel(d, rho.support)
        worst_factor = max(worst_factor, float(np.max(np.abs(out - K * mat))))
        last = rho
    # MC oracle: average the random modulation conjugation over 1e5 draws
    n = 100_000
    xs = d.sample(SeededRng(208).stream(0), n)
    p = np.array(last.support)
    delta = p[:, None] - p[None, :]
    phases = np.exp(1j * xs[:, None, None] * delta[None, :, :])
    mc_kernel = phases.mean(axis=0)
    stderr = phases.std(axis=0) / math.sqrt(n)
    mc_ok = bool(
        np.all(
            np.abs(mc_kernel - dephasing_kernel(d, last.support))
            <= 4.0 * stderr + 1e-12
        )
    )
    ok = (
        worst_herm <= 1e-12
        and worst_tr <= 1e-12
        and worst_eig <= 1e-10
        and worst_factor <= 1e-12
        and mc_ok
    )
    report(
        "dephasing: 500 seeded matrices Hermitian/trace/PSD, factors match chi "
        "(1e-12), MC kernel within 4 stderr at N=1e5",
        ok,
        f"herm {worst_herm:.1e}, tr {worst_tr:.1e}, eig {worst_eig:.1e}, "
        f"factor {worst_factor:.1e}, mc {'ok' if mc_ok else 'FAIL'}",
    )


def test_09_semigroup_laws():
    grid = [0.0, 0.1, 0.5, 1.0, 2.0]
    rho = PureState(make_vector([(0.0, 2 ** -0.5), (1.0, 2 ** -0.5)]))
    probes = [
        AlgebraElement.shift(1.0),
        AlgebraElement.mult(indicator(0.0, 1.0)),
    ]
    gen = np.random.default_rng(109)
    a = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    dm = NormalState((0.0, 0.7, 1.4, 3.0), mat)
    worst_T = worst_Phi = 0.0
    for kind in ("gaussian", "cauchy"):
        fam = ConvolutionFamily(kind)
        for t in grid:
            for s in grid:
                two = semigroup_T(fam, t, semigroup_T(fam, s, rho))
                one = semigroup_T(fam, t + s, rho)
                for A in probes:
                    worst_T = max(worst_T, abs(evaluate(two, A) - evaluate(one, A)))
                m2 = semigroup_Phi(fam, t, semigroup_Phi(fam, s, dm)).matrix
                m1 = semigroup_Phi(fam, t + s, dm).matrix
                worst_Phi = max(worst_Phi, float(np.max(np.abs(m2 - m1))))
    ok = worst_T <= 1e-10 and worst_Phi <= 1e-12
    report(
        "semigroups: T residual <= 1e-10, Phi entrywise <= 1e-12 on "
        "t,s in {0,0.1,0.5,1,2} for both families",
        ok,
        f"T {worst_T:.1e}, Phi {worst_Phi:.1e}",
    )


def test_10_reproducible_reports(tmp_path):
    blobs = {}
    for fmt in ("csv", "json"):
        for i, workers in enumerate((1, 4)):
            cfg = tmp_path / f"cfg-{fmt}-{i}.json"
            cfg.write_text(json.dumps({"n_list": [10, 100], "workers": workers}))
            out = tmp_path / f"report-{fmt}-{i}.{fmt}"
            rc = cli_main(
                ["chernoff", "--seed", "17", "--config", str(cfg),
                 "--out", str(out), "--format", fmt]
            )
            assert rc == 0
            blobs[(fmt, i)] = out.read_bytes()
    ok = (
        blobs[("csv", 0)] == blobs[("csv", 1)]
        and blobs[("json", 0)] == blobs[("json", 1)]
    )
    report("reproducibility: byte-identical reports, 1 vs 4 worker threads", ok)
