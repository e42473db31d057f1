"""Seeded inputs, timed item bodies and output checks for the four workloads.

Every workload is a fixed item set made from the seed alone.  An item's
``run`` is the timed call into the package; its ``check`` runs afterwards,
untimed, and returns None or a message saying what was wrong.  ``refusals``
lists the typed errors that a known defect raises on the item's slice: such an
item counts in ``failed_frac`` but is not a wrong output.

Why each workload exists (see README.md for the full tables):

* gaussian-batch: the only workload on symplectic / standard_form / criteria /
  witness; ``minmax_optimize`` is most of each item.  Fock and nongauss idle.
* fock-oracle: the Fock operator build and seesaw, which dominate the tier-1
  wall time; two register shapes stress the build differently (dense matmul at
  two modes and high cutoff, the Python sector loop at four modes).
* nongauss-moments: the normalization derivative and ``mean_on_detector``,
  whose cost grows steeply with the ladder order.
* cli-cold: one ``python -m cvwitness.cli`` process per item, so import and
  first-call set-up are paid every time.
"""

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cvwitness import criteria, fock, nongauss, standard_form, symplectic, witness
from cvwitness.exceptions import (CutoffTooSmallError, DimensionMismatchError,
                                  NonPositiveDeterminantError,
                                  PatternMismatchError)

#: criterion values with |lhs| below this are not checked for sign.
BAND = 1e-6
CERT_TOL = 1e-10
ORACLE_TOL = 1e-3
MOMENT_TOL = 1e-6
MOMENT_CUTOFF = 20
#: local squeeze r above which the known tolerance defect was measured.
SQUEEZE_DEFECT_ABOVE = 3.0
#: first TMSV rung i (r = 0.1 i) where the known defect was measured.
TMSV_DEFECT_FROM = 76
#: the CLI's message on the TMSV rungs where the witness hits the defect.
TMSV_CLI_DEFECT = "det(gamma + gamma_M) is non-positive"

#: Fock register shapes: key -> (modes, cutoff).
SHAPES = {"m2c25": (2, 25), "m2c40": (2, 40), "m4c6": (4, 6)}
ORDERS = tuple(f"o{k}" for k in range(1, 9))
CLI_COMMANDS = ("check", "sweep", "oracle")

_EXIT = {criteria.Verdict.SEPARABLE: 0, criteria.Verdict.ENTANGLED: 2,
         criteria.Verdict.BOUNDARY: 3}


class CliRefusal(Exception):
    """The CLI exited 1 with a typed 'error:' line on a known-defect item."""


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    key: str | None = None          # shape or order key of per-layer metrics
    layer: str = "item"             # name of the item's root span
    refusals: tuple = ()


@dataclass
class Workload:
    items: list
    warm: list                      # items run once, untimed, during set-up
    post: Callable[[], list] = lambda: []   # untimed checks after the loop


# ---------------------------------------------------------------- samplers

def _two_mode_form(rng, lo=0.5, hi=2.0, cmax=1.0):
    while True:
        a, b = rng.uniform(lo, hi, 2)
        c1, c2 = rng.uniform(-cmax, cmax, 2)
        f = standard_form.TwoModeStandardForm(a, b, c1, c2)
        if f.to_cm().is_physical():
            return f


def _low_occupancy_kernel(rng):
    """Two-mode kernel close enough to vacuum for a cutoff-20 Fock oracle."""
    while True:
        a, b = rng.uniform(0.55, 0.9, 2)
        cmax = min(np.sqrt(a * b) - 0.5, 0.4)
        c1, c2 = rng.uniform(-cmax, cmax, 2)
        f = standard_form.TwoModeStandardForm(a, b, c1, c2)
        if f.to_cm().is_physical():
            return f.to_cm()


def _ww_form(rng, lo, hi, emax):
    while True:
        a, b, c, d = rng.uniform(lo, hi, 4)
        e, f = rng.uniform(-emax, emax, 2)
        form = standard_form.WernerWolfForm(a, b, c, d, e, f)
        if form.to_cm().is_physical():
            return form


def _ww_family_point(rng):
    while True:
        a, b, c, d, e = rng.uniform(0.2, 3.0, 5)
        if a * d - b * c > 1e-3 and c * e - a > 1e-3:
            return criteria.werner_wolf_family(criteria.WWFamilyParams(a, b, c, d, e))


def _detector(rng, family):
    lo, hi, cmax = (0.6, 1.8, 0.6) if family is standard_form.Family.TWO_MODE else (0.7, 1.5, 0.5)
    while True:
        m = rng.uniform(lo, hi, 4)
        c = rng.uniform(-cmax, cmax, 2)
        d = witness.DetectorSpec(family, *m, *c)
        if d.to_cm().is_physical():
            return d


def _rotation(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, s], [-s, c]])


def _dress_two_mode(rng, mat, r_a, r_b):
    """S mat S^T for a random local symplectic with squeezes r_a, r_b."""
    s = np.zeros((4, 4))
    for j, r in enumerate((r_a, r_b)):
        s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = (
            _rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([np.exp(r), np.exp(-r)])
            @ _rotation(rng.uniform(0, 2 * np.pi)))
    return s @ mat @ s.T


def _dress_per_mode(rng, mat, umax):
    """Per-mode squeezes diag(e^u, e^-u): keeps the Werner-Wolf pattern."""
    u = rng.uniform(-umax, umax, mat.shape[0] // 2)
    s = np.diag(np.ravel(np.column_stack([np.exp(u), np.exp(-u)])))
    return s @ mat @ s.T


def _stratified(rng, n, hi):
    """n draws from [0, hi), one per equal stratum, in random order, so the
    share of heavily squeezed states is the same for every seed."""
    return hi * (rng.permutation(n) + rng.uniform(size=n)) / n


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _ladder_patterns(order, n_modes, count):
    """`count` (add, subtract) splits of `order` at evenly spaced quantiles of
    their cost.  The moment expansion has up to prod (k_i + 1)^2 (m_i + 1)^2
    terms, from 81 to 6561 at order 8, so the splits are fixed rather than
    drawn from the seed: every seed gets the same cost profile."""
    def terms(c):
        return (np.prod(np.add(c, 1)) ** 2, c)
    comps = sorted(_compositions(order, 2 * n_modes), key=terms)
    picks = [comps[int((j + 0.5) * len(comps) / count)] for j in range(count)]
    return [(c[:n_modes], c[n_modes:]) for c in picks]


# ---------------------------------------------------------- gaussian-batch

def _decide_run(raw):
    def run():
        g = symplectic.CovMatrix(raw)
        return g, criteria.decide_separability(g), witness.minmax_optimize(g)
    return run


def _decide_check(lhs_ref, bound_entangled=False):
    def check(out):
        g, rep, wit = out
        if abs(lhs_ref) > BAND:
            want = criteria.Verdict.ENTANGLED if lhs_ref < 0 else criteria.Verdict.SEPARABLE
            if rep.verdict is not want:
                return f"verdict {rep.verdict.value}, criterion sign says {want.value}"
            if g.n_modes == 2 and (rep.verdict is criteria.Verdict.SEPARABLE) != \
                    criteria.ppt_decide(g).is_ppt:
                return "two-mode verdict differs from ppt_decide"
            if np.sign(wit.ell_limit - 1) != np.sign(lhs_ref):
                return f"ell_limit {wit.ell_limit!r} has the wrong side of 1"
        if bound_entangled and not rep.bound_entangled:
            return "Werner-Wolf family point not reported as bound entangled"
        if rep.certificate is not None:
            form, _ = standard_form.reduce_to_standard_form(g, standard_form.detect_family(g))
            slack = criteria.certificate_min_eig(form, *rep.certificate)
            if slack < -CERT_TOL:
                return f"certificate_min_eig {slack!r} < -{CERT_TOL}"
        return None
    return check


def gaussian_batch(seed, smoke):
    rng = np.random.default_rng((1, seed))
    n_dressed, n_family, n_pattern = (4, 2, 2) if smoke else (60, 15, 25)
    ladder = (0, 5, 80) if smoke else range(100)
    items = []
    # Two-mode standard forms under random local symplectics.  Squeezes run up
    # to r = 5; above r = 3 the absolute tolerances reject many valid states (a
    # known defect, counted in failed_frac rather than resampled away).  An
    # error at squeezes up to r = 3 is a wrong output.
    r_a, r_b = _stratified(rng, n_dressed, 5.0), _stratified(rng, n_dressed, 5.0)
    for k in range(n_dressed):
        f = _two_mode_form(rng)
        raw = _dress_two_mode(rng, f.to_cm().mat, r_a[k], r_b[k])
        items.append(Item(f"dressed-{k}", _decide_run(raw),
                          _decide_check(criteria.simon_lhs(f)),
                          refusals=(PatternMismatchError, DimensionMismatchError)
                          if max(r_a[k], r_b[k]) > SQUEEZE_DEFECT_ABOVE else ()))
    # Werner-Wolf family points: bound entangled, no certificate.
    for k in range(n_family):
        form = _ww_family_point(rng)
        items.append(Item(f"wwfamily-{k}", _decide_run(form.to_cm().mat),
                          _decide_check(criteria.werner_wolf_lhs(form), bound_entangled=True)))
    # Random Werner-Wolf-pattern forms: about 90 % separable, so most take the
    # certificate path (roots, or the grid fallback that sets the tail).
    for k in range(n_pattern):
        form = _ww_form(rng, 0.5, 1.5, 0.5)
        raw = _dress_per_mode(rng, form.to_cm().mat, 0.5)
        items.append(Item(f"wwpattern-{k}", _decide_run(raw),
                          _decide_check(criteria.werner_wolf_lhs(form))))
    # The `sweep --family tmsv -n 100` ladder r = 0.1 i; from r = 7.6 the
    # reduction and the witness raise on some rungs (known defect).  An error
    # on a lower rung is a wrong output.
    for i in ladder:
        r = 0.1 * i
        a, c = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
        raw = standard_form.TwoModeStandardForm(a, a, c, c).to_cm().mat
        items.append(Item(f"tmsv-{i}", _decide_run(raw),
                          _decide_check((1 - np.cosh(4 * r)) / 8),
                          refusals=(PatternMismatchError, NonPositiveDeterminantError)
                          if i >= TMSV_DEFECT_FROM else ()))
    warm = [items[0], items[n_dressed], items[n_dressed + n_family], items[-1]]
    return Workload(items, warm)


# ------------------------------------------------------------- fock-oracle

def _oracle_run(d, cutoff):
    dims = (cutoff ** (d.n_modes // 2),) * 2

    def run():
        lam, _ = witness.lambda_closed_form(d)
        res = fock.seesaw_lambda(fock.gaussian_op_fock(d.to_cm(), cutoff), dims)
        return lam, res.value
    return run


def _oracle_check(out):
    lam, val = out
    if not abs(lam - val) <= ORACLE_TOL:
        return f"|Lambda_closed - Lambda_seesaw| = {abs(lam - val)!r} > {ORACLE_TOL}"
    return None


def fock_oracle(seed, smoke):
    # Acceptance criterion 3 at a fifth of its size: it builds 50 two-mode
    # registers at cutoff 25 (5 again at 50) and 20 four-mode ones at cutoff 6
    # (3 again at 7).  Here 10 m2c25, 1 at the higher cutoff 40 and 4 m4c6, so
    # the four-mode items keep their share of items and of time.
    rng = np.random.default_rng((2, seed))
    mix = {"m2c25": 2} if smoke else {"m2c25": 10, "m2c40": 1, "m4c6": 4}
    items = []
    for key, count in mix.items():
        n_modes, cutoff = SHAPES[key]
        family = standard_form.Family.TWO_MODE if n_modes == 2 else standard_form.Family.WERNER_WOLF
        for k in range(count):
            d = _detector(rng, family)
            items.append(Item(f"{key}-{k}", _oracle_run(d, cutoff), _oracle_check, key=key,
                              refusals=(CutoffTooSmallError,) if n_modes == 4 else ()))
    return Workload(items, warm=items[:1])


# -------------------------------------------------------- nongauss-moments

def _moment_run(kernel, add, sub, d):
    def run():
        s = nongauss.NonGaussState(kernel, add, sub)
        return nongauss.mean_on_detector(s, d)
    return run


def _moment_check(mean):
    if not (np.isfinite(mean) and mean > 0):
        return f"mean_on_detector returned {mean!r}"
    return None


def nongauss_moments(seed, smoke):
    # Two-mode states cover orders 1-8; four-mode states stay at order <= 4
    # (order 6 already costs about a second).  Order-8 items set the tail.
    rng = np.random.default_rng((3, seed))
    plan = ([(2, o, 1) for o in range(1, 5)] + [(4, o, 1) for o in (1, 2)]) if smoke else \
        ([(2, o, 10) for o in range(1, 9)] + [(4, o, 6) for o in range(1, 5)])
    items, oracle = [], {}
    for n_modes, order, count in plan:
        for k, (add, sub) in enumerate(_ladder_patterns(order, n_modes, count)):
            if n_modes == 2:
                kernel = _low_occupancy_kernel(rng)
                d = _detector(rng, standard_form.Family.TWO_MODE)
            else:
                kernel = _ww_form(rng, 0.55, 0.9, 0.2).to_cm()
                d = _detector(rng, standard_form.Family.WERNER_WOLF)
            items.append(Item(f"m{n_modes}o{order}-{k}", _moment_run(kernel, add, sub, d),
                              _moment_check, key=f"o{order}"))
            # Fock-checked like acceptance criterion 7: at most two ladder
            # operators per slot, since four on one mode need more than
            # cutoff 20 (a 3e-6 truncation error that falls with the cutoff).
            if n_modes == 2 and order <= 4 and max(add + sub) <= 2:
                oracle.setdefault(order, (items[-1].id, kernel, add, sub, d))
    oracle = list(oracle.values())[:1 if smoke else None]

    def post():
        """mean_on_detector against the explicit Fock trace, outside the loop."""
        wrong = []
        for item_id, kernel, add, sub, d in oracle:
            s = nongauss.NonGaussState(kernel, add, sub)
            mean = nongauss.mean_on_detector(s, d)
            ref = nongauss.fock_direct_trace(s, d, cutoff=MOMENT_CUTOFF)
            if not abs(mean - ref) < MOMENT_TOL:
                wrong.append((item_id, f"|mean - fock_direct_trace| = {abs(mean - ref)!r}"))
        return wrong
    return Workload(items, warm=[it for it in items if it.key in ("o1", "o2")][:4], post=post)


# ---------------------------------------------------------------- cli-cold

def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def cli_cold(seed, smoke, workdir: Path, env: dict):
    rng = np.random.default_rng((4, seed))
    workdir.mkdir(parents=True, exist_ok=True)
    files, states = {}, {}
    # Two-mode states with mild local squeezing (no known defect applies), a
    # Werner-Wolf family point and two Werner-Wolf-pattern forms.
    for k in range(4):
        f = _two_mode_form(rng)
        states[f"T{k}"] = _dress_two_mode(rng, f.to_cm().mat, *rng.uniform(0, 1.0, 2))
    ww = [_ww_family_point(rng)] + [_ww_form(rng, 0.5, 1.5, 0.5) for _ in range(2)]
    for k, form in enumerate(ww):
        states[f"W{k}"] = _dress_per_mode(rng, form.to_cm().mat, 0.5)
    for name, mat in states.items():
        files[name] = _write_json(workdir / f"{name}.json",
                                  {"n_modes": mat.shape[0] // 2, "cm": mat.tolist()})
    ladder_states = {}
    for k, (n_modes, order) in enumerate([(2, 4), (4, 3)]):
        kernel = (_low_occupancy_kernel(rng) if n_modes == 2
                  else _ww_form(rng, 0.55, 0.9, 0.2).to_cm())
        add, sub = _ladder_patterns(order, n_modes, 1)[0]
        files[f"N{k}"] = _write_json(workdir / f"N{k}.json",
                                     {"n_modes": n_modes, "cm": kernel.mat.tolist(),
                                      "add": list(add), "subtract": list(sub)})
        ladder_states[f"N{k}"] = (kernel, add, sub)
    detectors = {}
    for k in range(2):
        d = _detector(rng, standard_form.Family.TWO_MODE)
        files[f"D{k}"] = _write_json(workdir / f"D{k}.json",
                                     {"family": d.family.value, "m": list(d.params)})
        detectors[f"D{k}"] = witness.lambda_closed_form(d)[0]

    def in_process_verdict(criterion, name):
        if criterion == "nongauss":
            state = nongauss.NonGaussState(*ladder_states[name])
            return nongauss.decide_separability_nongauss(state).verdict
        g = symplectic.CovMatrix(states[name])
        if criterion == "ppt":
            return (criteria.Verdict.SEPARABLE if criteria.ppt_decide(g).is_ppt
                    else criteria.Verdict.ENTANGLED)
        if criterion == "witness":
            return _witness_verdict(witness.minmax_optimize(g))
        return criteria.decide_separability(g).verdict

    seen = {}

    def cli_item(item_id, args, check, refusal=None):
        """`refusal`: the known-defect message an exit 1 may carry on this item."""
        def run():
            proc = subprocess.run([sys.executable, "-m", "cvwitness.cli", *args], cwd=workdir,
                                  env=env, capture_output=True, text=True, timeout=150)
            if refusal and proc.returncode == 1 and proc.stderr.startswith("error:") \
                    and refusal in proc.stderr:
                raise CliRefusal(proc.stderr.strip())
            return proc

        def full_check(proc):
            if proc.returncode == 1 and "Traceback" in proc.stderr:
                return "uncaught exception: " + proc.stderr.strip().splitlines()[-1]
            msg = check(proc)
            if msg is None and args[0] == "check":
                first = seen.setdefault(tuple(args), proc.stdout)
                if first != proc.stdout:
                    return "report bytes differ between two identical check runs"
            return msg
        return Item(item_id, run, full_check, key=args[0], layer=f"cli.{args[0]}",
                    refusals=(CliRefusal,) if refusal else ())

    def check_verdict(criterion, name):
        want = in_process_verdict(criterion, name)

        def check(proc):
            if proc.returncode != _EXIT[want]:
                return f"exit {proc.returncode}, in-process verdict {want.value}"
            if json.loads(proc.stdout)["report"]["verdict"] != want.value:
                return "report verdict differs from the in-process verdict"
            return None
        return check

    def check_rows(n, out):
        def check(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()}"
            rows = (workdir / out).read_text().splitlines()
            return None if len(rows) == n + 1 else f"{len(rows) - 1} rows, expected {n}"
        return check

    def check_oracle(name):
        def check(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()}"
            rep = json.loads(proc.stdout)["report"]
            if abs(rep["lambda_closed"] - detectors[name]) > 1e-12 * detectors[name]:
                return "lambda_closed differs from the in-process value"
            return None if rep["delta"] <= ORACLE_TOL else f"delta {rep['delta']!r}"
        return check

    def check_cmd(criterion, name):
        args = ["check", files[name]] + ([] if criterion == "auto" else ["--criterion", criterion])
        return cli_item(f"{criterion}-{name}", args, check_verdict(criterion, name))

    if smoke:
        items = [check_cmd("auto", "T0"), check_cmd("auto", "T0"), check_cmd("ppt", "W0"),
                 cli_item("sweep-ww", ["sweep", "--family", "wernerwolf", "-n", "3", "ww.csv"],
                          check_rows(3, "ww.csv"))]
    else:
        items = [check_cmd("auto", n) for n in ("T0", "T1", "T2", "T3", "W0", "W1", "W2")]
        # the same two reports again: byte-identical output is checked
        items += [check_cmd("auto", "T0"), check_cmd("auto", "W0")]
        items += [check_cmd("ppt", "T1"), check_cmd("ppt", "T3"), check_cmd("ppt", "W0"),
                  check_cmd("witness", "T2"), check_cmd("witness", "T3"),
                  check_cmd("witness", "W1"),
                  check_cmd("nongauss", "N0"), check_cmd("nongauss", "N1")]
        for k in range(2):
            out = f"ww{k}.csv"
            items.append(cli_item(f"sweep-ww-{k}", ["sweep", "--family", "wernerwolf", "-n", "20",
                                                    "--seed", str(seed + k), out],
                                  check_rows(20, out)))
        items += [cli_item(f"oracle-D{k}", ["oracle", files[f"D{k}"]], check_oracle(f"D{k}"))
                  for k in range(2)]
        # Known defect: the ladder reaches r = 9.9, where the witness raises
        # "det(gamma + gamma_M) is non-positive" and the command exits 1.
        items.append(cli_item("sweep-tmsv", ["sweep", "--family", "tmsv", "-n", "100", "tmsv.csv"],
                              check_rows(100, "tmsv.csv"), refusal=TMSV_CLI_DEFECT))
    warm = [cli_item("version", ["--version"], lambda proc: None)]
    return Workload(items, warm)


def _witness_verdict(rep):
    if rep.boundary:
        return criteria.Verdict.BOUNDARY
    return criteria.Verdict.ENTANGLED if rep.entangled else criteria.Verdict.SEPARABLE


def build(name, seed, smoke, workdir, env):
    if name == "gaussian-batch":
        return gaussian_batch(seed, smoke)
    if name == "fock-oracle":
        return fock_oracle(seed, smoke)
    if name == "nongauss-moments":
        return nongauss_moments(seed, smoke)
    return cli_cold(seed, smoke, workdir, env)
