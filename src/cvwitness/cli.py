"""Command-line interface.

Exit codes: 0 Separable, 2 Entangled, 3 Boundary/undecided, 1 error
(usage errors included).
Every report embeds the tool version and the options that shape it: `check`
its admission tolerance, `oracle` the seed of its random seesaw starts.
Output is byte-identical for the same input and options.  A Gaussian
decision forms its criterion exactly from the standard form's doubles and
rounds it once, and reads its sign against its own rounding, half an ulp
plus what the form inherits from the input, which its report carries as
`lhs_rounding`; no option sets it, and the one absolute Boundary band left
is the witness's `TOL_ELL_BOUNDARY`.  A criterion past double precision is
an error, not an `Infinity` in the report.
`--tol-psd` is `check`'s admission tolerance and nothing else, a finite
number >= 0: each criterion is one library call, which refuses a
non-state at it, and `nongauss` admits its kernel at it before the ladder
state is built.  `sweep` draws
its Werner-Wolf samples from `--seed`, and only those load `numpy.random`;
its states are generated, not read, so it has no tolerance.

Start-up is most of a command's run, so the module imports at the top only
what every command needs (`criteria`, `io`, `standard_form`, `symplectic`);
a command imports its own further layers where it runs them: `oracle` the
Fock oracle and the witness, `sweep` the witness and `csv`, and `check`
the witness or the non-Gaussian moments only for that criterion.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .criteria import (Verdict, WWFamilyParams, decide_separability, ppt_decide,
                       separability_lhs, werner_wolf_family)
from .exceptions import CvWitnessError
from .io import (criterion_report_dict, dump_report, load_cm, load_detector,
                 load_nongauss, witness_report_dict)
from .standard_form import QuadratureForm, TwoModeStandardForm
from .symplectic import TOL_PSD, _admission_tol

EXIT_SEPARABLE = 0
EXIT_ERROR = 1
EXIT_ENTANGLED = 2
EXIT_BOUNDARY = 3

_VERDICT_EXIT = {
    Verdict.SEPARABLE: EXIT_SEPARABLE,
    Verdict.ENTANGLED: EXIT_ENTANGLED,
    Verdict.BOUNDARY: EXIT_BOUNDARY,
}


def cmd_check(args) -> int:
    criterion = args.criterion
    if criterion == "nongauss":
        from .nongauss import decide_separability_nongauss
        state, partition = load_nongauss(args.input, tol=args.tol_psd)
        decision = decide_separability_nongauss(state, partition, tol=args.tol_psd)
        verdict, report = decision.verdict, criterion_report_dict(decision)
    else:
        gamma, partition = load_cm(args.input)
        if criterion == "ppt":
            ppt = ppt_decide(gamma, partition, tol=args.tol_psd)
            verdict = Verdict.SEPARABLE if ppt.is_ppt else Verdict.ENTANGLED
            report = {"verdict": verdict.value, "criterion": "ppt",
                      "is_ppt": ppt.is_ppt,
                      "min_pt_symplectic_eig": ppt.min_pt_symplectic_eig}
        elif criterion == "witness":
            from .witness import minmax_optimize
            wit = minmax_optimize(gamma, partition, tol=args.tol_psd)
            verdict = (Verdict.BOUNDARY if wit.boundary else
                       Verdict.ENTANGLED if wit.entangled else Verdict.SEPARABLE)
            report = {**witness_report_dict(wit), "verdict": verdict.value,
                      "criterion": "witness"}
        else:
            decision = decide_separability(gamma, partition, tol=args.tol_psd)
            verdict, report = decision.verdict, criterion_report_dict(decision)
    dump_report({"version": __version__,
                 "tolerances": {"tol_psd": args.tol_psd},
                 "report": report}, sys.stdout)
    return _VERDICT_EXIT[verdict]


def cmd_oracle(args) -> int:
    from .fock import gaussian_op_fock, mean_photon_defect, seesaw_lambda
    from .witness import lambda_closed_form
    d = load_detector(args.input)
    cutoff = d.family.oracle_cutoff if args.cutoff is None else args.cutoff
    lam_closed, _ = lambda_closed_form(d)
    gamma = d.to_cm()
    rho = gaussian_op_fock(gamma, cutoff)
    n_a = d.family.n_modes_a
    dims = (cutoff ** n_a, cutoff ** (d.n_modes - n_a))
    res = seesaw_lambda(rho, dims, restarts=args.restarts, seed=args.seed)
    delta = abs(lam_closed - res.value)
    payload = {"version": __version__, "seed": args.seed, "report": {
        "lambda_closed": lam_closed, "lambda_seesaw": res.value,
        "delta": delta, "cutoff": cutoff,
        "truncated_trace": float(np.real(np.trace(rho))),
        "mean_photon_defect": mean_photon_defect(rho, gamma, cutoff),
        "converged": res.converged,
        "iterations": res.iterations}}
    dump_report(payload, sys.stdout)
    return EXIT_SEPARABLE if delta <= 1e-3 else EXIT_ERROR


def _ww_sample(rng: "np.random.Generator") -> WWFamilyParams:
    """Random valid five-parameter family point (rejection sampling)."""
    while True:
        a, b, c, d, e = rng.uniform(0.2, 3.0, size=5)
        if a * d - b * c > 1e-3 and c * e - a > 1e-3:
            return WWFamilyParams(a, b, c, d, e)


def _sweep_row(form: QuadratureForm, lead: list) -> list:
    """lead, lhs, is_ppt, ell of one family point; the witness runs before
    the PPT test, so its refusal is the row's error."""
    from .witness import minmax_optimize
    gamma = form.to_cm()
    ell = minmax_optimize(gamma).ell_limit
    return [*lead, separability_lhs(form), ppt_decide(gamma).is_ppt, ell]


def _tmsv(r: float) -> QuadratureForm:
    """Two-mode squeezed vacuum of squeezing r, in standard form (x
    correlated, p anti: the CM builder carries the sign flip on c2)."""
    a, c = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    return TwoModeStandardForm(a, a, c, c)


def cmd_sweep(args) -> int:
    import csv
    if args.n_samples < 1 or args.seed < 0:
        raise CvWitnessError(f"need n_samples >= 1 and seed >= 0, got n_samples "
                             f"{args.n_samples} and seed {args.seed}")
    if args.family == "wernerwolf":
        rng = np.random.default_rng(args.seed)
        header = ["a", "b", "c", "d", "e", "lhs_criterion", "is_ppt", "ell"]
        samples = [_ww_sample(rng) for _ in range(args.n_samples)]
        points = [(werner_wolf_family(p), [p.a, p.b, p.c, p.d, p.e]) for p in samples]
    else:
        header = ["r", "lhs_criterion", "is_ppt", "ell"]
        points = [(_tmsv(0.1 * i), [0.1 * i]) for i in range(args.n_samples)]
    rows = [_sweep_row(*point) for point in points]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v
                             for v in row])
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return EXIT_SEPARABLE


def _tolerance(text: str) -> float:
    """A `--tol-psd` value, refused as a usage error, before any input is
    read, where the library would refuse it (`symplectic._admission_tol`)."""
    try:
        return _admission_tol(float(text))
    except (ValueError, CvWitnessError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvwitness",
        description="Separability of continuous-variable states via matched "
                    "Gaussian entanglement witnesses.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check", help="decide separability of a state file")
    p_check.add_argument("input")
    p_check.add_argument("--criterion", default="auto",
                         choices=["auto", "ppt", "witness", "nongauss"])
    p_check.add_argument("--tol-psd", dest="tol_psd", type=_tolerance, default=TOL_PSD)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser(
        "oracle", help="compare closed-form and Fock-seesaw detector maxima")
    p_oracle.add_argument("input")
    p_oracle.add_argument("--cutoff", type=int, default=None)
    p_oracle.add_argument("--restarts", type=int, default=5)
    seed(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a state family")
    p_sweep.add_argument("--family", required=True,
                         choices=["wernerwolf", "tmsv"])
    p_sweep.add_argument("-n", "--n-samples", dest="n_samples", type=int,
                         required=True)
    p_sweep.add_argument("out")
    seed(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2, the Entangled code
        return EXIT_ERROR if exc.code else EXIT_SEPARABLE
    try:
        return args.func(args)
    except (CvWitnessError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
