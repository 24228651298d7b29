"""Command-line front end.

Every run is fully determined by its flags (plus ``--seed`` where randomness
exists); outputs carry a header echoing the configuration so emitted files
are self-describing.  JSON goes to stdout by default, CSV rows carry
``#``-prefixed header lines.  Exit codes: 0 success, 1 ``verify`` found a
criterion failing (or an expected failure passing), 2 usage/validation
errors, 3 numeric-domain errors raised by the library.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import acceptance as acc
from .depth import contour_data, depth_large_j, macroscopic_fraction
from .detect import (
    RNG_NAME,
    DetectorArray,
    run_pair_tomography,
    scan_photon_numbers,
    simulate_shots,
)
from .entanglement import (
    bipartition_negativity,
    entanglement_report,
    optimize_ns_for_concurrence,
)
from .errors import PolsqueezeError
from .fock import build_squeezed_thermal, oracle_correlation, oracle_odm
from .odm import build_odm, phase_average
from .reduced import averaged_two_body, reduced_two_body
from .state import StateParams, purify, quadratures, squeezing_db, stokes_summary
from . import correlators

SCHEMA_VERSION = 1


def _header(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return {"schema_version": SCHEMA_VERSION, "version": __version__, "config": cfg}


def _emit_json(payload: dict, args) -> None:
    doc = _header(args)
    doc.update(payload)
    out = json.dumps(doc, indent=2, default=_json_default)
    _write(out + "\n", args)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, bool):
        return obj
    raise TypeError(f"not serializable: {type(obj)}")


def _emit_csv(rows: list[dict], args, notes: tuple = ()) -> None:
    lines = [f"# schema_version={SCHEMA_VERSION} version={__version__}"]
    cfg = " ".join(f"{k}={v}" for k, v in vars(args).items() if k != "func")
    lines.append(f"# config: {cfg}")
    for note in notes:
        lines.append(f"# note: {note}")
    if rows:
        cols = list(rows[0].keys())
        lines.append(",".join(cols))
        for r in rows:
            lines.append(",".join(_csv_cell(r[c]) for c in cols))
    _write("\n".join(lines) + "\n", args)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write(text: str, args) -> None:
    path = getattr(args, "out", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> StateParams:
    return StateParams(nc=args.nc, ns=args.ns, nth=args.nth)


def _add_params(sub, nc=True):
    if nc:
        sub.add_argument("--nc", type=float, required=True)
    sub.add_argument("--ns", type=float, required=True)
    sub.add_argument("--nth", type=float, default=0.0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_state(args):
    p = _params(args)
    st = stokes_summary(p)
    q = quadratures(p)
    payload = {
        "s0": st.s0,
        "sx": st.sx,
        "var_sz": st.var_sz,
        "wineland": st.wineland_squeezed,
        "squeezing_db": squeezing_db(p),
        "var_x": q.var_x,
        "var_p": q.var_p,
    }
    pure, eta = purify(p)
    payload["purified"] = {"nc": pure.nc, "ns": pure.ns, "eta": eta}
    if args.eta is not None:
        from .state import apply_loss

        lossy = apply_loss(p, args.eta)
        payload["after_loss"] = {"nc": lossy.nc, "ns": lossy.ns, "nth": lossy.nth}
    _emit_json(payload, args)


def cmd_corr(args):
    p = StateParams(nc=1.0, ns=args.ns, nth=args.nth)
    val = correlators.correlation(p, args.m, args.n)
    import mpmath as mp

    if val == 0:
        sys.stdout.write("0.0000000000000000e+00\n")
        return
    exponent = int(mp.floor(mp.log10(abs(val))))
    mantissa = val / mp.mpf(10) ** exponent
    sys.stdout.write(f"{mp.nstr(mantissa, 17, strip_zeros=False)}e{exponent:+03d}\n")


def cmd_odm(args):
    p = _params(args)
    odm = build_odm(p, args.n)
    if args.decohere:
        odm = phase_average(odm)
    payload = {
        "n": odm.n,
        "trace_scaled": odm.trace,
        "vcount_table": odm.normalized_table(),
    }
    if odm.n <= 6:
        payload["matrix"] = odm.dense()
    if args.format == "json":
        _emit_json(payload, args)
    else:
        rows = [
            {"v": v, "w": w, "value": odm.normalized_table()[v, w]}
            for v in range(odm.n + 1)
            for w in range(odm.n + 1)
        ]
        _emit_csv(rows, args)


def cmd_reduced(args):
    p = _params(args)
    if args.averaged:
        tb = averaged_two_body(p)
    else:
        tb = reduced_two_body(p, args.n)
    _emit_json({"matrix": tb.matrix, **asdict(entanglement_report(tb, args.n))}, args)


def cmd_entangle(args):
    p = _params(args)
    if args.optimize_ns:
        ns_star = optimize_ns_for_concurrence(args.nc, args.nth, args.n)
        p = StateParams(nc=args.nc, ns=ns_star, nth=args.nth)
    tb = reduced_two_body(p, args.n)
    payload = {"ns_used": p.ns, **asdict(entanglement_report(tb, args.n))}
    if args.negativity_cut is not None:
        odm = build_odm(p, args.n)
        payload["negativity"] = bipartition_negativity(odm, args.negativity_cut)
    _emit_json(payload, args)


def _concurrence_row(nc: float, ns: float, n: int) -> dict:
    tb = reduced_two_body(StateParams(nc=nc, ns=ns, nth=0.0), n)
    row = {"nc": nc, "ns": ns, "n": n, **asdict(entanglement_report(tb, n))}
    del row["ppt_negative"]  # the sweep CSV has no PPT column
    return row


def cmd_sweep(args):
    ns_grid = [float(x) for x in args.ns_grid.split(",")]
    n_grid = [int(x) for x in args.n_grid.split(",")]
    rows = [_concurrence_row(args.nc, ns, n) for n in n_grid for ns in ns_grid]
    _emit_csv(rows, args)


def cmd_depth(args):
    p = _params(args)
    r = depth_large_j(p)
    frac_channel, grey = macroscopic_fraction(args.ns, args.nth)
    _emit_json(
        {
            "k": r.k,
            "fraction": r.fraction,
            "v": r.v,
            "defect": r.defect,
            "macroscopic_fraction": frac_channel,
            "grey": grey,
        },
        args,
    )


def _contour_rows(resolution: int) -> list[dict]:
    return [
        {"ns": ns, "nth": nth, "fraction": f, "is_grey": g}
        for ns, nth, f, g in contour_data(resolution=resolution)
    ]


def cmd_depth_contour(args):
    _emit_csv(_contour_rows(args.resolution), args)


def _parse_schedule(sched: str):
    if sched == "default":
        from .detect import DEFAULT_SCHEDULE

        return DEFAULT_SCHEDULE
    with open(sched) as fh:
        labels = [line.strip() for line in fh if line.strip()]
    return tuple(labels)


def cmd_simulate(args):
    p = _params(args)
    schedule = _parse_schedule(args.schedule)
    arr = DetectorArray(m=args.m, efficiency=args.eta, rng_seed=args.seed)
    if args.records:
        lines = [json.dumps(_header(args))]
        for rec in simulate_shots(p, arr, args.shots):
            lines.append(json.dumps(asdict(rec)))
        _write("\n".join(lines) + "\n", args)
        return
    if args.scan_n:
        sizes = [int(x) for x in args.scan_n.split(",")]
        scan = scan_photon_numbers(
            args.ns, args.nth, sizes, m=args.m, efficiency=args.eta, seed=args.seed,
            shots=args.shots, schedule=schedule, bootstrap=args.bootstrap,
        )
        rows = [
            {
                "n": n,
                "delta_hat": res.delta_hat,
                "delta_se": res.delta_se,
                "single_shot_err": res.single_shot_err,
                "shots_to_1sigma": res.shots_to_1sigma,
            }
            for n, res in zip(sizes, scan)
        ]
        _emit_csv(rows, args)
        return
    res = run_pair_tomography(
        p, arr, shots_per_setting=args.shots, schedule=schedule, bootstrap=args.bootstrap
    )
    _emit_json(
        {
            "rng": RNG_NAME,
            "matrix": res.matrix.matrix,
            "entry_se": res.entry_se,
            "delta_hat": res.delta_hat,
            "delta_se": res.delta_se,
            "shots_to_1sigma": res.shots_to_1sigma,
            "collision_fraction": res.collision_fraction,
            "excluded_fraction": res.excluded_fraction,
        },
        args,
    )


def cmd_oracle(args):
    if args.kind == "corr":
        st = build_squeezed_thermal(args.ns, args.nth, args.cutoff)
        val = oracle_correlation(st, args.m, args.n)
        sys.stdout.write(f"{val.real:.17e}\n")
    else:
        p = _params(args)
        mat = oracle_odm(p, args.n, cutoff=args.cutoff)
        _emit_json({"matrix": mat / np.trace(mat)}, args)


def cmd_figure_data(args):
    if args.figure == "fig2":
        rows = _contour_rows(args.resolution)
    elif args.figure == "fig4":
        rows = []
        for n in (2, 17, 50, 100):
            for ns in (0.01, 0.03, 0.1, 0.3, 1.0, 1.7):
                for nc in (2.0, 5.0, 10.0, 17.0, 30.0, 50.0, 100.0, 200.0):
                    row = _concurrence_row(nc, ns, n)
                    # line weight: Poisson(nc) at n over Poisson(n) at n
                    logw = (-nc + n * math.log(nc)) - (-n + n * math.log(n))
                    row["weight"] = math.exp(logw)
                    rows.append(row)
    else:  # fig5 -> bipartition negativity sweep (PPT substitute, not the SDP witness)
        rows = []
        for n in (3, 4, 5, 6):
            for nc in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
                p = StateParams(nc=nc, ns=0.3, nth=0.0)
                odm = build_odm(p, n)
                neg = max(
                    bipartition_negativity(odm, k) for k in range(1, n // 2 + 1)
                )
                rows.append({"n": n, "nc": nc, "ns": 0.3, "negativity": neg})
        _emit_csv(
            rows,
            args,
            notes=(
                "negativity here is bipartition PPT negativity (worst cut), a "
                "strictly weaker criterion than fully-decomposable-witness "
                "optimization, which needs an SDP solver and is not implemented",
            ),
        )
        return
    _emit_csv(rows, args)


def cmd_verify(args):
    ok = acc.print_table(acc.run_all(args.skip_slow, args.shots, args.seed))
    raise SystemExit(0 if ok else 1)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polsqueeze",
        description="multi-photon entanglement in polarization-squeezed light",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("state", help="Stokes/quadrature summaries")
    _add_params(s)
    s.add_argument("--eta", type=float, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_state)

    s = sub.add_parser("corr", help="single-mode moment <(a^dag)^m a^n>")
    _add_params(s, nc=False)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_corr)

    s = sub.add_parser("odm", help="N-photon observable density matrix")
    _add_params(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--decohere", action="store_true")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_odm)

    s = sub.add_parser("reduced", help="two-photon reduced matrix")
    _add_params(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--averaged", action="store_true")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_reduced)

    s = sub.add_parser("entangle", help="entanglement report")
    _add_params(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--optimize-ns", dest="optimize_ns", action="store_true")
    s.add_argument("--negativity-cut", dest="negativity_cut", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_entangle)

    s = sub.add_parser("sweep", help="concurrence sweep CSV")
    s.add_argument("--nc", type=float, required=True)
    s.add_argument("--ns-grid", default="0.01,0.03,0.1,0.3,1.0,1.7")
    s.add_argument("--n-grid", default="2,17,50,100")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("depth", help="entanglement depth bound")
    _add_params(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_depth)

    s = sub.add_parser("depth-contour", help="macroscopic depth-fraction grid CSV")
    s.add_argument("--resolution", type=int, default=41)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_depth_contour)

    s = sub.add_parser("simulate", help="coincidence-detection Monte Carlo")
    _add_params(s)
    s.add_argument("--eta", type=float, default=1.0)
    s.add_argument("--m", type=int, default=2**20)
    s.add_argument("--shots", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--bootstrap", type=int, default=200)
    s.add_argument("--schedule", default="default",
                   help="'default' or a file with one setting label per line")
    s.add_argument("--records", action="store_true",
                   help="emit newline-delimited JSON shot records instead of a summary")
    s.add_argument("--scan-n", dest="scan_n", default=None,
                   help="comma list of photon numbers; emits the scaling CSV")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("oracle", help="truncated-Fock reference values")
    s.add_argument("kind", choices=("corr", "odm"))
    s.add_argument("--nc", type=float, default=1.0)
    s.add_argument("--ns", type=float, required=True)
    s.add_argument("--nth", type=float, default=0.0)
    s.add_argument("--m", type=int, default=0)
    s.add_argument("--n", type=int, default=0)
    s.add_argument("--cutoff", type=int, default=40)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_oracle)

    s = sub.add_parser("figure-data", help="deterministic figure CSV data")
    s.add_argument("figure", choices=("fig2", "fig4", "fig5"))
    s.add_argument("--resolution", type=int, default=41)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_figure_data)

    s = sub.add_parser("verify", help="run the acceptance suite")
    s.add_argument("--skip-slow", action="store_true")
    s.add_argument("--shots", type=int, default=acc.SHOTS)
    s.add_argument("--seed", type=int, default=acc.SEED)
    s.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except SystemExit:
        raise
    except PolsqueezeError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 3
    except ValueError as exc:
        sys.stderr.write(
            json.dumps({"error": "ValueError", "message": str(exc)}) + "\n"
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
