"""Command-line surface: per-claim verification subcommands and a
machine-readable consolidated report.

This module parses the arguments, runs each subcommand's claims from
`chardeg.claims` and prints their results.  `verify-all` runs every claim
and exits 0 exactly when nothing failed or errored, and 1 otherwise; a
usage or input error is one line on stderr and exit code 2, before any
claim runs, and so is a report file the system refuses to write, after the
claim lines are printed.  Reports are JSON arrays with stable
claim ids, byte-identical across runs except for the timing fields.

Importing this module loads no module beyond `sys` and the `chardeg`
package: each function imports what it uses (`argparse`, `json`), and only
the subcommands that run claims and `analyze-group` load `chardeg.claims`.
"""

from __future__ import annotations

import sys

SUBCOMMAND_CLAIMS = {
    "verify-all": None,  # every claim of chardeg.claims.CLAIMS, in its order
    "rho": ["thm2.1/rho-direct", "thm2.1/rho-induction"],
    "psl2": ["sec5-6/psl2-degree-sums", "lem5.1/extendible-witness",
             "lem6.2/theta2-stabilizer", "thm3.1/epsilon-psl2"],
    "lie38": ["thm2.1/lie-38"],
    "seitz": ["sec3/seitz-untwisted", "sec3/seitz-twisted"],
    "situations": ["sec3/part4-situations", "sec3/part3-r-le-3"],
    "poly": ["lem3.3/srim-table", "sec3/nd-counts"],
    "gagola": ["thm7.2/equality-family", "lem7.1/gagola-arithmetic"],
    "epsilon": ["thm3.1/epsilon-an", "user/degree-records"],
}


def _write_report(reports, path) -> None:
    """Write the JSON report; a path the system refuses, though it passed
    _check_report_path, ends the run with one `output error:` line and exit
    code 2 after the claim lines are printed."""
    import json
    from pathlib import Path

    payload = [r.to_json() for r in reports]
    try:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        _abort(f"output error: cannot write report {path!r}: "
               f"{exc.strerror or exc}")


def _print_reports(reports) -> None:
    for r in reports:
        print(f"{r.status.upper():13s} {r.claim}  ({r.seconds:.2f}s)")
        for w in r.witnesses:
            print(f"              {w}")


def _exit_code(reports) -> int:
    from .claims import OUT_OF_SCOPE, PASS

    return 0 if all(r.status in (PASS, OUT_OF_SCOPE) for r in reports) else 1


def _abort(message: str):
    """Reject a usage, input or output error: one line on stderr, exit
    code 2.  Never returns."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _check_report_path(path) -> None:
    """Reject a --report path that cannot be written before any claim runs."""
    from pathlib import Path

    if path is None:
        return
    if Path(path).is_dir():
        _abort(f"configuration error: report path {path!r} is a directory")
    if not Path(path).parent.is_dir():
        _abort(f"configuration error: report path {path!r} "
               "is not in an existing directory")


def _config_from_args(args):
    from pathlib import Path

    from .claims import RunConfig, ingest_degree_records

    if args.max_n is not None:
        from . import symalt

        if not 7 <= args.max_n <= symalt.MAX_N:
            _abort(f"configuration error: --max-n {args.max_n} "
                   f"outside 7..{symalt.MAX_N}")
    # a torus table is checked as a path, and --jobs as a count, then ignored
    for what, path in (("torus table", args.torus_table), ("degree file", args.degrees)):
        if path is not None and not Path(path).is_file():
            problem = "is not a file" if Path(path).exists() else "does not exist"
            _abort(f"configuration error: {what} {path!r} {problem}")
    if args.jobs < 1:
        _abort(f"configuration error: --jobs {args.jobs} is below 1")
    _check_report_path(args.report)
    records = None
    if args.degrees is not None:
        try:
            records = tuple(ingest_degree_records(args.degrees))
        except (OSError, ValueError) as exc:
            _abort(f"input error: {exc}")
    return RunConfig(degree_records=records)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="Exact verification of character-degree bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report", help="write a JSON report to this path")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for old command lines and ignored: "
                            "every claim runs in this process; "
                            "values below 1 are still rejected")
        p.add_argument("--max-n", type=int, dest="max_n",
                       help="accepted for old command lines and ignored: "
                            "rho-direct always certifies n=7..87 and "
                            "rho-induction every n>=87; "
                            "values outside 7..60 are still rejected")
        p.add_argument("--torus-table", dest="torus_table",
                       help="accepted for old command lines and ignored: "
                            "the seitz claims derive every minimal torus order; "
                            "a path that is not a file is still rejected")
        p.add_argument("--degrees", help="JSONL file of user degree records")

    for name in SUBCOMMAND_CLAIMS:
        common(sub.add_parser(name))

    p_gag = sub.add_parser("analyze-group")
    p_gag.add_argument("--group-spec", required=True,
                       help="JSON group specification file")
    p_gag.add_argument("--report", help="write a JSON report to this path")

    p_eof = sub.add_parser("e-of")
    p_eof.add_argument("order", type=int)
    p_eof.add_argument("degree", type=int)

    args = parser.parse_args(argv)

    if args.command == "e-of":
        from . import bounds

        try:
            dec = bounds.e_of(args.order, args.degree)
        except ValueError as exc:
            _abort(f"input error: {exc}")
        print(f"|G| = {dec.order} = {dec.d} * ({dec.d} + {dec.e}), e = {dec.e}")
        if dec.e > 1:
            rep = bounds.verify_e4_bound(dec)
            print(f"e^4 - e^3 = {dec.e**4 - dec.e**3}; bound "
                  f"{'holds' if rep.holds else 'FAILS'} with slack {rep.slack}")
        else:
            print("e <= 1: outside the quartic-bound hypothesis")
        return 0

    if args.command == "analyze-group":
        _check_report_path(args.report)
        import time

        from . import groupengine
        from .claims import FAIL, PASS, VerificationReport
        from .errors import ResourceLimitError

        # a malformed file raises json.JSONDecodeError, a ValueError
        try:
            name, group = groupengine.load_group_file(args.group_spec)
        except (OSError, ValueError, ResourceLimitError) as exc:
            _abort(f"input error: {exc}")
        start = time.perf_counter()
        rep = groupengine.gagola_analyze(group)
        elapsed = time.perf_counter() - start
        print(f"group {name}: order {group.order}")
        print(f"  character vanishing off two classes: {rep.is_gagola}"
              + (f" (degree {rep.character_degree})" if rep.is_gagola else ""))
        print(f"  minimal normal subgroups: {rep.minimal_normal_count}"
              + (f", unique of order {rep.minimal_normal_order}"
                 if rep.has_unique_minimal_normal else ""))
        if args.report is not None:
            _write_report([VerificationReport(
                f"user/{name}", PASS if rep.is_gagola else FAIL,
                [f"order={group.order}", f"degree={rep.character_degree}",
                 f"minimal_normal_order={rep.minimal_normal_order}"],
                elapsed)], args.report)
        return 0

    cfg = _config_from_args(args)
    from .claims import CLAIMS, run_claims

    reports = run_claims(SUBCOMMAND_CLAIMS[args.command] or list(CLAIMS), cfg)
    _print_reports(reports)
    if args.report is not None:
        _write_report(reports, args.report)
    return _exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
