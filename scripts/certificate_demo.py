#!/usr/bin/env python3
"""Build, verify, and summarise lower-bound certificates.

Runs the manual flagship instance (r=10, s=100, x=10^30) with a full
member enumeration, then the two formula schedules at astronomically large
thresholds, and prints the realized exponents next to their targets.

Usage: python scripts/certificate_demo.py
"""

import json
import math
import sys
import time

from nc_forge.certify import (
    Schedule,
    certify_lower_bound,
    enumerate_certificate,
    parse_threshold,
    verify_certificate,
)


def show(cert, label):
    ok, mismatches = verify_certificate(cert)
    status = "verified" if ok else f"MISMATCH: {mismatches}"
    print(f"--- {label}: {status}")
    print(json.dumps(cert.to_dict(), indent=2))


def exponent_report(x_texts, u):
    """One CSV row x,r,s,A,log10_count,exponent per t1 certificate at u.

    The exponent is log(count)/log(x), to set against the target 1 - u;
    NA when the certificate is infeasible or empty.
    """
    for text in x_texts:
        x = parse_threshold(text)
        cert = certify_lower_bound(Schedule.t1(x, u))
        feasible = cert.infeasible_reason is None and cert.count >= 1
        expo = f"{math.log(cert.count) / x.log:.4f}" if feasible else "NA"
        yield f"{cert.x},{cert.r},{cert.s},{cert.A},{cert.log10_count:.2f},{expo}"


def main() -> int:
    t0 = time.time()
    flagship = certify_lower_bound(Schedule.manual("10^30", 10, 100))
    show(flagship, "manual r=10 s=100 x=10^30")
    report = enumerate_certificate(flagship)
    print(
        f"enumerated {report.members} members: distinct={report.distinct} "
        f"bounded={report.all_at_most_x} valid={report.all_criterion_valid}"
    )

    show(certify_lower_bound(Schedule.t1("e^10000", 0.5)), "t1 u=0.5 x=e^10000")
    show(certify_lower_bound(Schedule.t2("e^1000")), "t2 x=e^1000")
    show(certify_lower_bound(Schedule.t2("10^30")), "t2 x=10^30 (degenerate at desk scale)")

    print("\n--- realized exponents, t1 u=0.5 (target 0.5)")
    print("x,r,s,A,log10_count,exponent")
    for row in exponent_report(["10^30", "10^60", "10^120", "e^1000"], 0.5):
        print(row)

    print(f"\ntotal {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
