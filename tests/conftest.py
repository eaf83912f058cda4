import os
import re

# One BLAS thread for the whole suite, set before anything imports numpy:
# the timing criterion (8) then measures the code, not how many cores a
# busy host lends to OpenBLAS. A value already in the environment wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")


def pytest_report_header(config):
    return "BLAS threads: " + ", ".join(
        f"{name}={os.environ[name]}" for name in BLAS_THREAD_VARS)


def pytest_runtest_logreport(report):
    """Print one status line per acceptance criterion as it completes."""
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)_(\w+)", report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[criterion {int(m.group(1))}] {m.group(2)}: {status}",
              flush=True)
