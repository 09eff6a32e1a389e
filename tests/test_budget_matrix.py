"""The budget-conformance matrix: every command holds within its --limit-memory.

Each row runs one command in a child at --limit-memory B, where B is the
command's own charge, summed from the package's charge functions.  At B it
must exit 0 and peak at most the baseline + B + SLACK, the baseline being the
peak of an ``nc check 7`` child (interpreter, numpy and the package, about
30 MB); at B - 1 it must exit 2, refused before anything is built.  A peak is
the child's ru_maxrss from os.wait4.

Each child is spawned by a small launcher process, not by pytest: a child's
ru_maxrss also counts the peak of the address space it was spawned from,
until its exec, and pytest's peak is far above the baseline.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nc_forge import novak
from nc_forge.cli import EXIT_OK, EXIT_RESOURCE, NC_LIST_BATCH_BYTES, Z_VALUE_BYTES
from nc_forge.sieve import table_charge
from nc_forge.smoothness import YRule, psi_charge, shift_charge

# ru_maxrss counts file-backed pages too, and the rows run NumPy kernels the
# baseline never runs: RssFile at their exit read 0.3-1.0 MB above the
# baseline's, while nothing in the budget can charge a page of a library.
SLACK = 1 << 20

SRC = Path(__file__).resolve().parents[1] / "src"
CLI_ENTRY = "import sys\nfrom nc_forge.cli import main\nsys.exit(main())"  # the console script
LAUNCHER = """import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024)"""


def _launch(*argv: str) -> subprocess.Popen:
    """The nc-forge command argv, started in a fresh child; _peak reads its outcome."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, "-c", CLI_ENTRY, *argv], env=env, stdout=subprocess.PIPE, text=True
    )


def _peak(launched: subprocess.Popen) -> tuple[int, int]:
    """(exit code, peak RSS in bytes) of a command from _launch."""
    out, _ = launched.communicate(timeout=120)
    assert launched.returncode == 0
    code, peak = out.split()
    return int(code), int(peak)


def _conjecture_charge(rule: YRule) -> dict[str, int]:
    zs = (10**5, 10**6, 10**7)
    top = zs[-1]
    return {
        "z list": Z_VALUE_BYTES * len(zs), **table_charge(top), **shift_charge(),
        **psi_charge(top, rule.y_for(top)),
    }


def _list_charge(x: int) -> dict[str, int]:
    return {
        **novak._charge("list_nc", x), "output batch": NC_LIST_BATCH_BYTES,
        "member list": novak.MEMBER_BYTES * novak.count_nc(x),
    }


ROWS = {
    "smooth pi walk": ("smooth pi --x 10^7 --y 3162", lambda: {**table_charge(10**7), **shift_charge()}),
    "smooth pi enumeration": ("smooth pi --x 10^7 --y 55", lambda: {**table_charge(10**7), **shift_charge()}),
    "conjecture hild": ("conjecture --z 10^5,10^6,10^7 --y-rule hild", lambda: _conjecture_charge(YRule("hild"))),
    "conjecture power:0.9": (
        "conjecture --z 10^5,10^6,10^7 --y-rule power:0.9", lambda: _conjecture_charge(YRule("power", 0.9))
    ),
    "nc count": ("nc count --limit 10^10", lambda: novak._charge("count_nc", 10**10)),
    "nc list": ("nc list --limit 10^8", lambda: _list_charge(10**8)),
    "construct": ("construct --r 10 --s 100 --all", lambda: {**table_charge(100), **shift_charge()}),
    "certify": ("certify --x 10^30 --r 10 --s 100", lambda: {**table_charge(100), **shift_charge()}),
}


@pytest.fixture(scope="module")
def baseline() -> int:
    code, peak = _peak(_launch("nc", "check", "7"))
    assert code == EXIT_OK
    return peak


@pytest.mark.parametrize("row", ROWS)
def test_a_command_holds_within_its_charge(baseline, row):
    command, charge = ROWS[row]
    budget = sum(charge().values())
    refused = _launch(*command.split(), "--limit-memory", str(budget - 1))  # runs beside the next
    code, peak = _peak(_launch(*command.split(), "--limit-memory", str(budget)))
    assert code == EXIT_OK
    assert peak <= baseline + budget + SLACK, f"{(peak - baseline - budget) / 2**20:.2f} MiB over the charge"
    assert _peak(refused)[0] == EXIT_RESOURCE
