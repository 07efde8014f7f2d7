"""Cold-start probe: a fresh interpreter up to the first runner call.

    python3 coldstart.py EXPERIMENT --config CFG --out PREFIX

Imports ``elastoscat.cli``, replaces the experiment runners with a stub and
calls ``cli.main``, so argument parsing and ``load_config`` run as usual.
The stub prints ``time.monotonic_ns()`` (a clock shared by all processes)
and exits; the parent subtracts the time it started this process.
"""
import sys
import time

from elastoscat import cli


def _stop(*args, **kwargs):
    print(time.monotonic_ns(), flush=True)
    raise SystemExit(0)


for _name, _value in list(vars(cli).items()):
    if _name.startswith("run_") and callable(_value):
        setattr(cli, _name, _stop)
for _name in getattr(cli, "RUNNERS", {}):
    cli.RUNNERS[_name] = _stop

sys.exit(cli.main(sys.argv[1:]))
