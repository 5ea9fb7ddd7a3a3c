"""One pipeline process: run a workload's commands through `navsynth.cli.main`.

Usage: python3 perfbench/pipeline.py PLAN.json

The plan names the source directory, the commands, whether to trace, and
optionally `min_seconds`: repeat the command list until that much time has
passed.
Each command's CPU time, exit code and any exception go to the plan's
result file, with the import time and the peak resident set. The program's
own output goes to the plan's log file.
"""

import contextlib
import json
import os
import sys
import time
import traceback


def _repeat(commands, min_seconds):
    """The command list once, then again until `min_seconds` have passed."""
    t0 = time.perf_counter()
    while True:
        yield from commands
        if time.perf_counter() - t0 >= min_seconds:
            return


def _peak_rss_kib() -> int:
    """Peak resident set of this process's own address space (VmHWM).

    `ru_maxrss` would also count the parent's resident set at fork time.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    t0 = time.perf_counter()
    sys.path.insert(0, plan["src"])
    import navsynth.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("navsynth imported from %s, not from %s" % (cli.__file__, src))

    tracer, problems = None, []
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
        problems = tracer.install()

    commands = []
    with open(plan["log"], "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv in _repeat(plan["commands"], plan.get("min_seconds", 0.0)):
            error = None
            scope = tracer.root("cli." + argv[0]) if tracer else contextlib.nullcontext()
            c0 = time.process_time()
            with scope:
                try:
                    rc = cli.main(argv)
                except SystemExit as e:  # argparse rejects the arguments
                    rc = e.code if isinstance(e.code, int) else 1
                except Exception:
                    rc, error = None, traceback.format_exc()
                    print(error, file=sys.stderr)
            commands.append({"cpu": time.process_time() - c0, "rc": rc, "error": error})
    result = {"import_s": import_s, "commands": commands, "peak_rss_kib": _peak_rss_kib(),
              "trace_problems": problems}
    if tracer:
        result["trace"] = tracer.dump()
    with open(plan["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
