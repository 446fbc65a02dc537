"""
One pass of a workload, in a fresh interpreter started by run.py.

Usage: python3 child.py '<json request>'

The request names the source tree, the workload, the seed, smoke mode,
whether to trace or only to set up, the per-job time limit and the file
to write the pass result to.  Set-up time covers importing qbg and
generating the seeded job list; every job then runs through
``qbg.cli.main`` with its output captured, timed, checked and digested.
An untraced pass also samples the host's speed (hostspeed.py) and
reports every time both as measured and normalised.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import signal
import sys
import time

import workloads
from hostspeed import Sampler

# The noun that follows the number of checked instances in each suite's
# report body.
INSTANCE_WORDS = {
    "distance": "pairs", "samepath": "pairs", "bfp": "pairs", "increasing": "pairs",
    "tilted": "triples", "flat-count": "pairs", "fixedpoints": "triples",
    "equivalence": "checks", "stratify": "sampled flags", "plucker": "relations",
}


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no handler in the
    library can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def run_job(cli, job: dict, limit_s: float) -> dict:
    argv = job["argv"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except JobTimeout:
        error = f"no result within the {limit_s:g} s job limit"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed job; the pass goes on
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    stdout = out.getvalue()
    digest = hashlib.sha256(f"{rc}\n{stdout}".encode())
    if "--out" in argv and rc == 0:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            digest.update(fh.read())
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    if error is None and job.get("expect") and job["expect"] not in stdout.split():
        error = f"output lacks {job['expect']!r}"
    instances = 1
    body = None
    if argv[0] == "verify" and error is None:
        body = stdout.splitlines()[1]
        word = INSTANCE_WORDS.get(argv[2])
        found = re.search(rf"(\d+) {word}", body) if word else None
        instances = int(found.group(1)) if found else 1
    return {
        "key": " ".join(argv),
        "span": (t0, t1),
        "error": error,
        "digest": digest.hexdigest(),
        "instances": instances,
        "body": body,
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    src = os.path.realpath(request["src"])
    sampler = None if request["trace"] else Sampler()
    if sampler is not None:
        sampler.sample()
        sampler.sample()
        sampler.start()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import qbg
    import qbg.cli

    if not os.path.realpath(qbg.__file__).startswith(src + os.sep):
        print(f"qbg was imported from {qbg.__file__}, not from {src}", file=sys.stderr)
        return 2
    jobs = workloads.jobs(request["workload"], request["seed"], request["smoke"])
    t1 = time.perf_counter()
    if request["setup_only"]:
        jobs = []

    tracer = None
    if request["trace"]:
        from calltrace import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    for job in jobs:
        if sampler is not None:
            sampler.sample()
        results.append(run_job(qbg.cli, job, request["job_limit_s"]))
    if sampler is not None:
        sampler.sample()
        sampler.sample()
        sampler.stop()

    def times(t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalised) seconds; a traced pass has only raw ones."""
        return sampler.normalise(t0, t1) if sampler is not None else (t1 - t0, t1 - t0)

    setup_s = times(t0, t1)
    for job in results:
        job["raw_s"], job["seconds"] = times(*job.pop("span"))
    report = {
        "setup_raw_s": setup_s[0],
        "setup_s": setup_s[1],
        "wall_raw_s": sum(job["raw_s"] for job in results),
        "wall_s": sum(job["seconds"] for job in results),
        "snippets": len(sampler.durations) if sampler is not None else 0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "trace": None,
    }
    if tracer is not None:
        tracer.calibrate()
        report["trace"] = {
            "metrics": tracer.metrics(),
            "accounts": tracer.accounts(),
            "unpatched": tracer.unpatched(),
            "member_set_cache": tracer.cache_counts(),
            "functions": tracer.table(),
        }
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
