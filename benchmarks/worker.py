"""One benchmark process: set-up, or one cold pass and optional warm pass.

Usage (from run.py, never by hand): python3 benchmarks/worker.py '<json>'
where the JSON object holds mode ("import", "setup" or "passes"),
workload, seed, round, directory, passes and trace.  The worker caps its
own address space first, so a runaway item fails with MemoryError instead
of exhausting the host.  A set-up worker also times host-speed probes
before and after its timed work (see hostspeed.py).  The worker prints
one JSON object on stdout when it is done.
"""

import json
import resource
import sys
from time import perf_counter

ADDRESS_SPACE_BYTES = 1 << 30  # about 5x the peak of the largest workload
SETUP_PROBES = 10  # host-speed probes before and after the timed set-up


def main(config):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    from hostspeed import probe

    probes = [probe() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    import feaslab

    import_s = perf_counter() - t0
    import workloads
    from feaslab.cutelim import node_budget
    from tracing import Tracer

    out = {"feaslab": feaslab.__file__, "node_budget": node_budget(), "import_s": import_s}
    workload = config["workload"]
    if config["mode"] == "setup":
        t1 = perf_counter()
        workloads.items(workload, config["seed"])
        workloads.write_inputs(workload, config["directory"])
        out["inputs_s"] = perf_counter() - t1
        out["probes"] = probes + [probe() for _ in range(SETUP_PROBES)]
    elif config["mode"] == "passes":
        order = workloads.items(workload, config["seed"], config["round"])
        passes = []
        for _ in range(config["passes"]):
            tr = Tracer(config["trace"])
            passes.append(workloads.run_pass(workload, order, tr, config["directory"]))
            passes[-1]["spans"] = tr.spans
        out["passes"] = passes
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
