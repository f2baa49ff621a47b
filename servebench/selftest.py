#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (20k triples, ~1 s a run).

    python3 servebench/selftest.py <path to the servebench binary>

Also registered with CTest in servebench/CMakeLists.txt. Checks that:
  * every workload, serve_write included (it runs by hand, outside
    BENCHMARK.json), runs clean, untraced, and reports every end-to-end
    metric named in BENCHMARK.json with a positive value;
  * a traced run reports every per-layer metric and writes a Chrome
    trace file whose spans carry request ids;
  * a run whose expected lookup row counts are off by one (the
    --corrupt-expected hook) reports the mismatches as failed ops,
    answers correct=false and exits non-zero.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TRIPLES = "20000"
WORKLOADS = ("serve_lookup", "serve_scan", "serve_write")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run(binary, out_dir, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--triples", TRIPLES, "--out", out_dir]
    cmd += list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def expect(cond, what, proc=None):
    if not cond:
        detail = "" if proc is None else "\n" + proc.stdout[-3000:] + proc.stderr[-3000:]
        raise AssertionError(what + detail)


def check_metrics(result, names, proc):
    got = result["metrics"]
    expect(set(got) == set(names),
           "metrics %s, want %s" % (sorted(got), sorted(names)), proc)


def main():
    binary = os.path.abspath(sys.argv[1])
    spec = load_spec()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    with tempfile.TemporaryDirectory() as out_dir:
        for w in WORKLOADS:
            proc, result = run(binary, out_dir, w, 0)
            expect(proc.returncode == 0 and result is not None,
                   "%s exited %d" % (w, proc.returncode), proc)
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] > 0, "%s not correct" % w, proc)
            check_metrics(result, end_to_end, proc)
            for name, m in result["metrics"].items():
                expect(m["value"] > 0, "%s: %s is %r" % (w, name, m["value"]),
                       proc)
            print("ok   %s: %d ops" % (w, result["attempted"]))

        proc, result = run(binary, out_dir, "serve_write", 1)
        expect(proc.returncode == 0 and result["correct"],
               "traced serve_write failed", proc)
        check_metrics(result, per_layer, proc)
        with open(os.path.join(out_dir, "trace-serve_write-seed7.json")) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for layer in ("client", "server.handle", "rdf.pin", "query.match",
                      "rdf.apply", "rdf.mutate", "setup"):
            expect(layer in names, "no %s span in the trace" % layer)
        ids = {e["args"]["request_id"] for e in events if e["name"] == "client"}
        expect(any(e["name"] == "query.match" and e["args"]["request_id"] in ids
                   for e in events), "match spans do not share request ids")
        print("ok   traced serve_write: %d spans" % len(events))

        proc, result = run(binary, out_dir, "serve_lookup", 0,
                           "--corrupt-expected")
        expect(proc.returncode != 0, "corrupted expectations exited 0", proc)
        expect(result is not None and not result["correct"] and
               result["failed"] > 0, "corrupted expectations not caught", proc)
        expect("expected" in proc.stderr and "rows, got" in proc.stderr,
               "no row-count mismatch reported", proc)
        print("ok   wrong expected row count caught: %d of %d ops failed" %
              (result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
