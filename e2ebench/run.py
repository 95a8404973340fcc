#!/usr/bin/env python3
"""End-to-end benchmark of mivid: four fixed-work workloads over the
vision, serving, ingest and fleet paths, plus a traced per-layer run.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The first run builds the program from
source into .bench_build/e2ebench. Every run prints a human-readable
report, then, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of the workload; with --trace 1 they
are the per-layer metrics of every workload (see README.md).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in e2ebench/

import metrics as m  # noqa: E402

WORKLOADS = ("vision_offline", "session_interactive", "ingest_live",
             "fleet_multicam")
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
WORK_ROOT = ".bench_work"
RUN_TIMEOUT_S = 170

# Per-layer metrics: name -> (workload it is measured on, source, unit).
# Sources: ("layer", span, "per_call") = span total time per call;
# ("counter", name, "mean"|"sum") = a counted quantity.
PER_LAYER = {
    "trafficsim.step_ms": ("vision_offline", "layer", "trafficsim.step", "ms"),
    "trafficsim.render_ms": ("vision_offline", "layer", "trafficsim.render", "ms"),
    "segment.ingest_ms": ("vision_offline", "layer", "segment.ingest", "ms"),
    "segment.refine_ms": ("vision_offline", "layer", "segment.refine", "ms"),
    "segment.blobs_per_frame": ("vision_offline", "mean", "segment.blobs_per_frame", "count"),
    "track.observe_ms": ("vision_offline", "layer", "track.observe", "ms"),
    "track.tracks": ("vision_offline", "mean", "track.tracks", "count"),
    "event.extract_ms": ("vision_offline", "layer", "event.extract", "ms"),
    "mil.dataset_ms": ("vision_offline", "layer", "mil.dataset", "ms"),
    "mil.bags": ("vision_offline", "mean", "mil.bags", "count"),
    "mil.instances": ("vision_offline", "mean", "mil.instances", "count"),
    "eval.oracle_ms": ("vision_offline", "layer", "eval.oracle", "ms"),
    "db.extract_ms": ("session_interactive", "layer", "db.extract", "ms"),
    "serve.snapshot_ms": ("session_interactive", "layer", "serve.snapshot_cold", "ms"),
    "serve.snapshot_warm_ms": ("session_interactive", "layer", "serve.snapshot_warm", "ms"),
    "retrieval.open_ms": ("session_interactive", "layer", "retrieval.open", "ms"),
    "retrieval.feedback_ms": ("session_interactive", "layer", "retrieval.feedback", "ms"),
    "retrieval.topk_ms": ("session_interactive", "layer", "retrieval.topk", "ms"),
    "svm.smo_iters": ("session_interactive", "mean", "svm.smo_iters", "count"),
    "svm.support_vectors": ("session_interactive", "mean", "svm.support_vectors", "count"),
    "svm.training_size": ("session_interactive", "mean", "svm.training_size", "count"),
    "svm.cache_hit_ratio": ("session_interactive", "mean", "svm.cache_hit_ratio", "ratio"),
    "svm.learn_ms": ("session_interactive", "mean", "svm.learn_ms", "ms"),
    "serve.parse_ms": ("session_interactive", "layer", "serve.parse", "ms"),
    "serve.handle_ms": ("session_interactive", "layer", "serve.handle", "ms"),
    "serve.transport_ms": ("session_interactive", "mean", "serve.transport_ms", "ms"),
    "serve.queue_ms": ("session_interactive", "mean", "serve.queue_ms", "ms"),
    "serve.corpus_ms": ("session_interactive", "mean", "serve.corpus_ms", "ms"),
    "serve.rank_ms": ("session_interactive", "mean", "serve.rank_ms", "ms"),
    "serve.serialize_ms": ("session_interactive", "mean", "serve.serialize_ms", "ms"),
    "ingest.observe_ms": ("ingest_live", "layer", "ingest.observe", "ms"),
    "ingest.late_observations": ("ingest_live", "sum", "ingest.late_observations", "count"),
    "ingest.cut_ms": ("ingest_live", "layer", "ingest.cut", "ms"),
    "serve.publish_ms": ("ingest_live", "layer", "serve.publish", "ms"),
    "serve.refresh_ms": ("ingest_live", "layer", "serve.refresh", "ms"),
    "db.bytes_written_per_clip": ("ingest_live", "mean", "db.bytes_written_per_clip", "bytes"),
    "cluster.merge_ms": ("fleet_multicam", "layer", "cluster.merge", "ms"),
    "cluster.hop_ms": ("fleet_multicam", "mean", "cluster.hop_ms", "ms"),
    "cluster.worker_skew_ms": ("fleet_multicam", "mean", "cluster.worker_skew_ms", "ms"),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def say(*args):
    print(*args, flush=True)


def build():
    """Configures and builds the harness and mivid_cli from source."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "e2e_harness",
         "mivid_cli"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return False
    return True


def harness_path():
    return os.path.join(BUILD_DIR, "e2e_harness")


def probe_ms(threads, cpus=None):
    """Wall time of the harness's fixed CPU loop on `threads` threads,
    optionally confined to the CPU set `cpus`."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    out = subprocess.run([harness_path(), "--probe", str(threads)],
                         stdout=subprocess.PIPE, text=True, timeout=60,
                         preexec_fn=pin)
    return json.loads(out.stdout)["wall_ms"]


def core_probe():
    """Effective cores: nproc * (1-thread wall / nproc-thread wall) of the
    same fixed CPU loop per thread, and the loop's time on each CPU."""
    nproc = os.cpu_count() or 1
    one = probe_ms(1)
    many = probe_ms(nproc)
    per_cpu = {cpu: round(probe_ms(1, {cpu}), 3)
               for cpu in sorted(os.sched_getaffinity(0))}
    return {"nproc": nproc, "one_thread_ms": round(one, 3),
            "nproc_threads_ms": round(many, 3),
            "effective_cores": round(nproc * one / many, 3),
            "per_cpu_ms": per_cpu}


def filesystem_of(path):
    """Filesystem type of the mount that holds `path`."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def run_harness(args, work_dir, trace, context):
    cmd = [harness_path(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--cli",
           os.path.join(BUILD_DIR, "mivid_cli"), "--work-dir", work_dir]
    if trace:
        cmd.append("--trace")
    # Own process group: on a timeout the harness and every daemon it
    # started are killed together, then reaped. All of them share one
    # CPU, so a request hand-off between client and daemon never waits
    # for another CPU to wake up (see README.md, "Steadiness"): the CPU
    # that ran the probe loop fastest just now, since virtual CPUs whose
    # host core is shared with a busy neighbour run at half speed.
    per_cpu = context["cores"]["per_cpu_ms"]
    cpu = min(per_cpu, key=per_cpu.get)
    context["pinned_cpu"] = cpu
    # The daemons journal every feedback round to disk: start each run
    # with no dirty pages left over from the one before, which otherwise
    # slowed each following run by 5-10%.
    os.sync()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = [l for l in stdout.splitlines() if l.strip()]
    raw = json.loads(lines[-1]) if lines else None
    return proc.returncode, raw


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    """The workload's end-to-end metrics, plus the workload-specific
    names printed in the report."""
    latency = raw["latency_ms"]
    ap, acc = m.quality_from_sessions(raw["quality"])
    out = {
        "setup_s": metric(m.percentile(raw["setup_s"], 50), "s"),
        "throughput_per_s": metric(raw["work_units"] / raw["timed_wall_s"], "1/s"),
        "latency_ms_p50": metric(m.percentile(latency, 50), "ms"),
        "latency_ms_p90": metric(m.percentile(latency, 90), "ms"),
        "ap": metric(ap, "ratio"),
        "acc20_norm": metric(acc, "ratio"),
        "ok_rate": metric(m.ok_rate(raw["ok"], raw["attempted"]), "ratio"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
    }
    op = raw["latency_op"]
    named = {op + "_p50": out["latency_ms_p50"], op + "_p90": out["latency_ms_p90"]}
    if "open_ms" in raw:
        named["open_ms_p50"] = metric(m.percentile(raw["open_ms"], 50), "ms")
    return out, named


def print_end_to_end(raw, metrics, named, context):
    n = len(raw["latency_ms"])
    top = m.highest_supported_percentile(n)
    say("workload %s seed %s: %d %s in %.3f s (fixed work)" % (
        raw["workload"], raw["seed"], raw["work_units"], raw["work_unit"],
        raw["timed_wall_s"]))
    rows = [(k, v) for k, v in metrics.items()]
    rows += [(k, v) for k, v in named.items() if k not in metrics]
    for name, mv in rows:
        say("  %-22s %14.6f %s" % (name, mv["value"], mv["unit"]))
    if top is not None:
        say("  %s: %d samples; highest supported percentile p%g = %.6f ms" % (
            raw["latency_op"], n, top, m.percentile(raw["latency_ms"], top)))
    say("  checks: %s" % json.dumps(raw["checks"]))
    say("  context (not compared): %s" % json.dumps(context))


def per_layer(raw):
    traces = {k[len("trace."):]: v for k, v in raw.items() if k.startswith("trace.")}
    out = {}
    for name, (workload, kind, source, unit) in PER_LAYER.items():
        spans = traces[workload]["spans"]
        if kind == "layer":
            layer = spans["layers"].get(source, {"total_ms": 0.0, "calls": 0})
            value = layer["total_ms"] / layer["calls"] if layer["calls"] else 0.0
        else:
            c = spans["counters"].get(source, {"sum": 0.0, "n": 0})
            if kind == "sum":
                value = c["sum"]
            else:
                value = c["sum"] / c["n"] if c["n"] else 0.0
        out[name] = metric(value, unit)
    for workload, t in traces.items():
        spans = t["spans"]
        wall = spans["wall_ms"]
        named = sum(l["self_ms"] for n, l in spans["layers"].items() if n != workload)
        out[workload + ".attributed_share"] = metric(named / wall, "ratio")
        out[workload + ".trace_overhead"] = metric(wall / t["untraced_wall_ms"], "ratio")
    return out, traces


def print_attribution(traces):
    for workload, t in traces.items():
        spans = t["spans"]
        wall = spans["wall_ms"]
        layers = sorted(((n, l) for n, l in spans["layers"].items() if n != workload),
                        key=lambda x: -x[1]["self_ms"])
        named = sum(l["self_ms"] for _, l in layers)
        say("traced %s: wall %.3f ms, untraced %.3f ms, overhead x%.4f" % (
            workload, wall, t["untraced_wall_ms"], wall / t["untraced_wall_ms"]))
        say("  %-24s %12s %8s %10s" % ("layer", "self_ms", "share", "calls"))
        for name, l in layers:
            say("  %-24s %12.3f %7.2f%% %10d" % (name, l["self_ms"],
                                                 100 * l["self_ms"] / wall, l["calls"]))
        say("  %-24s %12.3f %7.2f%%" % ("(unattributed)", wall - named,
                                         100 * (wall - named) / wall))
        say("  attributed_share %.4f" % (named / wall))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        context = {"cores": core_probe(), "filesystem": filesystem_of(work_dir)}
        rc, raw = run_harness(args, work_dir, args.trace == 1, context)
    except (subprocess.TimeoutExpired, ValueError) as err:
        log("harness failed:", err)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if raw is None or rc not in (0, 3):
        log("harness exited with code %d" % rc)
        return 1

    if args.trace == 1:
        metrics, traces = per_layer(raw)
        print_attribution(traces)
        attempted, failed = len(traces), 0
        correct = True
    else:
        metrics, named = end_to_end(raw)
        context["generator_cpu_s"] = raw["generator_cpu_s"]
        print_end_to_end(raw, metrics, named, context)
        attempted = raw["attempted"]
        failed = raw["attempted"] - raw["ok"]
        correct = rc == 0 and all(raw["checks"].values())
    if args.trace == 1:
        say("context (not compared): %s" % json.dumps(context))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
