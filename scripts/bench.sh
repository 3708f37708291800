#!/usr/bin/env bash
# Regenerates BENCH_sim.json: the benchmark module's end-to-end set
# (sim req/s, peak RSS, set-up time and allocations per request, with its
# run manifest), kernel micro-benchmarks (ns/op, allocs/op), per-exhibit
# regeneration cost, windbench serial-vs-parallel wall clock, and the
# ext-fleet-scale shard sweep. Run from anywhere in the repo:
#
#   scripts/bench.sh [--smoke] [output.json]
#
# --smoke shrinks every run (one benchmark repetition, no per-exhibit
# benchmarks) so the whole script finishes in CI minutes while still
# writing a JSON with the full schema — the bench-sanity job runs it and
# checks the fields. Smoke numbers are not representative; the default
# output then becomes BENCH_sim.smoke.json so the committed capture is
# never clobbered.
#
# The committed BENCH_sim.json was produced by this script; the host's
# core count is recorded alongside the numbers, since the parallel
# speedups are bounded by it (on a 1-core host serial == parallel).
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
if [[ "${1:-}" == "--smoke" ]]; then
    smoke=1
    shift
fi
if [[ $smoke -eq 1 ]]; then
    out=${1:-BENCH_sim.smoke.json}
else
    out=${1:-BENCH_sim.json}
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Smoke sizes: enough work for every parser below to find rows, small
# enough for CI. The full capture uses the harness's and exhibits'
# defaults.
benchtime=1s
all_n=300
bench_args=()
scale_args=(ext-fleet-scale)
if [[ $smoke -eq 1 ]]; then
    benchtime=100x
    all_n=120
    bench_args=(-reps 1)
    scale_args=(-n 20000 ext-fleet-scale)
fi

echo "== end-to-end benchmark set (benchmark/run.sh) ==" >&2
bash benchmark/run.sh -out "$tmp/benchmark.json" "${bench_args[@]}" >&2

echo "== micro-benchmarks (sim, engine, metrics, perf, stats) ==" >&2
go test -run '^$' -bench 'SimulatorScheduleFire|Summarize|OpenIDs|IterTime|EventQueue|ServeSteady|DecodePass|P2Add|PercentilesOf' \
    -benchmem -benchtime "$benchtime" ./internal/sim ./internal/engine ./internal/metrics ./internal/perf ./internal/stats \
    | tee "$tmp/micro.txt" >&2

if [[ $smoke -eq 1 ]]; then
    echo "== exhibit benchmarks skipped (--smoke) ==" >&2
    : > "$tmp/exhibit.txt"
else
    echo "== exhibit benchmarks (one full regeneration each) ==" >&2
    go test -run '^$' -bench . -benchmem -benchtime 2x . | tee "$tmp/exhibit.txt" >&2
fi

echo "== windbench wall clock: serial vs parallel ==" >&2
go build -o "$tmp/windbench" ./cmd/windbench
t0=$(date +%s.%N)
"$tmp/windbench" -n "$all_n" -parallel 1 all > "$tmp/serial.txt"
t1=$(date +%s.%N)
"$tmp/windbench" -n "$all_n" all > "$tmp/parallel.txt"
t2=$(date +%s.%N)
cmp "$tmp/serial.txt" "$tmp/parallel.txt" \
    || { echo "bench.sh: parallel output differs from serial" >&2; exit 1; }
serial=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
parallel=$(echo "$t2 $t1" | awk '{printf "%.3f", $1 - $2}')
echo "serial ${serial}s  parallel ${parallel}s  ($(nproc) cores)" >&2

echo "== ext-fleet-scale: 64-replica fleet across shard counts ==" >&2
"$tmp/windbench" "${scale_args[@]}" | tee "$tmp/scale.txt" >&2
grep -q "byte-identical virtual-time results" "$tmp/scale.txt" \
    || { echo "bench.sh: sharded fleet results diverged" >&2; exit 1; }

# Physical core count from the host, not Python's os.cpu_count(): under a
# container cpuset/affinity mask the latter reports the mask width (often
# 1), which misdocuments the machine the numbers came from. gomaxprocs is
# what the Go scheduler actually got — the bound on any within-run
# (shards) or across-run (-parallel) speedup measured above. The embedded
# benchmark manifest records its own nproc and gomaxprocs.
host_cores=$(nproc --all 2>/dev/null || getconf _NPROCESSORS_CONF)
gomaxprocs=${GOMAXPROCS:-$(nproc)}

TMP="$tmp" SERIAL="$serial" PARALLEL="$parallel" ALL_N="$all_n" OUT="$out" \
HOST_CORES="$host_cores" GOMAXPROCS_USED="$gomaxprocs" SMOKE="$smoke" \
python3 - <<'EOF'
import json, os, re

tmp = os.environ["TMP"]

def parse(path):
    rows = []
    for line in open(path):
        m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op'
                     r'(?:\s+([\d.]+) B/op\s+(\d+) allocs/op)?', line)
        if not m:
            continue
        row = {"name": m.group(1), "iterations": int(m.group(2)),
               "ns_per_op": float(m.group(3))}
        if m.group(5) is not None:
            row["bytes_per_op"] = float(m.group(4))
            row["allocs_per_op"] = int(m.group(5))
        rows.append(row)
    return rows

def parse_scale(path):
    rows = []
    for line in open(path):
        m = re.match(r'^(\d+)\s+([\d.]+)\s+(\d+)\s+([\d.]+)x\s+(\d+)\s+(\d+)'
                     r'\s+([0-9a-f]+)\s+(\d+)\s+(\d+)\s*$', line)
        if not m:
            continue
        rows.append({
            "shards": int(m.group(1)),
            "wall_seconds": float(m.group(2)),
            "sim_req_per_sec": int(m.group(3)),
            "speedup": float(m.group(4)),
            "windows": int(m.group(5)),
            "crossings": int(m.group(6)),
            "result_digest": m.group(7),
            "completed": int(m.group(8)),
            "unfinished": int(m.group(9)),
        })
    return rows

micro = parse(f"{tmp}/micro.txt")
ns = {r["name"]: r["ns_per_op"] for r in micro}
heap_ns = ns.get("BenchmarkEventQueueHeap10k")
cal_ns = ns.get("BenchmarkEventQueueCalendar10k")

serial = float(os.environ["SERIAL"])
parallel = float(os.environ["PARALLEL"])
gomaxprocs = int(os.environ["GOMAXPROCS_USED"])

doc = {
    "description": "Simulation-kernel benchmarks; regenerate with scripts/bench.sh",
    "smoke": os.environ["SMOKE"] == "1",
    "host_cores": int(os.environ["HOST_CORES"]),
    "gomaxprocs": gomaxprocs,
    "benchmark": json.load(open(f"{tmp}/benchmark.json")),
    "micro": micro,
    "event_queue_10k": {
        "heap_ns_per_op": heap_ns,
        "calendar_ns_per_op": cal_ns,
        "speedup": round(heap_ns / cal_ns, 2) if heap_ns and cal_ns else None,
        "note": "hold model with 10k pending events; the calendar queue's "
                "O(1) expected schedule/fire replaces the binary heap's "
                "O(log n) sift",
    },
    "ext_fleet_scale": {
        "args": "ext-fleet-scale (64 replicas, 1,000,000 streamed requests, "
                "least-loaded, shards in {1, 4, 8, NumCPU})",
        "rows": parse_scale(f"{tmp}/scale.txt"),
        "note": "wall_seconds/sim_req_per_sec/speedup are host measurements; "
                "result_digest fingerprints the virtual-time Result and is "
                "identical across rows (sharded == sequential, byte for "
                "byte). Speedup is bounded by min(shards, gomaxprocs); "
                f"this capture ran with gomaxprocs={gomaxprocs}.",
    },
    "exhibits": parse(f"{tmp}/exhibit.txt"),
    "windbench_all": {
        "args": f"-n {os.environ['ALL_N']} all",
        "serial_seconds": serial,
        "parallel_seconds": parallel,
        "speedup": round(serial / parallel, 3) if parallel else None,
        "note": "speedup is bounded by gomaxprocs; on a 1-core host the "
                "pool degenerates to the serial loop and speedup ~= 1",
    },
}
with open(os.environ["OUT"], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f'wrote {os.environ["OUT"]}')
EOF
