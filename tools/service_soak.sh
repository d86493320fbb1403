#!/usr/bin/env bash
# Service soak driver: start gfp-serve on a unix socket, run the
# gfp-loadgen scenarios of docs/PERFORMANCE.md "Serving" (closed-loop
# saturation per class, mixed verify, Gilbert-Elliott burst overload),
# then gate on the service invariants:
#
#   - gfp-serve exits 0 (its own accounting invariant held at drain),
#   - every loadgen run exits 0 (zero verification failures; the
#     --stats runs re-check the request/response accounting equations),
#   - the final metrics document reports zero protocol errors,
#   - for rs_syndrome and aes_ctr_block, served throughput reaches the
#     gate share (default 0.8) of the direct rate: the same request
#     pool run by one thread on an in-process EngineSet, whole requests
#     through runHop() as a server worker runs them (gfp-loadgen
#     --direct 1), measured in this run, back to back with the served
#     one.
#
# Artifacts land in OUT_DIR: per-scenario loadgen JSON (served and
# direct), the combined server metrics JSON (service counters + latency
# histograms + all nine engine registries), and a Chrome trace of the
# saturated run, plus a BENCH_service.json summary (a list of
# {name, value, unit} metrics).
#
# Usage: tools/service_soak.sh [BUILD_DIR] [OUT_DIR] [DURATION_S]
set -eu

build="${1:-build}"
out="${2:-service-artifacts}"
dur="${3:-6}"

serve="$build/tools/gfp-serve"
loadgen="$build/tools/gfp-loadgen"
for bin in "$serve" "$loadgen"; do
    if [ ! -x "$bin" ]; then
        echo "service_soak: missing $bin (build the gfp-serve and" \
            "gfp-loadgen targets first)" >&2
        exit 2
    fi
done

mkdir -p "$out"
sock="$out/soak.sock"
rm -f "$sock"

# Wait until the server binds its socket.
await_sock() {
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && return 0
        sleep 0.1
    done
    echo "service_soak: server never bound $sock" >&2
    exit 1
}

# Phase 1 — throughput gates, untraced: per-request trace recording
# costs real CPU on a saturated single-core box and would understate
# the serving headroom the gate measures.
"$serve" --unix "$sock" --threads 1 --dispatch translated \
    --metrics "$out/METRICS_service.json" -q &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
await_sock

# Gated closed-loop scenarios run best-of-3 pairs: each attempt
# measures the direct rate (gfp-loadgen --direct 1, one thread like
# the server's one worker at --threads 1) and then the served rate,
# back to back, so drift on a shared host moves both.  The box is shared with
# the load generator itself, so single runs carry several percent of
# scheduler noise.  Stop early once a pair clears the gate; keep the
# best pair's JSON either way.  The hard >=GFP_SOAK_GATE check happens
# in the summary step below.
gate="${GFP_SOAK_GATE:-0.80}"

rate_of() {
    python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["throughput_ok_rps"])' "$1"
}

run_gated() {
    class="$1"; seed="$2"
    json="$out/LOADGEN_$1.json"; direct_json="$out/DIRECT_$1.json"
    best=""
    for attempt in 1 2 3; do
        echo "== direct closed loop: $class (attempt $attempt) =="
        "$loadgen" --direct 1 --class "$class" --closed-loop 512 \
            --duration "$dur" --seed "$seed" --verify \
            --json "$direct_json.try"
        echo "== closed-loop saturation: $class (attempt $attempt) =="
        "$loadgen" --unix "$sock" --class "$class" --closed-loop 512 \
            --duration "$dur" --seed "$seed" --stats \
            --json "$json.try"
        served=$(rate_of "$json.try")
        direct=$(rate_of "$direct_json.try")
        ratio=$(python3 -c "print($served / $direct)")
        echo "served_over_direct = $ratio"
        if [ -z "$best" ] || \
           [ "$(python3 -c "print(1 if $ratio > $best else 0)")" = 1 ]; then
            best="$ratio"
            mv "$json.try" "$json"
            mv "$direct_json.try" "$direct_json"
        else
            rm -f "$json.try" "$direct_json.try"
        fi
        if [ "$(python3 -c "print(1 if $best >= $gate else 0)")" = 1 ]; then
            break
        fi
    done
}

run_gated rs_syndrome 1
run_gated aes_ctr_block 2

echo "== mixed classes, every response verified bit-for-bit =="
"$loadgen" --unix "$sock" --class mix --closed-loop 128 \
    --duration "$dur" --seed 3 --verify --stats \
    --json "$out/LOADGEN_mix_verify.json"

echo "== Gilbert-Elliott bursty overload (expect busy rejections) =="
"$loadgen" --unix "$sock" --class rs_syndrome \
    --ge 1.0,0.2,2000,120000 --duration 4 --seed 4 --stats \
    --json "$out/LOADGEN_ge_burst.json"

# Graceful drain; exit 0 == the server's own accounting held.
kill -TERM "$serve_pid"
wait "$serve_pid"

# Phase 2 — a short saturated run with per-request Chrome tracing: the
# trace artifact shows request spans (pid 3) and the request-queue
# depth counter under real overload.
rm -f "$sock"
"$serve" --unix "$sock" --threads 1 --dispatch translated \
    --trace "$out/TRACE_service.json" -q &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
await_sock
echo "== traced saturated segment (mix, closed-loop) =="
"$loadgen" --unix "$sock" --class mix --closed-loop 256 --duration 2 \
    --seed 5 -q --json "$out/LOADGEN_traced_segment.json"
kill -TERM "$serve_pid"
wait "$serve_pid"
trap - EXIT

# Zero protocol errors across the whole soak.
proto=$(grep -o '"protocol_errors_total": [0-9.]*' \
    "$out/METRICS_service.json" | grep -o '[0-9.]*$' || echo 0)
if [ -n "$proto" ] && [ "${proto%%.*}" != "0" ]; then
    echo "service_soak: $proto protocol errors recorded" >&2
    exit 1
fi

# Summarise (throughput + latency per scenario, plus the
# served-over-direct ratio of each gated class's best pair).
python3 - "$out" "$gate" <<'PY'
import json, os, sys
out, gate = sys.argv[1], float(sys.argv[2])
doc = {"bench": "service_soak", "schema": 1, "metrics": []}

def add(name, value, unit=""):
    doc["metrics"].append({"name": name, "value": value, "unit": unit})

for scen in ("rs_syndrome", "aes_ctr_block", "mix_verify", "ge_burst"):
    path = os.path.join(out, f"LOADGEN_{scen}.json")
    with open(path) as f:
        r = json.load(f)
    add(f"{scen}.throughput_ok_rps", r["throughput_ok_rps"], "req/sec")
    add(f"{scen}.completed", r["completed"], "requests")
    add(f"{scen}.rejected_busy", r["rejected"], "requests")
    add(f"{scen}.verify_failures", r["verify_failures"], "requests")
    lat = r["latency_us"]
    for q in ("p50", "p99"):
        add(f"{scen}.latency_{q}_us", lat[q], "us")
    direct_path = os.path.join(out, f"DIRECT_{scen}.json")
    if os.path.exists(direct_path):
        with open(direct_path) as f:
            d = json.load(f)["throughput_ok_rps"]
        add(f"{scen}.direct_ok_rps", d, "req/sec")
        add(f"{scen}.served_over_direct", r["throughput_ok_rps"] / d,
            "fraction")

with open(os.path.join(out, "BENCH_service.json"), "w") as f:
    json.dump(doc, f, indent=1)
print("wrote", os.path.join(out, "BENCH_service.json"))
for m in doc["metrics"]:
    print(f"  {m['name']}: {round(m['value'], 3)} {m['unit']}")

# Hard gate: best-of-3 served throughput must reach >=gate of the
# direct rate measured beside it, for each gated class.
gated = [m for m in doc["metrics"]
         if m["name"].endswith(".served_over_direct")]
bad = [m for m in gated if m["value"] < gate]
for m in bad:
    print(f"service_soak: GATE FAILED {m['name']} ="
          f" {m['value']:.3f} < {gate}", file=sys.stderr)
if len(gated) != 2:
    print("service_soak: missing a direct measurement", file=sys.stderr)
sys.exit(1 if bad or len(gated) != 2 else 0)
PY

rm -f "$sock"
echo "service_soak: PASS (artifacts in $out)"
