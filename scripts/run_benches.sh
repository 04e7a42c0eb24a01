#!/usr/bin/env bash
# Runs every bench binary under build/bench and emits, per bench:
#   <outdir>/<bench>.json — google-benchmark JSON (perf trajectory)
#   <outdir>/<bench>.txt  — the figure/table reproduction text
# plus a combined <outdir>/manifest.json recording per-bench status.
#
# Fails loudly (nonzero exit) when no bench binaries exist, when any bench
# crashes or exits nonzero, or when a bench fails to produce its JSON —
# a silently-skipped bench must never look like a green run.
#
# The manifest picks up every bench/bench_*.cpp binary automatically;
# that includes bench_smr_throughput (SMR window × batch sweep — its
# default run prints the table and JSON; the nightly smr-smoke job runs
# it separately with --smoke-bound-x=5 as a regression gate).
#
# usage: scripts/run_benches.sh [outdir] [build-dir]
set -euo pipefail

outdir="${1:-bench-results}"
builddir="${2:-build}"

if ! compgen -G "${builddir}/bench/bench_*" >/dev/null; then
  echo "error: no bench binaries under ${builddir}/bench — build first:" >&2
  echo "  cmake -B ${builddir} -S . && cmake --build ${builddir} -j" >&2
  exit 1
fi

mkdir -p "${outdir}"
manifest="${outdir}/manifest.json"

status=0
ran=0
failed=0
entries=""
for bench in "${builddir}"/bench/bench_*; do
  if [ ! -x "${bench}" ]; then
    echo "error: ${bench} exists but is not executable" >&2
    status=1
    continue
  fi
  name="$(basename "${bench}")"
  echo "== ${name}"
  bench_status="ok"
  exit_code=0
  "${bench}" \
      --benchmark_out="${outdir}/${name}.json" \
      --benchmark_out_format=json \
      >"${outdir}/${name}.txt" 2>&1 || exit_code=$?
  if [ "${exit_code}" -ne 0 ]; then
    bench_status="failed"
    echo "   FAILED exit=${exit_code} (see ${outdir}/${name}.txt)" >&2
    status=1
    failed=$((failed + 1))
  elif [ ! -s "${outdir}/${name}.json" ]; then
    bench_status="no-json"
    echo "   FAILED: produced no JSON output" >&2
    status=1
    failed=$((failed + 1))
  fi
  ran=$((ran + 1))
  [ -n "${entries}" ] && entries="${entries},"
  entries="${entries}
    {\"name\": \"${name}\", \"status\": \"${bench_status}\", \
\"exit_code\": ${exit_code}, \"json\": \"${name}.json\", \
\"txt\": \"${name}.txt\"}"
done

# Machine-readable summaries; the repo keeps a committed copy of each at
# its root as a baseline, and CI's gcc leg checks they are current:
#   BENCH_smr.json      committed-commands/sec plus checkpoint and
#                       WAL-recovery timings (the durability baseline);
#   BENCH_reads.json    served ops/sec across read ratio x consistency
#                       for the n=4 and n=32 fleets, plus the write-path
#                       digest pin (CI gates linearizable reads at ratio
#                       0.99 >= 5x all-writes via --smoke).
for summary in smr:bench_smr_throughput reads:bench_reads; do
  json="BENCH_${summary%%:*}.json"
  bin="${summary#*:}"
  [ -x "${builddir}/bench/${bin}" ] || continue
  echo "== ${json}"
  if ! "${builddir}/bench/${bin}" --emit-json="${outdir}/${json}"; then
    echo "   FAILED: ${bin} --emit-json" >&2
    status=1
    failed=$((failed + 1))
  fi
done

# Provenance: pin the manifest to the exact tree and wall-clock moment
# the numbers came from, so archived bench-results stay comparable.
git_sha="$(git -C "$(dirname "$0")/.." rev-parse HEAD 2>/dev/null || echo unknown)"
generated_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

cat >"${manifest}" <<EOF
{
  "git_sha": "${git_sha}",
  "generated_utc": "${generated_utc}",
  "benches_run": ${ran},
  "benches_failed": ${failed},
  "ok": $([ "${status}" -eq 0 ] && echo true || echo false),
  "benches": [${entries}
  ]
}
EOF

echo "wrote $(ls "${outdir}"/*.json 2>/dev/null | wc -l) JSON files to ${outdir}/ (manifest: ${manifest})"
if [ "${status}" -ne 0 ]; then
  echo "error: ${failed} bench(es) failed" >&2
fi
exit "${status}"
