# lib_e2e.sh — shared harness for the e2e scripts. Source this FIRST,
# before booting any server process: it creates the scratch directory and
# installs the cleanup trap immediately, so a failed assertion anywhere in
# the sourcing script can never leak an auditd process or scratch files.
#
#   source "$(dirname "$0")/lib_e2e.sh"
#   ... build fixture under "$E2E_WORK" ...
#   some-server -addr ... &
#   e2e_register_pid $!
#   e2e_wait_healthy "http://127.0.0.1:8080" some-server
#
# Requires bash and curl.

E2E_WORK="$(mktemp -d)"
E2E_PIDS=()

e2e_cleanup() {
    local pid
    for pid in ${E2E_PIDS[@]+"${E2E_PIDS[@]}"}; do
        kill "$pid" 2>/dev/null || true
    done
    # A killed auditd drains and writes its final monitor state on the
    # way out; removing the scratch tree under it races those writes.
    for pid in ${E2E_PIDS[@]+"${E2E_PIDS[@]}"}; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$E2E_WORK"
}
trap e2e_cleanup EXIT

# e2e_register_pid PID — ensure the process is killed on exit.
e2e_register_pid() {
    E2E_PIDS+=("$1")
}

# e2e_wait_healthy BASE_URL [NAME] — poll GET /healthz for up to 10s.
e2e_wait_healthy() {
    local base="$1" name="${2:-server}" i
    for i in $(seq 1 50); do
        curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "e2e: $name never became healthy on $base" >&2
    return 1
}
