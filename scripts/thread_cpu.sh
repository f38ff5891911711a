#!/usr/bin/env bash
# Per-thread CPU census of a command and every process it starts.
#
#   scripts/thread_cpu.sh <command...>
#
# Runs the command and, every 50 ms until it exits, reads
# /proc/<pid>/task/*/{stat,status} for each process of its tree. A
# thread's last sample is its total, so up to its last 50 ms of CPU is
# not counted and a thread that lives less than 50 ms may be missed. The
# table printed after the command's own output has one row per thread
# class: the threads seen (a command that starts a process per round,
# as the benchmark does, counts each round's), CPU seconds (user +
# system), share of the tree's CPU, and voluntary and involuntary
# context switches. An RPC
# worker `worker-<node>-<i>` counts under `worker-<node>`; every other
# name drops its trailing digits (`producer-req-3` -> `producer-req`).
# Exits with the command's status. Linux only.
set -uo pipefail

if [[ $# -eq 0 ]]; then
    echo "usage: $0 <command...>" >&2
    exit 2
fi

samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

"$@" &
root=$!

# The pids of root's tree, from the parent field of every /proc/<pid>/stat
# (`cat` rather than awk's own file list: a process may exit mid-read).
tree() {
    cat /proc/[0-9]*/stat 2>/dev/null | awk -v root="$root" '
        { s = $0; sub(/.*\) /, "", s); split(s, f, " "); parent[$1] = f[2] }
        END {
            queue[0] = root; n = 1
            for (i = 0; i < n; i++)
                for (c in parent) if (parent[c] == queue[i]) queue[n++] = c
            for (i = 0; i < n; i++) printf "%s ", queue[i]
        }'
}

# One line per thread: tid and start time (the key), name, CPU ticks,
# voluntary and involuntary switches. A task's stat line carries its tid,
# name, ticks and start time; its status its tid (`Pid:`) and switches.
sample() {
    local stats=() p
    for p in $(tree); do
        stats+=("/proc/$p/task/"*/stat)
    done
    { cat "${stats[@]}"; cat "${stats[@]/%stat/status}"; } 2>/dev/null | awk '
        /^[0-9]+ \(/ {
            tid = $1; lp = index($0, "("); rp = length($0)
            while (substr($0, rp, 1) != ")") rp--
            name[tid] = substr($0, lp + 1, rp - lp - 1)
            split(substr($0, rp + 2), f, " ")
            ticks[tid] = f[12] + f[13]; start[tid] = f[20]
        }
        /^Pid:/ { tid = $2 }
        /^voluntary_ctxt_switches:/ { vol[tid] = $2 }
        /^nonvoluntary_ctxt_switches:/ { invol[tid] = $2 }
        END {
            for (t in ticks) if (t in invol)
                printf "%s/%s\t%s\t%d\t%d\t%d\n", t, start[t], name[t], ticks[t], vol[t], invol[t]
        }' >>"$samples"
}

while kill -0 "$root" 2>/dev/null; do
    sample
    sleep 0.05
done
wait "$root"
status=$?

# The last sample of each thread, summed per class, by CPU.
awk -F '\t' -v hz="$(getconf CLK_TCK)" '
    { last[$1] = $0 }
    END {
        for (k in last) {
            split(last[k], r, "\t")
            class = r[2]
            if (class ~ /^worker-[0-9]+-[0-9]+$/) sub(/-[0-9]+$/, "", class)
            else sub(/[-_0-9]+$/, "", class)
            threads[class]++; cpu[class] += r[3]; vol[class] += r[4]; invol[class] += r[5]
            total += r[3]
        }
        for (c in cpu)
            printf "%-18s %7d %9.2f %5.1f%% %12d %12d\n", c, threads[c], cpu[c] / hz,
                total ? 100 * cpu[c] / total : 0, vol[c], invol[c]
    }' "$samples" | sort -k3,3nr | {
    printf "\n%-18s %7s %9s %6s %12s %12s\n" "thread class" threads cpu_s share voluntary involuntary
    cat
}
exit "$status"
