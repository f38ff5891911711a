#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
# The SSE4.2 CRC32C kernel against the slice-by-8 tables, at the
# optimisation level the benchmark and the figures build with.
cargo test -q --release -p kera-common checksum
# Segment memory (2 MB-page mappings, the heap fallback, unmap on drop),
# likewise at the benchmark's optimisation level.
cargo test -q --release -p kera-storage
cargo clippy --workspace --all-targets -- -D warnings

# Concurrency/robustness analyzer: non-zero exit on any finding.
cargo run -q -p kera-lint

# One table of KERA_* variables: crates/common/src/knobs.rs is the only
# file under crates/ that reads the environment for one (the workspace
# pass above ran common/tests/knobs_documented.rs, which holds README.md and the
# other docs to the same table).
if grep -rnE 'env::var(_os)?\("KERA_|env::vars(_os)?\(' crates --include='*.rs' \
    | grep -v '^crates/common/src/knobs.rs:'; then
  echo "KERA_* variables are read through kera_common::knobs only" >&2
  exit 1
fi

# Frames are delivered on arrival: no transport grows a receive call
# back, and no thread is named for moving frames between queues. A TCP
# reader serves the requests it reads and answers them itself; in memory
# the sender's own stack delivers, and the workers serve.
if grep -rnE '^ *fn recv\(|"dispatch-' crates/rpc/src; then
  echo "kera-rpc: Transport has no recv and nodes have no dispatch thread" >&2
  exit 1
fi

# A TCP frame costs one syscall: prefix, header and payload go out in one
# vectored write, so nothing in the transport writes a part on its own
# (non-test lines: the file up to its first `#[cfg(test)]`, as in scripts/loc.sh).
if awk '/^#\[cfg\(test\)\]/{exit} /write_all\(/{print FILENAME":"FNR": "$0}' \
        crates/rpc/src/tcp.rs | grep .; then
  echo "kera-rpc: a TCP frame goes out in one vectored write, not in write_all calls" >&2
  exit 1
fi

# A TCP reader takes a burst in one read: whatever the socket holds goes
# into the connection's buffer, and every whole frame in it is delivered.
# Nothing reads a length prefix, or a body, on its own.
if awk '/^#\[cfg\(test\)\]/{exit} /read_exact\(/{print FILENAME":"FNR": "$0}' \
        crates/rpc/src/tcp.rs | grep .; then
  echo "kera-rpc: a TCP reader reads a burst at once, not a frame's parts in read_exact calls" >&2
  exit 1
fi

# No TCP write waits for ever: two readers writing to each other while
# neither reads would wedge both. Every outbound connection is dialled
# with a write timeout, and a write that times out retires it.
if ! grep -q 'set_write_timeout(Some(STALL))' crates/rpc/src/tcp.rs; then
  echo "kera-rpc: every TCP connection bounds how long a write waits (set_write_timeout)" >&2
  exit 1
fi

# No thread class stands between a produce and the backups: a round is
# sent by the worker that registered a request on its log or by the
# thread that landed the round before it, and nothing brings one back.
if grep -rnE '"repl-driver|ReplicationDriver' crates/*/src; then
  echo "kera-vlog: replication rounds have no thread of their own" >&2
  exit 1
fi

# A reply unparks its waiter: a pending call is a slot, not a channel,
# and each client's requests thread waits in one place, its park. The
# producer's two threads share one queue under one lock: no channel in
# front of the lanes, no wake-up flag beside them, no lock on the routes.
# The broker keeps no per-fetch state nothing reads. Nothing naps on the
# record path at all: not the clients, not the produce handler, not the
# backup's write handler, not a replication round (non-test lines: a
# file counts up to its first `#[cfg(test)]`, as in scripts/loc.sh).
# One retransmit engine: the node's timers drive every call, so a client
# keeps no clock for its calls and a `PendingCall` never sends. The
# producer's requests thread keeps no tick either: it sleeps until the
# earliest linger deadline of an open chunk, or until woken.
if grep -nE 'thread::sleep|fn idle' crates/client/src/producer.rs crates/client/src/consumer.rs \
    || awk '/^#\[cfg\(test\)\]/{exit} /let tick|linger\.max\(/{print FILENAME":"FNR": "$0}' \
        crates/client/src/producer.rs | grep . \
    || find crates/broker/src/broker.rs crates/broker/src/backup.rs crates/vlog/src -name '*.rs' \
        -exec awk '/^#\[cfg\(test\)\]/{nextfile} /thread::sleep/{print FILENAME":"FNR": "$0}' {} + \
        | grep . \
    || grep -nE 'crossbeam|listening|RwLock' crates/client/src/producer.rs \
    || grep -n 'bounded(1)' crates/rpc/src/node.rs \
    || grep -rn 'fetch_pos' crates/broker/src \
    || find crates/client/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /TIMER_CHECK|fn resolve|poll_wait/{print FILENAME":"FNR": "$0}' {} + | grep . \
    || awk '/^#\[cfg\(test\)\]/{exit} /Slot::Waited|fn transmit/{print FILENAME":"FNR": "$0}' \
        crates/rpc/src/node.rs | grep .; then
  echo "no per-call channel in kera-rpc; no nap, no tick, no second wait and no second queue in a client; no nap in broker.rs, backup.rs or kera-vlog; no fetch_pos; no call timer in a client and no second retransmit engine in kera-rpc" >&2
  exit 1
fi

# The long poll: a broker keeps a fetch that finds nothing durable until
# a produce makes data durable in one of its slots or FETCH_MAX_WAIT has
# passed, so an empty reply means the broker already waited, and a
# consumer's lane asks again at once: no idle pause in a client (non-test
# lines, as above). Both brokers park in the one kera-rpc purgatory: no
# broker-wide `landed` count (a fetch waits on its own slots' epochs) and
# no `struct Parked` outside crates/rpc/src/purgatory.rs.
if find crates/client/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /IDLE_BACKOFF/{print FILENAME":"FNR": "$0}' {} + | grep . \
    || grep -n 'landed' crates/broker/src/broker.rs crates/kafka-sim/src/broker.rs \
    || grep -rn --include='*.rs' 'struct Parked' crates src tests examples \
        | grep -v '^crates/rpc/src/purgatory.rs:'; then
  echo "the long poll: no idle pause after an empty fetch in a client; no landed in a broker.rs; no struct Parked outside crates/rpc/src/purgatory.rs" >&2
  exit 1
fi

# No admission plane: a broker answers every request it can decode, and
# a client re-sends only after an error, at once (non-test lines, as
# above).
if find crates/*/src src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /QuotaConfig|AdmissionControl|AdmissionPermit|KeraError::Throttled|KeraError::Rejected|KERA_QUOTA|broker\.quota|tenant_rates/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "no quota plane: no QuotaConfig, admission gate, Throttled/Rejected, KERA_QUOTA or tenant_rates" >&2
  exit 1
fi

# No spun cost model: a KerA backup pays for the segment files its flusher
# writes and syncs, a Kafka replica, leader or follower, for the appends
# to its partition files and their syncs at roll, not for a busy-wait, and
# the in-memory fabric adds no modelled latency or bandwidth (non-test
# lines, as above).
if find crates/*/src src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /spin_for_ns|NetworkModel|KERA_IO_COST_NS|IO_COST_NS|kera_common::timing/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "no spun cost model: no spin_for_ns, NetworkModel, KERA_IO_COST_NS or kera_common::timing" >&2
  exit 1
fi

# One writer: kera-storage opens every data file either system writes
# (DESIGN §1, the storage contract). A Kafka replica appends through its
# PartitionFile and a KerA backup hands closed segments to its
# DiskFlusher, so neither kafka-sim nor the broker crate touches the file
# system, and no second counter family counts writes (non-test lines, as
# above; tests.rs is a test module).
if find crates/kafka-sim/src crates/broker/src -name '*.rs' ! -name tests.rs \
        -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /std::fs|File::|OpenOptions/{print FILENAME":"FNR": "$0}' {} + \
        | grep . \
    || find crates/*/src src examples -name '*.rs' ! -name tests.rs \
        -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /kera\.kafka\.follower_write/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "one writer: no std::fs, File:: or OpenOptions in kafka-sim or broker; no kera.kafka.follower_write* counters" >&2
  exit 1
fi

# One span buffer: a node's slow traces are sampled from its lock-free
# flight-recorder ring when it is read, so no second span store and no
# lock on the span path (non-test lines, as above).
if find crates/*/src src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /SlowTraceStore|SlowSpan|slowtrace::|obs\.slowtrace/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "one span buffer: no SlowTraceStore, SlowSpan, slowtrace module or obs.slowtrace lock" >&2
  exit 1
fi

# A fresh chunk passes its slot's exactly-once check in one comparison:
# the replay window is kept in insertion order beside each producer's
# highest tag, and nothing is hashed per chunk — no map keyed by
# (producer, tag) in kera-storage (non-test lines, as above; the map the
# window is checked against lives in streamlet.rs's tests).
if find crates/storage/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /HashMap<\(ProducerId, *u64\)/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "kera-storage: the replay window hashes nothing; no HashMap keyed by (ProducerId, u64)" >&2
  exit 1
fi

# One delivery check: whatever reads records back holds them to
# kera_client::oracle (checksums, per-slot order, each record once), so
# no test or example keeps a hand-rolled copy of it — a `.dedup()` of a
# seen list, a `last_per_slot` map, a `vec![false; n]` seen table.
if grep -rnE '\.dedup\(\)|last_per_slot|vec!\[false;' tests crates/*/tests examples; then
  echo "delivery is checked by kera_client::oracle, not by a hand-rolled copy in a test or example" >&2
  exit 1
fi

# One copy per fetch: a fetch reply is packed straight from the log's
# memory (DESIGN §12), so no fetch path reads through a copying buffer —
# no `read_slot(` in KerA's broker, no `to_vec()` in kafka-sim's partition
# log (non-test lines, as above).
if awk '/^#\[cfg\(test\)\]/{exit} /read_slot\(/{print FILENAME":"FNR": "$0}' \
        crates/broker/src/broker.rs | grep . \
    || awk '/^#\[cfg\(test\)\]/{exit} /to_vec\(\)/{print FILENAME":"FNR": "$0}' \
        crates/kafka-sim/src/partition.rs | grep .; then
  echo "one copy per fetch: no read_slot( in broker/src/broker.rs, no to_vec() in kafka-sim/src/partition.rs" >&2
  exit 1
fi

# One chunk allocation path: a builder rearms on a fresh allocation and a
# packed chunk's allocation is freed with its last handle — no buffer
# pool, no reclaim hook in the bytes shim, no pool gauges or lock class
# (non-test lines, as above, vendored shims included).
if find crates/*/src crates/shims/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /BufferPool|PoolStats|with_pool|try_into_mut|kera\.client\.pool_|"wire\.pool"/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "one chunk allocation path: no BufferPool, PoolStats, with_pool, try_into_mut, kera.client.pool_* gauge or wire.pool lock" >&2
  exit 1
fi

# A node is held at the fabric (FaultPlan::hold), not in its handlers: no
# service carries a drill flag. And time passes on one queue per node: a
# parked Kafka request's expiry, a frame the fault plan delays and the
# coordinator's repush run on the node's own timers and workers — no delay
# line and no thread of their own (non-test lines, as above).
if grep -rnE 'frozen|fn freeze|fn thaw' crates/broker/src \
    || find crates/*/src src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /DelayLine|mod delay|"faults-delay|purgatory-\{|coord-repush/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "no freeze/thaw hook in a service; one timer queue per node: no DelayLine, faults-delay, purgatory- or coord-repush thread" >&2
  exit 1
fi

# A Kafka broker is one node whose handlers never park a worker: a produce
# and a follower fetch wait in the store's purgatory, not on a condvar,
# and no replica service stands beside the broker (non-test lines, as
# above; tests.rs is a test module). The harness passes KafkaTuning's
# defaults, not a copy of one.
if find crates/kafka-sim/src -name '*.rs' ! -name tests.rs -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /Condvar|wait_for|wait_hw|replica_node|KafkaReplicaService/{print FILENAME":"FNR": "$0}' {} + \
        | grep . \
    || grep -rn KAFKA_FETCH_WAIT crates/harness/src; then
  echo "kafka-sim: no handler parks a worker and a broker is one node; no KAFKA_FETCH_WAIT" >&2
  exit 1
fi

# One cluster skeleton: KerA and Kafka boot every node through
# kera_rpc::Fabric, which owns the network, the node ids, the node
# registry and the teardown order, so neither cluster registers or starts
# a node itself; the harness drives either system through its fabric,
# with no dispatch enum (non-test lines, as above; tests.rs is a test
# module).
if find crates/broker/src crates/kafka-sim/src crates/harness/src -name '*.rs' ! -name tests.rs \
        -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /NodeRuntime::start_with_obs|net\.register\(/{print FILENAME":"FNR": "$0}' {} + \
        | grep . \
    || grep -rnE 'enum Cluster\b' crates/harness/src; then
  echo "one cluster skeleton: nodes boot through kera_rpc::Fabric; no enum Cluster in the harness" >&2
  exit 1
fi

# KerA's produce never parks a worker either: a replicated produce waits
# as a kept Reply on its virtual logs, and the thread that lands the last
# round it waits for answers it. No condvar or timed wait in kera-vlog,
# no blocking collector of acks, no round a worker finishes, no `sync`
# (non-test lines, as above).
if find crates/vlog/src crates/broker/src/broker.rs crates/broker/src/channel.rs -name '*.rs' \
        -exec awk '/^#\[cfg\(test\)\]/{nextfile}
        /Condvar|wait_for|PendingAcks|Round<|kera_vlog::sync/{print FILENAME":"FNR": "$0}' {} + \
        | grep .; then
  echo "kera: a replicated produce waits as a kept Reply, not on a worker" >&2
  exit 1
fi

# The coordinator never parks a worker and has no thread of its own
# (ROADMAP item 5(a)): its protocol clock is one timer on its node, its
# rounds and votes are detached calls, and an op keeps its Reply until
# the last push after its commit ends. No sleep, thread or blocking wait
# in either system's coordinator (non-test lines, as above).
if awk '/^#\[cfg\(test\)\]/{exit} /thread::sleep|thread::Builder|JoinHandle|\.wait\(/{print FILENAME":"FNR": "$0}' \
        crates/broker/src/coordinator.rs | grep . \
    || awk '/^#\[cfg\(test\)\]/{exit} /\.wait\(/{print FILENAME":"FNR": "$0}' \
        crates/kafka-sim/src/coordinator.rs | grep .; then
  echo "a coordinator never parks a worker: no sleep, thread or .wait( in either coordinator" >&2
  exit 1
fi

# A figure is declared once, in crates/harness/src/figures.rs, and graded
# by `figure check`: the committed results/ must earn their declared
# verdicts (file-only, instant), and one live short-window pass — fig13,
# 9 points x 3 repeats — must come out of run -> TSV -> check as a
# measurement (a short window proves nothing about the claim, so outside
# results/ only an invalid TSV fails). No script re-derives a figure:
# scripts/ holds no Python and nothing but history (CHANGES.md) names the
# two files that did.
cargo run -q --release -p kera-harness --bin figure -- check
rm -f results/tmp/fig*.tsv
KERA_WARMUP_MS=100 KERA_MEASURE_MS=300 \
  cargo run -q --release -p kera-harness --bin figure -- fig13 >/dev/null
cargo run -q --release -p kera-harness --bin figure -- check results/tmp
# One pairing rule: every effect is computed inside one repeat. Dividing
# one cell's lowest repeat by another's highest (a `lo` over a `hi`, a
# `Spread::over`) is the rule it replaced (non-test lines, as above).
if awk '/^#\[cfg\(test\)\]/{exit} /lo *\/ *[A-Za-z_.]*hi([^A-Za-z_]|$)|fn over[ (<]/{print FILENAME":"FNR": "$0}' \
    crates/harness/src/check.rs | grep .; then
  echo "check.rs computes every effect inside one repeat: no lo / hi across repeats, no fn over" >&2
  exit 1
fi
if ls scripts/*.py 2>/dev/null \
    || grep -rnE 'summarize_result[s]|fill_experiment[s]' README.md DESIGN.md EXPERIMENTS.md \
        ROADMAP.md .claude scripts crates src tests examples lint; then
  echo "figures are declared in figures.rs and graded by figure check, not by a script" >&2
  exit 1
fi

# Every KerA/Kafka ratio divides by the baseline, so the baseline has one
# speed: fig09's Kafka R3 @4p point, ten canonical-window runs, max / min
# within 1.3 (~35 s; ignored in the workspace pass).
cargo test -q --release -p kera-harness --test kafka_baseline -- --ignored \
  kafka_r3_at_4_producers_has_one_mode
# Non-test lines per crate (no gate): the table "lines removed" figures
# in CHANGES.md are quoted from.
scripts/loc.sh

# Dynamic lock-order checking: the shim's own lockdep suite, then the
# chaos + invariants suites, the replication-round tests (kera-vlog's
# unit tests, the broker's produce-failure drill), kera-rpc's unit tests
# (a detached call's completion takes rpc.pending itself, so it must run
# under none), kafka-sim's unit tests, the producer's scripted-broker
# tests and the long-poll tests (a parked request, KerA's or kafka-sim's,
# arms its purgatory's timer under rpc.purgatory) with every lock
# acquisition instrumented.
# The chaos run arms the flight recorder: a panic or chaos failure dumps
# each node's recent-event ring under results/tmp/flightrec/<run>/.
(cd crates/shims/parking_lot && cargo test -q --features deadlock-detect)
if ! KERA_FLIGHTREC=1 cargo test -q -p kera -p kera-rpc -p kera-vlog -p kera-broker -p kera-client \
    -p kera-kafka-sim --features kera/deadlock-detect --test chaos --test invariants \
    --test produce_failure --test lanes --test long_poll --lib; then
  echo "chaos/invariants failed — flight recorder dumps:" >&2
  ls results/tmp/flightrec/*/flightrec-*.json >&2 2>/dev/null || echo "  (none recorded)" >&2
  exit 1
fi

# The seven named drills — coordinator failover (DESIGN.md §10: leader
# crashed / held / partitioned mid-ingest, and a held quorum under
# which the leader still answers), overload (§11: the 10:1
# raw-RPC storm, the slow-consumer pile-up) and the stall drill (§13: a
# held backup, the watchdog's dump) — ran in the
# workspace pass and again, instrumented and with the recorder armed,
# just above. What is left to guard is a refactor that renames or drops
# one and silently shrinks the chaos surface: each must be listed.
drills=$(cargo test -q --test chaos -- --list)
for drill in \
    coordinator_leader_kill_fails_over_without_metadata_loss \
    coordinator_frozen_leader_is_deposed_and_steps_down_on_thaw \
    coordinator_partitioned_leader_abdicates_and_rejoins \
    coordinator_answers_get_leader_while_its_quorum_is_held \
    raw_rpc_storm_does_not_starve_a_polite_producer \
    slow_consumer_pileup_keeps_broker_bounded \
    held_backup_mid_ingest_triggers_watchdog_dump; do
  if ! grep -q "^$drill: test\$" <<<"$drills"; then
    echo "chaos drill '$drill' no longer exists in tests/chaos.rs" >&2
    exit 1
  fi
done

# Introspection plane smoke (DESIGN.md §13): boot a real 3-broker /
# 3-replica cluster on loopback TCP, scrape every node over the wire
# with the Introspect opcode, and require each one to report health
# (role, term, lag, in-flight). Non-zero exit if any node
# is unreachable — the stall drill above already covers the stall-dump
# path.
cargo run -q --release -p kera-inspect -- health --brokers 3 --replicas 3

# Repo-benchmark pass: every workload of BENCHMARK.json (untraced and
# traced) with its read-back checks (chunk CRCs, sequence continuity,
# consumed == acked), the result-schema test and the benchmark crate's
# unit tests -- the three steps of benchmark/ci-smoke.sh, at the
# canonical 10-s run length instead of its 2-s one. `ingest-large-r1`
# can reach its 4.5 M-record round quota before a round's first window
# closes (ROADMAP item 12); a 2-s run has ~8 rounds and may keep none,
# a 10-s run has ~40. These numbers are never compared with anything;
# a hot-path regression is judged by `benchmark/run.sh repeat` +
# `compare` against the parent commit.
bash benchmark/run.sh --save benchmark/out/ci.json
BENCH_SMOKE_RESULT=benchmark/out/ci.json python3 benchmark/test_schema.py
cargo test --release --offline --manifest-path benchmark/Cargo.toml
